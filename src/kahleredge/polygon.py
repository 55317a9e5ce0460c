"""Differential calculus of the bidirected polygon on n cyclically ordered points.

The graded algebra is Omega^0 + Omega^1 + Omega^2 over the algebra of complex
functions on n vertices.  One-forms are spanned by the edge symbols
xi[mu->mu+1] (the (1,0) part) and xi[mu->mu-1] (the (0,1) part); two-forms by
the volume elements vol[mu] = xi[mu->mu-1] ^ xi[mu-1->mu].  On top of the
wedge product the module provides the involution, the exterior derivative on
functions, the complex structure J, the Kahler form, the Hodge star, the
induced metric and the normalized trace state.

A vertex function is a plain complex array of shape (..., n) and a form a
plain complex array of shape (..., 4, n), as everywhere in the package.  The
four rows of a form are deg0, fwd, bwd and vol: at column mu, the function
value, the coefficient of xi[mu->mu+1], that of xi[mu->mu-1] and that of
vol[mu].  There is no storage for (2,0)/(0,2) forms; those spaces vanish.
Sums, differences and scalings of forms are numpy's own arithmetic.

Leading axes are a stack, and every operation of `Calculus` broadcasts over
them, so one call acts on a whole stack of forms.  Operations read any
array-like as complex, real lists included; a vertex function whose last
axis is not n, or a form whose last two axes are not (4, n), is a
`ValueError`.  Every form or vertex function an operation returns is a fresh
read-only array, never shared with its inputs and allocated once.
Operations accept arrays in any memory layout: `basis_forms()` keeps its
stack axis innermost in memory, so elementwise work over a basis stack runs
along the stack, but no layout is part of the contract.

Vertices are 0-based and all vertex arithmetic is mod n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import _last_axis

__all__ = ["Calculus"]

#: rows of a form that hold each degree
_DEGREE_ROWS = {0: [0], 1: [1, 2], 2: [3]}
#: complex structure J, one factor per row
_J_FACTORS = np.array([0, 1j, -1j, 0])[:, None]
#: Hodge star: source row and factor of each row
_STAR_ROWS = [3, 1, 2, 0]
_STAR_FACTORS = np.array([-1j, -1j, 1j, 1j])[:, None]
#: metric: factor of each row of star(eta*) where the wedge reads it, on
#: conj(eta) for functions and on -conj(eta) for the other rows
_METRIC_FACTORS = np.array([1j, 1j, -1j, -1j])[:, None]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """`arr`, an array an operation has just allocated, made read-only."""
    arr.flags.writeable = False
    return arr


def _roll(x: np.ndarray, shift: int) -> np.ndarray:
    """np.roll along the vertex axis, for a shift of +-1: _roll(x, -1)[mu] =
    x[mu+1], as a fresh array.  Slicing is several times faster than np.roll
    on these sizes; `wedge` joins the same slices of eta's function row for
    all three of its shifts in one concatenation."""
    return np.concatenate((x[..., -shift:], x[..., :-shift]), axis=-1)


@dataclass(frozen=True)
class Calculus:
    """Context fixing the vertex count n and the basis ordering of forms.

    `wedge_sign` is the sign in xi[mu->mu+1] ^ xi[mu+1->mu] = sign * vol[mu].
    The value -1 is forced by requiring the Hodge star formulae and the
    positivity of the metric to hold simultaneously; it is overridable only as
    a negative-control hook for the consistency checks.

    Every operation broadcasts over the leading axes of its arguments.
    """

    n: int
    wedge_sign: float = field(default=-1.0)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValueError(f"polygon calculus needs an integer n >= 3, got {self.n!r}")

    def _form(self, omega) -> np.ndarray:
        """`omega` as a complex array (`omega` itself if it is one: operations
        only read it), after checking that its last two axes are (4, n)."""
        arr = np.asarray(omega, dtype=complex)
        if arr.shape[-2:] != (4, self.n):
            raise ValueError(
                f"form must have last two axes of shape (4, {self.n}), got shape {arr.shape}")
        return arr

    def _vertex(self, mu) -> int:
        """The vertex mu mod n, after checking that it is an integer."""
        if isinstance(mu, bool) or not isinstance(mu, (int, np.integer)):
            raise ValueError(f"vertex must be an integer, got {mu!r}")
        return int(mu) % self.n

    # ---------------------------------------------------------------- builders

    def delta(self, mu: int) -> np.ndarray:
        """The indicator function of vertex mu."""
        values = np.zeros(self.n, dtype=complex)
        values[self._vertex(mu)] = 1.0
        return _read_only(values)

    def one(self) -> np.ndarray:
        """The unit of the algebra, the constant function 1."""
        return _read_only(np.ones(self.n, dtype=complex))

    def zero_form(self) -> np.ndarray:
        return _read_only(np.zeros((4, self.n), dtype=complex))

    def form(self, deg0=None, deg1_fwd=None, deg1_bwd=None, deg2=None) -> np.ndarray:
        """The form with the given rows (absent rows are zero); rows of
        different batch shapes broadcast."""
        rows = [
            np.zeros(self.n, dtype=complex) if values is None else _last_axis(values, self.n, name)
            for name, values in (
                ("deg0", deg0), ("deg1_fwd", deg1_fwd), ("deg1_bwd", deg1_bwd), ("deg2", deg2)
            )
        ]
        return _read_only(np.stack(np.broadcast_arrays(*rows), axis=-2))

    def from_vertex(self, f) -> np.ndarray:
        return self.form(deg0=_last_axis(f, self.n, "vertex function"))

    def _basis_element(self, row: int, mu: int) -> np.ndarray:
        coeffs = np.zeros((4, self.n), dtype=complex)
        coeffs[row, self._vertex(mu)] = 1.0
        return _read_only(coeffs)

    def xi_fwd(self, mu: int) -> np.ndarray:
        """The basis one-form xi[mu->mu+1]."""
        return self._basis_element(1, mu)

    def xi_bwd(self, mu: int) -> np.ndarray:
        """The basis one-form xi[mu->mu-1]."""
        return self._basis_element(2, mu)

    def xi(self, a: int, b: int) -> np.ndarray:
        """The basis one-form xi[a->b]; b must be a+1 or a-1 mod n."""
        a, b = self._vertex(a), self._vertex(b)
        if b == (a + 1) % self.n:
            return self.xi_fwd(a)
        if b == (a - 1) % self.n:
            return self.xi_bwd(a)
        raise ValueError(f"{a}->{b} is not a polygon edge")

    def vol(self, mu: int) -> np.ndarray:
        """The basis two-form vol[mu] = xi[mu->mu-1] ^ xi[mu-1->mu]."""
        return self._basis_element(3, mu)

    def basis_forms(self) -> np.ndarray:
        """All 4n basis forms as one (4n, 4, n) stack: deltas, forward edges,
        backward edges, volumes.  The stack axis is innermost in memory (the
        identity is symmetric, so its transpose holds the same values), so
        elementwise work over the stack runs in long loops."""
        n = self.n
        eye = np.eye(4 * n, dtype=complex)
        return _read_only(eye.reshape(4, n, 4 * n).transpose(2, 0, 1))

    # -------------------------------------------------------------- operations

    def degree_part(self, omega, k: int) -> np.ndarray:
        """The degree-k part of omega: its rows of degree k, the others zero."""
        o = self._form(omega)
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k not in _DEGREE_ROWS:
            raise ValueError(f"degree must be 0, 1 or 2, got {k}")
        rows = _DEGREE_ROWS[int(k)]
        out = np.zeros_like(o)
        out[..., rows, :] = o[..., rows, :]
        return _read_only(out)

    def bimodule_act(self, f, omega, side: str) -> np.ndarray:
        """Left/right action of the algebra on a graded form.

        The left action scales each basis coefficient by f at the left vertex
        of the basis element, the right action by f at the right vertex.
        xi[a->b] has left vertex a and right vertex b; vol[mu] has both equal
        to mu.
        """
        v = _last_axis(f, self.n, "vertex function")
        o = self._form(omega)
        if side == "left":
            return _read_only(v[..., None, :] * o)
        if side == "right":
            # right vertex of xi[mu->mu+1] is mu+1, of xi[mu->mu-1] is mu-1
            weights = np.stack([v, _roll(v, -1), _roll(v, 1), v], axis=-2)
            return _read_only(weights * o)
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def wedge(self, omega, eta) -> np.ndarray:
        """Graded product; terms of total degree >= 3 vanish.

        xi[a->b] ^ xi[c->d] = 0 unless b == c, two forward or two backward
        edges compose to zero, and the mixed products give
        xi[mu->mu-1] ^ xi[mu-1->mu] = vol[mu],
        xi[mu->mu+1] ^ xi[mu+1->mu] = wedge_sign * vol[mu].
        """
        o, e = self._form(omega), self._form(eta)
        # the function part of omega times every row of eta
        out = o[..., 0:1, :] * e
        # one-forms and volumes of omega times eta's function part at their
        # right vertex: mu+1 for xi[mu->mu+1], mu-1 for xi[mu->mu-1], mu for vol[mu]
        e0 = e[..., 0, :]
        right = np.concatenate((e0[..., 1:], e0[..., :1], e0[..., -1:], e0[..., :-1], e0), axis=-1)
        out[..., 1:, :] += o[..., 1:, :] * right.reshape(*right.shape[:-1], 3, self.n)
        # xi[mu->mu-1] (bwd at mu) ^ xi[mu-1->mu] (fwd at mu-1) -> vol[mu]
        out[..., 3, :] += o[..., 2, :] * _roll(e[..., 1, :], 1)
        # xi[mu->mu+1] (fwd at mu) ^ xi[mu+1->mu] (bwd at mu+1) -> sign*vol[mu]
        out[..., 3, :] += self.wedge_sign * o[..., 1, :] * _roll(e[..., 2, :], -1)
        return _read_only(out)

    def star_involution(self, omega) -> np.ndarray:
        """The antilinear graded involution; xi[a->b]* = -xi[b->a]."""
        out = np.conj(self._form(omega))
        fwd = out[..., 1, :].copy()
        # c at xi[mu->mu-1] -> -conj(c) at xi[mu-1->mu] (fwd index mu-1)
        out[..., 1, :-1], out[..., 1, -1] = out[..., 2, 1:], out[..., 2, 0]
        # c at xi[mu->mu+1] -> -conj(c) at xi[mu+1->mu] (bwd index mu+1)
        out[..., 2, 1:], out[..., 2, 0] = fwd[..., :-1], fwd[..., -1]
        # vol[mu]* = -(xi[mu-1->mu]* ^ xi[mu->mu-1]*) = -vol[mu]
        np.negative(out[..., 1:, :], out=out[..., 1:, :])
        return _read_only(out)

    def exterior_d(self, f) -> np.ndarray:
        """df = sum over polygon edges mu->mu+-1 of (f(nu)-f(mu)) xi[mu->nu]."""
        v = _last_axis(f, self.n, "vertex function")
        return self.form(deg1_fwd=_roll(v, -1) - v, deg1_bwd=_roll(v, 1) - v)

    def apply_J(self, omega) -> np.ndarray:
        """Complex structure: i on (1,0), -i on (0,1), zero on (0,0) and (1,1)."""
        return _read_only(_J_FACTORS * self._form(omega))

    def kahler_form(self) -> np.ndarray:
        """kappa = i * sum_mu vol[mu]."""
        return self.form(deg2=1j * np.ones(self.n, dtype=complex))

    def lefschetz(self, omega) -> np.ndarray:
        """omega -> kappa ^ omega; a bijection of functions onto two-forms."""
        return self.wedge(self.kahler_form(), omega)

    def hodge_star(self, omega) -> np.ndarray:
        """Hodge star: f -> f*kappa, -i on (1,0), i on (0,1), volumes back to
        functions through the inverse Lefschetz map (the coefficient of vol
        divided by i)."""
        return _read_only(_STAR_FACTORS * self._form(omega)[..., _STAR_ROWS, :])

    def metric_g(self, omega, eta) -> np.ndarray:
        """g(omega, eta) = star(omega ^ star(eta*)), evaluated degreewise.

        Components of differing degree pair to zero.  The three degrees are
        one pass over the rows: the rolls of the involution and of the wedge
        cancel, so each coefficient of omega meets star(eta*) at its own
        vertex, and the products are taken and summed in the order of the
        degreewise formula.
        """
        o = self._form(omega)
        e = np.conj(self._form(eta))
        np.negative(e[..., 1:, :], out=e[..., 1:, :])
        e *= _METRIC_FACTORS
        # the volume coefficient of each degree: one row of p, two for
        # one-forms (the wedge sign on (1,0), added after (0,1))
        p = o * e
        np.multiply(self.wedge_sign * o[..., 1, :], e[..., 1, :], out=p[..., 1, :])
        p[..., 2, :] += p[..., 1, :]
        # and its Hodge star, a function
        t = p[..., [0, 2, 3], :]
        t *= -1j
        return _read_only(0.0 + t[..., 0, :] + t[..., 1, :] + t[..., 2, :])

    def state_tau(self, f):
        """The normalized trace state: arithmetic mean of the values (an
        array of means for a stack of functions)."""
        return np.mean(_last_axis(f, self.n, "vertex function"), axis=-1)
