"""Differential calculus of the bidirected polygon on n cyclically ordered points.

The graded algebra is Omega^0 + Omega^1 + Omega^2 over the algebra of complex
functions on n vertices.  One-forms are spanned by the edge symbols
xi[mu->mu+1] (the (1,0) part) and xi[mu->mu-1] (the (0,1) part); two-forms by
the volume elements vol[mu] = xi[mu->mu-1] ^ xi[mu-1->mu].  On top of the
wedge product the module provides the involution, the exterior derivative on
functions, the complex structure J, the Kahler form, the Hodge star, the
induced metric and the normalized trace state.

Forms and vertex functions take leading batch axes: a vertex function holds
values of shape (..., n) and a form coefficients of shape (..., 4, n), and
every operation of `Calculus` broadcasts over the leading axes, so one call
acts on a whole stack of forms.

Vertices are 0-based and all vertex arithmetic is mod n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Calculus", "VertexFunction", "GradedForm"]

#: absolute tolerance for positivity / reality checks on function values
POSITIVITY_TOL = 1e-12

#: coefficient rows of each degree in GradedForm.coeffs
_DEGREE_ROWS = {0: [0], 1: [1, 2], 2: [3]}
#: complex structure J, one factor per coefficient row
_J_FACTORS = np.array([0, 1j, -1j, 0])[:, None]
#: Hodge star: source row and factor of each coefficient row
_STAR_ROWS = [3, 1, 2, 0]
_STAR_FACTORS = np.array([-1j, -1j, 1j, 1j])[:, None]


def _as_complex(values, n: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim == 0 or arr.shape[-1] != n:
        raise ValueError(f"{what} must have last axis of length {n}, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _roll(x: np.ndarray, shift: int) -> np.ndarray:
    """np.roll along the vertex axis, for a shift of +-1: _roll(x, -1)[mu] =
    x[mu+1].  Slicing is several times faster than np.roll on these sizes."""
    return np.concatenate((x[..., -shift:], x[..., :-shift]), axis=-1)


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """A complex function on the n vertices (an element of the algebra), or a
    stack of them: `values` has shape (..., n)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("polygon calculus needs n >= 3")
        object.__setattr__(self, "values", _as_complex(self.values, self.n, "vertex function"))

    def __call__(self, mu: int):
        value = self.values[..., mu % self.n]
        return complex(value) if value.ndim == 0 else value

    def __add__(self, other: "VertexFunction") -> "VertexFunction":
        self._check(other)
        return VertexFunction(self.n, self.values + other.values)

    def __sub__(self, other: "VertexFunction") -> "VertexFunction":
        self._check(other)
        return VertexFunction(self.n, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, VertexFunction):
            self._check(other)
            return VertexFunction(self.n, self.values * other.values)
        return VertexFunction(self.n, self.values * complex(other))

    __rmul__ = __mul__

    def conjugate(self) -> "VertexFunction":
        return VertexFunction(self.n, np.conj(self.values))

    def is_positive(self, tol: float = POSITIVITY_TOL) -> bool:
        """Membership in the positive cone: real values >= 0 up to `tol`
        (for a stack, of every function in it)."""
        return bool(
            np.all(np.abs(self.values.imag) <= tol) and np.all(self.values.real >= -tol)
        )

    def _check(self, other: "VertexFunction"):
        if self.n != other.n:
            raise ValueError(f"vertex count mismatch: {self.n} != {other.n}")


@dataclass(frozen=True, eq=False)
class GradedForm:
    """An element of Omega^0 + Omega^1 + Omega^2 of the polygon calculus, or
    a stack of them.

    `coeffs` has shape (..., 4, n); its rows are read as `deg0`, `deg1_fwd`,
    `deg1_bwd` and `deg2`.  deg1_fwd[mu] is the coefficient of xi[mu->mu+1],
    deg1_bwd[mu] that of xi[mu->mu-1] and deg2[mu] that of
    vol[mu] = xi[mu->mu-1] ^ xi[mu-1->mu].  There is no storage for
    (2,0)/(0,2) forms; those spaces vanish.  A stack iterates, indexes and
    slices over its leading axes.
    """

    coeffs: np.ndarray

    #: make `array * form` call GradedForm.__rmul__ instead of numpy's product
    __array_ufunc__ = None

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim < 2 or arr.shape[-2] != 4:
            raise ValueError(f"form coefficients must have shape (..., 4, n), got {arr.shape}")
        if arr.shape[-1] < 3:
            raise ValueError("polygon calculus needs n >= 3")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        """The batch shape: () for a single form."""
        return self.coeffs.shape[:-2]

    deg0 = property(lambda self: self.coeffs[..., 0, :])
    deg1_fwd = property(lambda self: self.coeffs[..., 1, :])
    deg1_bwd = property(lambda self: self.coeffs[..., 2, :])
    deg2 = property(lambda self: self.coeffs[..., 3, :])

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("a single form has no length")
        return self.shape[0]

    def __getitem__(self, index) -> "GradedForm":
        if not self.shape:
            raise TypeError("a single form cannot be indexed")
        return GradedForm(self.coeffs[index])

    def __add__(self, other: "GradedForm") -> "GradedForm":
        self._check(other)
        return GradedForm(self.coeffs + other.coeffs)

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        self._check(other)
        return GradedForm(self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "GradedForm":
        """Scale by a number, or by an array of numbers over the batch axes."""
        return GradedForm(self.coeffs * np.asarray(scalar, dtype=complex)[..., None, None])

    __rmul__ = __mul__

    def degree_part(self, k: int) -> "GradedForm":
        if k not in _DEGREE_ROWS:
            raise ValueError(f"degree must be 0, 1 or 2, got {k}")
        rows = _DEGREE_ROWS[k]
        out = np.zeros_like(self.coeffs)
        out[..., rows, :] = self.coeffs[..., rows, :]
        return GradedForm(out)

    def max_abs(self) -> float:
        """Largest coefficient modulus over the whole stack."""
        return float(np.max(np.abs(self.coeffs), initial=0.0))

    def is_close(self, other: "GradedForm", tol: float = 1e-9) -> bool:
        return (self - other).max_abs() <= tol

    def render(self) -> str:
        """Debug rendering of a single form, e.g. ``(2+0i)*xi[0->1] + (0+1i)*vol[2]``."""
        if self.shape:
            raise TypeError("render takes a single form")
        n = self.n
        labels = (
            lambda mu: f"delta[{mu}]",
            lambda mu: f"xi[{mu}->{(mu + 1) % n}]",
            lambda mu: f"xi[{mu}->{(mu - 1) % n}]",
            lambda mu: f"vol[{mu}]",
        )
        terms = []
        for row, label in zip(self.coeffs, labels):
            for mu in np.flatnonzero(row):
                z = row[mu]
                sign = "+" if z.imag >= 0 else "-"
                terms.append(f"({z.real:g}{sign}{abs(z.imag):g}i)*{label(mu)}")
        return " + ".join(terms) if terms else "0"

    def _check(self, other: "GradedForm"):
        if self.n != other.n:
            raise ValueError(f"vertex count mismatch: {self.n} != {other.n}")


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

    # ---------------------------------------------------------------- builders

    def vertex_function(self, values) -> VertexFunction:
        return VertexFunction(self.n, values)

    def delta(self, mu: int) -> VertexFunction:
        values = np.zeros(self.n, dtype=complex)
        values[mu % self.n] = 1.0
        return VertexFunction(self.n, values)

    def one(self) -> VertexFunction:
        return VertexFunction(self.n, np.ones(self.n, dtype=complex))

    def zero_form(self) -> GradedForm:
        return GradedForm(np.zeros((4, self.n), dtype=complex))

    def form(self, deg0=None, deg1_fwd=None, deg1_bwd=None, deg2=None) -> GradedForm:
        """The form with the given rows (absent rows are zero); rows of
        different batch shapes broadcast."""
        rows = [
            np.zeros(self.n, dtype=complex) if values is None else _as_complex(values, self.n, name)
            for name, values in (
                ("deg0", deg0), ("deg1_fwd", deg1_fwd), ("deg1_bwd", deg1_bwd), ("deg2", deg2)
            )
        ]
        return GradedForm(np.stack(np.broadcast_arrays(*rows), axis=-2))

    def from_vertex(self, f: VertexFunction) -> GradedForm:
        self._check_n(f.n)
        return self.form(deg0=f.values)

    def _basis_element(self, row: int, mu: int) -> GradedForm:
        coeffs = np.zeros((4, self.n), dtype=complex)
        coeffs[row, mu % self.n] = 1.0
        return GradedForm(coeffs)

    def xi_fwd(self, mu: int) -> GradedForm:
        """The basis one-form xi[mu->mu+1]."""
        return self._basis_element(1, mu)

    def xi_bwd(self, mu: int) -> GradedForm:
        """The basis one-form xi[mu->mu-1]."""
        return self._basis_element(2, mu)

    def xi(self, a: int, b: int) -> GradedForm:
        """The basis one-form xi[a->b]; b must be a+1 or a-1 mod n."""
        a, b = a % self.n, b % self.n
        if b == (a + 1) % self.n:
            return self.xi_fwd(a)
        if b == (a - 1) % self.n:
            return self.xi_bwd(a)
        raise ValueError(f"{a}->{b} is not a polygon edge")

    def vol(self, mu: int) -> GradedForm:
        """The basis two-form vol[mu] = xi[mu->mu-1] ^ xi[mu-1->mu]."""
        return self._basis_element(3, mu)

    def basis_forms(self) -> GradedForm:
        """All 4n basis forms as one stack of shape (4n,): deltas, forward
        edges, backward edges, volumes."""
        n = self.n
        return GradedForm(np.eye(4 * n, dtype=complex).reshape(4 * n, 4, n))

    # -------------------------------------------------------------- operations

    def bimodule_act(self, f: VertexFunction, omega: GradedForm, side: str) -> GradedForm:
        """Left/right action of the algebra on a graded form.

        The left action scales each basis coefficient by f at the left vertex
        of the basis element, the right action by f at the right vertex.
        xi[a->b] has left vertex a and right vertex b; vol[mu] has both equal
        to mu.
        """
        self._check_n(f.n)
        self._check_n(omega.n)
        v = f.values
        if side == "left":
            return GradedForm(v[..., None, :] * omega.coeffs)
        if side == "right":
            # right vertex of xi[mu->mu+1] is mu+1, of xi[mu->mu-1] is mu-1
            weights = np.stack([v, _roll(v, -1), _roll(v, 1), v], axis=-2)
            return GradedForm(weights * omega.coeffs)
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def wedge(self, omega: GradedForm, eta: GradedForm) -> GradedForm:
        """Graded product; terms of total degree >= 3 vanish.

        xi[a->b] ^ xi[c->d] = 0 unless b == c, two forward or two backward
        edges compose to zero, and the mixed products give
        xi[mu->mu-1] ^ xi[mu-1->mu] = vol[mu],
        xi[mu->mu+1] ^ xi[mu+1->mu] = wedge_sign * vol[mu].
        """
        self._check_n(omega.n)
        self._check_n(eta.n)
        deg0 = omega.deg0 * eta.deg0
        # degree 1: function times one-form on either side
        fwd = omega.deg0 * eta.deg1_fwd + omega.deg1_fwd * _roll(eta.deg0, -1)
        bwd = omega.deg0 * eta.deg1_bwd + omega.deg1_bwd * _roll(eta.deg0, 1)
        # degree 2: function times volume plus the two nonzero edge products
        deg2 = omega.deg0 * eta.deg2 + omega.deg2 * eta.deg0
        # xi[mu->mu-1] (bwd at mu) ^ xi[mu-1->mu] (fwd at mu-1) -> vol[mu]
        deg2 = deg2 + omega.deg1_bwd * _roll(eta.deg1_fwd, 1)
        # xi[mu->mu+1] (fwd at mu) ^ xi[mu+1->mu] (bwd at mu+1) -> sign*vol[mu]
        deg2 = deg2 + self.wedge_sign * omega.deg1_fwd * _roll(eta.deg1_bwd, -1)
        return GradedForm(np.stack([deg0, fwd, bwd, deg2], axis=-2))

    def star_involution(self, omega: GradedForm) -> GradedForm:
        """The antilinear graded involution; xi[a->b]* = -xi[b->a]."""
        self._check_n(omega.n)
        deg0 = np.conj(omega.deg0)
        # c at xi[mu->mu+1] -> -conj(c) at xi[mu+1->mu] (bwd index mu+1)
        bwd = -_roll(np.conj(omega.deg1_fwd), 1)
        # c at xi[mu->mu-1] -> -conj(c) at xi[mu-1->mu] (fwd index mu-1)
        fwd = -_roll(np.conj(omega.deg1_bwd), -1)
        # vol[mu]* = -(xi[mu-1->mu]* ^ xi[mu->mu-1]*) = -vol[mu]
        deg2 = -np.conj(omega.deg2)
        return GradedForm(np.stack([deg0, fwd, bwd, deg2], axis=-2))

    def exterior_d(self, f: VertexFunction) -> GradedForm:
        """df = sum over polygon edges mu->mu+-1 of (f(nu)-f(mu)) xi[mu->nu]."""
        self._check_n(f.n)
        v = f.values
        return self.form(deg1_fwd=_roll(v, -1) - v, deg1_bwd=_roll(v, 1) - v)

    def apply_J(self, omega: GradedForm) -> GradedForm:
        """Complex structure: i on (1,0), -i on (0,1), zero on (0,0) and (1,1)."""
        self._check_n(omega.n)
        return GradedForm(_J_FACTORS * omega.coeffs)

    def kahler_form(self) -> GradedForm:
        """kappa = i * sum_mu vol[mu]."""
        return self.form(deg2=1j * np.ones(self.n, dtype=complex))

    def lefschetz(self, omega: GradedForm) -> GradedForm:
        """omega -> kappa ^ omega; a bijection of functions onto two-forms."""
        return self.wedge(self.kahler_form(), omega)

    def hodge_star(self, omega: GradedForm) -> GradedForm:
        """Hodge star: f -> f*kappa, -i on (1,0), i on (0,1), volumes back to
        functions through the inverse Lefschetz map (the coefficient of vol
        divided by i)."""
        self._check_n(omega.n)
        return GradedForm(_STAR_FACTORS * omega.coeffs[..., _STAR_ROWS, :])

    def metric_g(self, omega: GradedForm, eta: GradedForm) -> VertexFunction:
        """g(omega, eta) = star(omega ^ star(eta*)), evaluated degreewise.

        Components of differing degree pair to zero.
        """
        self._check_n(omega.n)
        self._check_n(eta.n)
        total = 0.0
        for k in range(3):
            w = omega.degree_part(k)
            e = self.hodge_star(self.star_involution(eta.degree_part(k)))
            total = total + self.hodge_star(self.wedge(w, e)).deg0
        return VertexFunction(self.n, total)

    def state_tau(self, f: VertexFunction):
        """The normalized trace state: arithmetic mean of the values (an
        array of means for a stack of functions)."""
        self._check_n(f.n)
        return np.mean(f.values, axis=-1)

    def _check_n(self, n: int):
        if n != self.n:
            raise ValueError(f"vertex count mismatch: expected {self.n}, got {n}")


def make_calculus(n: int) -> Calculus:
    """Create the polygon calculus context on n >= 3 vertices."""
    return Calculus(n)
