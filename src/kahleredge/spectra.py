"""Self-adjoint eigensolver and closed-form spectral results.

The solver is the LAPACK (via numpy) self-adjoint eigensolver, behind checks
that reject non-square, non-finite and non-self-adjoint input.  A matrix
stored complex with no imaginary part (the Laplacian of a real potential) is
checked and solved in real arithmetic.  On a circulant graph under a
rotation-invariant potential the Laplacian is block diagonal in Fourier
modes, and `circulant_spectrum` solves its n blocks of size d x d (d the
out-degree) as one batched problem, never forming the m x m matrix.
`laplacian_spectrum` picks the route: that one where it takes the input,
else the dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import connection
from .graphs import DirectedCyclicGraph, _check_vertex_count

__all__ = [
    "Spectrum",
    "eig_selfadjoint",
    "laplacian_spectrum",
    "circulant_spectrum",
    "ngon_closed_form",
    "gershgorin_radius",
    "make_circulant_regular",
]

#: relative asymmetry tolerated before the input is rejected
_HERMITIAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order; eigenvectors, when requested, are the
    matching orthonormal columns, and `residual` is max |A V - V diag(w)|
    over the symmetrised input A (None when no vectors were requested)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual: float | None = None


def _square(M) -> np.ndarray:
    """`M` as a complex array, after checking that it is a square matrix."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    return A


def eig_selfadjoint(M, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a self-adjoint matrix via LAPACK (numpy ``eigh``).

    Rejects non-finite entries, and matrices whose asymmetry exceeds 1e-9
    relative to their norm, reporting the measured asymmetry.  Input whose
    imaginary part is all zero (a unit-potential Laplacian, say) is checked,
    symmetrised and solved in real arithmetic and gives real eigenvectors; so
    does complex input whose symmetrised imaginary part vanishes.  The real
    route gives bitwise the eigenvalues of the complex one: the symmetrised
    real part is the same either way.
    """
    A = _square(M)
    if not A.imag.any():
        A = A.real
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    norm = float(np.linalg.norm(A))
    adjoint = A.conj().T
    asym = float(np.linalg.norm(A - adjoint))
    if asym > _HERMITIAN_TOL * norm:
        raise ValueError(
            f"matrix is not self-adjoint: ||M - M^dagger|| = {asym:.3e} "
            f"exceeds {_HERMITIAN_TOL:g} * ||M|| = {_HERMITIAN_TOL * norm:.3e}"
        )
    A = (A + adjoint) / 2.0
    if np.iscomplexobj(A) and not A.imag.any():
        A = np.ascontiguousarray(A.real)
    if not want_vectors:
        return Spectrum(np.linalg.eigvalsh(A))
    eigenvalues, V = np.linalg.eigh(A)
    residual = float(np.max(np.abs(A @ V - V * eigenvalues), initial=0.0))
    return Spectrum(eigenvalues, V, residual)


def laplacian_spectrum(g: DirectedCyclicGraph, c: connection.PotentialCoefficients) -> np.ndarray:
    """The eigenvalues of the twisted edge Laplacian in ascending order, by
    `circulant_spectrum` where it takes the input, else by `eig_selfadjoint`
    on `connection.laplacian`; each raises on an overflowing potential."""
    eigs = circulant_spectrum(g, c)
    if eigs is None:
        eigs = eig_selfadjoint(connection.laplacian(g, c)).eigenvalues
    return eigs


def circulant_spectrum(g: DirectedCyclicGraph, c: connection.PotentialCoefficients) -> np.ndarray | None:
    """The eigenvalues of the twisted edge Laplacian L = dbar^dagger dbar in
    ascending order when g is circulant and c rotation invariant, from n
    Fourier blocks of size d x d; None otherwise.

    Detection reads the inputs alone, in O(m).  The graph is circulant when
    every vertex has the same out-degree d and the same set of offsets
    (t - s) mod n (offset 0, a self-loop at every vertex, included).  The
    edges of a vertex are sorted by target, so near the wrap their offsets
    are a rotation of the sorted ones; a per-vertex argsort puts them in
    offset order.  The potential is rotation invariant when every block C_mu,
    with its rows in mu's offset order and its columns in that of mu - 1,
    equals one d x d matrix Z: Z[a, b] = c[mu, mu + o_a, mu - 1 + o_b] for
    every mu.  The unit and zero potentials always are; the blocks are
    compared exactly.

    Proof.  Index the edges by (vertex, offset rank).  zeta maps the edge
    (mu, a) to the edges (mu - 1, b) with coefficients Z[a, b], so
    zeta = P (x) Z^T, where P is the unitary cyclic shift (P x)(mu) =
    x(mu + 1), and dbar = I (x) I + P (x) Z^T.  The Fourier vectors
    v_k(mu) = w^(k mu), w = e^(2 pi i / n), are an orthogonal eigenbasis of P
    with P v_k = w^k v_k, so on the mode k dbar acts as S_k = I_d + w^k Z^T
    and L as S_k^dagger S_k = (I + conj(Z) Z^T) + w^k Z^T + (w^k Z^T)^dagger:
    spec L is the union over k of spec(S_k^dagger S_k) (P. J. Davis,
    Circulant Matrices, 1979).  With Z = J, the all-ones matrix (the unit
    potential), S_k is normal with eigenvalues 1 + w^k d and 1, which gives
    {1 (x n(d - 1))} u {1 + d^2 + 2d cos(2 pi k / n)}: the n-gon's
    {2 + 2 cos(2 pi k / n)} at d = 1.

    The blocks are built from Z, read off the potential's coefficients
    (`c.values`), with no L formed; the entries of L on this input are
    exactly Z, conj(Z) and conj(Z) Z^T + I.  They are solved by one batched
    `numpy.linalg.eigvalsh` in O(n d^3).  When conj(Z) Z^T + I is not all
    finite it raises the ValueError of an overflowing potential.  The
    eigenvalues can differ from those of the dense solve in the last digits,
    by about 1e-14 relative to the largest.
    """
    if c.graph != g:
        raise ValueError("potential defined on a different graph")
    n, d = g.n, g.out_degree(0)
    if (g.out_degrees != d).any():
        return None
    offsets = ((g.targets - g.sources) % n).reshape(n, d)
    mu = np.arange(n)[:, None]
    order = np.argsort(offsets, axis=1)  # each vertex's edges in offset order
    if (offsets[mu, order] != offsets[0, order[0]]).any():
        return None
    # C_mu with its rows in mu's offset order and its columns in mu - 1's
    blocks = c.values.reshape(n, d, d)[mu[:, :, None], order[:, :, None], order[mu - 1]]
    if (blocks != blocks[0]).any():
        return None
    z = blocks[0]
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = z.conj() @ z.T + np.eye(d)
    connection._finite(diagonal)
    shifted = np.exp(2j * np.pi * np.arange(n) / n)[:, None, None] * z.T  # w^k Z^T
    modes = diagonal + shifted + shifted.conj().transpose(0, 2, 1)
    return np.sort(np.linalg.eigvalsh(modes), axis=None)


def ngon_closed_form(n: int) -> np.ndarray:
    """The spectrum {2 + 2 cos(2 pi j / n)} of the unit-potential twisted
    Laplacian of the directed n-gon, sorted ascending."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    j = np.arange(n)
    return np.sort(2.0 + 2.0 * np.cos(2.0 * np.pi * j / n))


def gershgorin_radius(M) -> float:
    """Max over rows of |diagonal| plus the off-diagonal absolute row sum."""
    A = _square(M)
    if A.shape[0] == 0:
        return 0.0
    absA = np.abs(A)
    diag = np.diag(absA)
    return float(np.max(diag + (absA.sum(axis=1) - diag)))


def make_circulant_regular(n: int, d: int) -> DirectedCyclicGraph:
    """Circulant graph with edges mu -> mu+1, ..., mu -> mu+d for every mu."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d} for n={n}")
    _check_vertex_count(n)
    sources = np.repeat(np.arange(n), d)
    targets = (sources + np.tile(np.arange(1, d + 1), n)) % n
    return DirectedCyclicGraph(n, np.stack([sources, targets], axis=1))
