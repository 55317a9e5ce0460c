"""Self-adjoint eigensolver and closed-form spectral results.

The solver is the LAPACK (via numpy) self-adjoint eigensolver, behind checks
that reject non-square, non-finite and non-self-adjoint input.  A matrix
stored complex with no imaginary part (the Laplacian of a real potential) is
checked and solved in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedCyclicGraph, _check_vertex_count

__all__ = [
    "Spectrum",
    "eig_selfadjoint",
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
    asym = float(np.linalg.norm(A - A.conj().T))
    if asym > _HERMITIAN_TOL * norm:
        raise ValueError(
            f"matrix is not self-adjoint: ||M - M^dagger|| = {asym:.3e} "
            f"exceeds {_HERMITIAN_TOL:g} * ||M|| = {_HERMITIAN_TOL * norm:.3e}"
        )
    A = (A + A.conj().T) / 2.0
    if not A.imag.any():
        A = np.ascontiguousarray(A.real)
    if not want_vectors:
        return Spectrum(np.linalg.eigvalsh(A))
    eigenvalues, V = np.linalg.eigh(A)
    residual = float(np.max(np.abs(A @ V - V * eigenvalues), initial=0.0))
    return Spectrum(eigenvalues, V, residual)


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
