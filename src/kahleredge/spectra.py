"""Self-adjoint eigensolver and closed-form spectral results.

The solver is the LAPACK (via numpy) self-adjoint eigensolver, behind checks
that reject non-square, non-finite and non-self-adjoint input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedCyclicGraph
from .operators import DenseOperator

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


def _matrix(M) -> np.ndarray:
    if isinstance(M, DenseOperator):
        return np.array(M.matrix, dtype=complex)
    return np.array(M, dtype=complex)


def eig_selfadjoint(M, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a self-adjoint matrix via LAPACK (numpy ``eigh``).

    Rejects non-finite entries, and matrices whose asymmetry exceeds 1e-9
    relative to their norm, reporting the measured asymmetry.  Real symmetric
    input is solved in real arithmetic and gives real eigenvectors.
    """
    A = _matrix(M)
    m, mc = A.shape
    if m != mc:
        raise ValueError(f"matrix must be square, got {A.shape}")
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
    A = _matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if A.shape[0] == 0:
        return 0.0
    absA = np.abs(A)
    diag = np.diag(absA)
    return float(np.max(diag + (absA.sum(axis=1) - diag)))


def make_circulant_regular(n: int, d: int) -> DirectedCyclicGraph:
    """Circulant graph with edges mu -> mu+1, ..., mu -> mu+d for every mu."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d} for n={n}")
    edges = [(mu, (mu + k) % n) for mu in range(n) for k in range(1, d + 1)]
    return DirectedCyclicGraph(n, edges)
