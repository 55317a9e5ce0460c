"""Dense complex matrices tagged with the space they act between.

The tags identify the edge-function block L2(E) (TOP), the twisted one-form
block (BOTTOM) and their direct sum (FULL).  Operators on other spaces (such
as the complete-graph edge space) carry no tag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["Space", "DenseOperator", "adjoint"]


class Space(enum.Enum):
    TOP = "top"
    BOTTOM = "bottom"
    FULL = "full"


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """An immutable dense complex matrix with optional domain/codomain tags."""

    matrix: np.ndarray
    domain: Space | None = None
    codomain: Space | None = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"operator matrix must be 2-dimensional, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=complex)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} != {other.rows}")
        if self.domain is not None and other.codomain is not None and self.domain != other.codomain:
            raise ValueError(f"space mismatch: {other.codomain} feeds {self.domain}")
        return DenseOperator(self.matrix @ other.matrix, other.domain, self.codomain)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        if self.matrix.shape != other.matrix.shape:
            raise ValueError("shape mismatch in operator sum")
        return DenseOperator(self.matrix + other.matrix, self.domain or other.domain,
                             self.codomain or other.codomain)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        if self.matrix.shape != other.matrix.shape:
            raise ValueError("shape mismatch in operator difference")
        return DenseOperator(self.matrix - other.matrix, self.domain or other.domain,
                             self.codomain or other.codomain)


def adjoint(op: DenseOperator) -> DenseOperator:
    """Conjugate transpose; valid as the Hilbert adjoint because both blocks
    carry the same uniform 1/n weight, so the basis Gram matrix is a multiple
    of the identity.  Domain and codomain tags swap."""
    return DenseOperator(np.conj(op.matrix.T), op.codomain, op.domain)
