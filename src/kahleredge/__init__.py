"""Kahler calculus on the bidirected polygon, twisted edge Laplacians and
Connes-style vertex distances on finite directed graphs."""

from .connection import (
    PotentialCoefficients,
    apply_laplacian,
    dbar,
    laplacian,
    parse_potential,
    zeta_operator,
)
from .dirac import (
    DistanceResult,
    commutator_with_function,
    connes_distance,
    dirac_operator,
    distance_bracket,
    operator_norm,
)
from .graphs import (
    DirectedCyclicGraph,
    GraphFormatError,
    complete_graph_projector,
    hermitian_pairing,
    inner_product,
    left_action,
    orthonormal_basis,
    parse_graph,
)
from .polygon import Calculus
from .spectra import (
    Spectrum,
    circulant_spectrum,
    eig_selfadjoint,
    gershgorin_radius,
    laplacian_spectrum,
    make_circulant_regular,
    ngon_closed_form,
)

__all__ = [
    "Calculus",
    "DirectedCyclicGraph",
    "GraphFormatError",
    "parse_graph",
    "left_action",
    "hermitian_pairing",
    "complete_graph_projector",
    "inner_product",
    "orthonormal_basis",
    "PotentialCoefficients",
    "parse_potential",
    "zeta_operator",
    "dbar",
    "laplacian",
    "apply_laplacian",
    "Spectrum",
    "eig_selfadjoint",
    "laplacian_spectrum",
    "circulant_spectrum",
    "ngon_closed_form",
    "gershgorin_radius",
    "make_circulant_regular",
    "dirac_operator",
    "commutator_with_function",
    "operator_norm",
    "connes_distance",
    "distance_bracket",
    "DistanceResult",
]

__version__ = "0.1.0"
