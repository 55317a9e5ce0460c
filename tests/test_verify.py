"""The self-check battery: its random inputs, its distance-axiom check and its
projector check."""

import warnings

import numpy as np
import pytest

from kahleredge import graphs, verify
from kahleredge.graphs import DirectedCyclicGraph


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_polygon_checks_draw_1100n_normals(n):
    # Leibniz 20 pairs (80n) + kappa-central 10 (20n) + metric 60 form pairs
    # (960n) + tau 20 (40n): the later suites see the same generator state
    rng = np.random.default_rng(n)
    verify.polygon_checks(n, rng)
    fresh = np.random.default_rng(n)
    fresh.standard_normal(1100 * n)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_metric_axioms_catch_asymmetry_next_to_inf(monkeypatch):
    # vertex 4 has no outgoing edge; the patched distances put the components
    # {0, 1, 2} and {3, 4} at infinite distance and break symmetry on (0, 1)
    # while keeping the triangle inequality
    g = DirectedCyclicGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    dmat = np.full((5, 5), np.inf)
    dmat[:3, :3] = 1.0
    dmat[3:, 3:] = 1.0
    np.fill_diagonal(dmat, 0.0)
    dmat[0, 1] = 1.5
    monkeypatch.setattr(verify, "all_pairs_distances", lambda graph: dmat)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = verify.distance_checks(g, np.random.default_rng(0))
    (axioms,) = [r for r in results if r.name.startswith("metric-axioms")]
    assert axioms.residual == pytest.approx(0.5)
    assert not axioms.passed

    # a finite entry facing an infinite one fails as well
    dmat[0, 1] = 1.0
    dmat[3, 0] = 1.0
    results = verify.distance_checks(g, np.random.default_rng(0))
    (axioms,) = [r for r in results if r.name.startswith("metric-axioms")]
    assert not axioms.passed


@pytest.mark.parametrize("entry, value", [((0, 1), 1e-9), ((2, 2), 2.0)],
                         ids=["off-diagonal", "diagonal"])
def test_projector_check_catches_a_stray_entry(monkeypatch, entry, value):
    # a stray entry off the diagonal, or a 2 on it, is not an idempotent
    g = DirectedCyclicGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    proj = graphs.complete_graph_projector(g)
    proj[entry] = value
    monkeypatch.setattr(graphs, "complete_graph_projector", lambda graph: proj.copy())
    results = verify.edge_module_checks(g, np.random.default_rng(0))
    (check,) = [r for r in results if r.name.startswith("projector-idempotent")]
    assert check.residual == pytest.approx(value)
    assert not check.passed
