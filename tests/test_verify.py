"""The self-check battery: its random inputs, the names and order of its
checks, its wedge-associativity, distance-axiom and projector checks."""

import warnings

import numpy as np
import pytest

from kahleredge import graphs, verify
from kahleredge.graphs import DirectedCyclicGraph
from kahleredge.polygon import Calculus

POLYGON_SUITE = """
    star-graded-antihomomorphism star-involution J-derivation J-squared J-star-compatible
    d-of-unit leibniz kappa-real kappa-central lefschetz-rank hodge-star-squared
    hodge-consistency metric-positive metric-conjugate-symmetric tau-faithful""".split()
GRAPH_SUITE = """
    hermitian-positive hermitian-symmetric dual-basis-identity projector-idempotent onb-gram
    laplacian-composite zeta-dagger-closed-form adjoint-inner-product laplacian-psd
    unit-action-agreement dirac-squared-block commutator-potential-free
    commutator-norm-formula unit-distance diameter-bound metric-axioms
    numeric-oracle-agreement""".split()
SPECTRAL_SUITE = [
    "regulargon-closed-form[n<=64]", "kernel-parity[n<=64]", "alternating-kernel[n<=64]",
    "regular-gershgorin-top", "regular-top-eigenvector", "regular-row-col-sums",
    "trace-conservation",
]


def bidirected_8gon_with_loop():
    n = 8
    edges = [(mu, (mu + 1) % n) for mu in range(n)] + [(mu, (mu - 1) % n) for mu in range(n)]
    return DirectedCyclicGraph(n, edges + [(3, 3)])


def test_run_checks_names_in_order():
    # each polygon block opens with associativity on the min(n, 6)-gon; the
    # graph with a self-loop has no projector check
    want = []
    for n in (3, 4, 5, 8, 12):
        want.append(f"wedge-associativity[n={min(n, 6)}]")
        want += [f"{name}[n={n}]" for name in POLYGON_SUITE]
    for tag, loop in (("|V|=8,|E|=17", True), ("|V|=5,|E|=5", False), ("|V|=4,|E|=8", False)):
        want += [f"{name}[{tag}]" for name in GRAPH_SUITE
                 if not (loop and name == "projector-idempotent")]
    want += SPECTRAL_SUITE
    got = [r.name for r in verify.run_checks(bidirected_8gon_with_loop(), seed=1)]
    assert len(got) == 137
    assert got == want


def test_non_associative_wedge_fails_in_every_polygon_block(monkeypatch):
    # w(a, b) = a ^ b + a: w(w(a, b), c) - w(a, w(b, c)) = a ^ c
    wedge = Calculus.wedge
    monkeypatch.setattr(Calculus, "wedge", lambda self, a, b: wedge(self, a, b) + a)
    results = [r for r in verify.run_checks() if r.name.startswith("wedge-associativity")]
    assert [r.name for r in results] == [f"wedge-associativity[n={m}]" for m in (3, 4, 5, 6, 6)]
    assert not any(r.passed for r in results)


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
    # a stray entry off the diagonal, or a 2 on it, is not an idempotent; the
    # sparse diagonal array takes no entry off its diagonals, so the stray is
    # written into a copy in a format that does
    g = DirectedCyclicGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    proj = graphs.complete_graph_projector(g).tolil()
    proj[entry] = value
    monkeypatch.setattr(graphs, "complete_graph_projector", lambda graph: proj.copy())
    results = verify.edge_module_checks(g, np.random.default_rng(0))
    (check,) = [r for r in results if r.name.startswith("projector-idempotent")]
    assert check.residual == pytest.approx(value)
    assert not check.passed
