"""Property tests on random graphs: the offset-indexed graph, the array-backed
potential, its assembly and closed forms, and the cut-cycle distances, each
against a reference written out here edge by edge."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from kahleredge import connection, dirac, graphs
from kahleredge.connection import PotentialCoefficients
from kahleredge.graphs import DirectedCyclicGraph, EdgeFunction
from kahleredge.operators import adjoint

EMPTY = DirectedCyclicGraph(4, [])
LOOPS_AND_SINKS = DirectedCyclicGraph(5, [(0, 0), (0, 3), (1, 2), (1, 1), (3, 4), (3, 0)])

# any edge set on 3..8 vertices: self-loops, vertices without an outgoing
# edge and the empty edge set all occur
graphs_st = st.integers(3, 8).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n)
    .map(lambda edges: DirectedCyclicGraph(n, edges))
)
seeds = st.integers(0, 2**32 - 1)


def reference_keys(g):
    """The valid keys by the double loop over edge pairs."""
    return [
        (mu, nu, nup)
        for mu, nu in g.edges
        for mu2, nup in g.edges
        if mu2 == (mu - 1) % g.n
    ]


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_offsets_index_the_out_edges(g):
    assert g.offsets.shape == (g.n + 1,)
    for mu in range(g.n):
        assert g.edges_from(mu) == [i for i in range(g.num_edges) if g.source(i) == mu]
        assert g.out_degree(mu) == sum(u == mu for u, _ in g.edges)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_format_parse_round_trip(g):
    assert graphs.parse_graph(graphs.format_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_keys_and_random_draws_match_the_double_loop(g, seed):
    keys = reference_keys(g)
    assert [tuple(key) for key in PotentialCoefficients.valid_keys(g).tolist()] == keys
    rng = np.random.default_rng(seed)
    c = PotentialCoefficients.random(g, rng)
    ref = np.random.default_rng(seed)
    values = ref.standard_normal(len(keys)) + 1j * ref.standard_normal(len(keys))
    assert [c.get(*key) for key in keys] == values.tolist()
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_zeta_matches_the_triples(g, seed):
    c = PotentialCoefficients.random(g, np.random.default_rng(seed))
    m = g.num_edges
    ref = np.zeros((m, m), dtype=complex)
    for mu, nu, nup in reference_keys(g):
        ref[g.edge_index((mu - 1) % g.n, nup), g.edge_index(mu, nu)] = c.get(mu, nu, nup)
    assert np.array_equal(connection.zeta_operator(g, c).matrix, ref)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_closed_forms_match_the_conjugate_transpose_route(g, seed):
    c = PotentialCoefficients.random(g, np.random.default_rng(seed))
    m = g.num_edges
    zeta = connection.zeta_operator(g, c).matrix
    zeta_dagger = adjoint(connection.zeta_operator(g, c)).matrix
    assert np.max(np.abs(connection.zeta_dagger_closed_form(g, c).matrix - zeta_dagger),
                  initial=0.0) <= 1e-12
    blocks = connection.composite_blocks(g, c)
    routes = {
        "nabla0_dagger_nabla0": np.eye(m),
        "nabla0_dagger_zeta": zeta,
        "zeta_dagger_nabla0": zeta_dagger,
        "zeta_dagger_zeta": zeta_dagger @ zeta,
    }
    for name, route in routes.items():
        assert np.max(np.abs(blocks[name].matrix - route), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_integer_unit_laplacian_is_exact(g):
    lap = connection.laplacian(g, PotentialCoefficients.unit(g)).matrix
    assert np.array_equal(connection.laplacian_unit_int(g), lap)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_matrix_free_unit_action_matches_the_matrix(g, seed):
    lap = connection.laplacian(g, PotentialCoefficients.unit(g)).matrix
    rng = np.random.default_rng(seed)
    f = EdgeFunction(g, rng.standard_normal(g.num_edges) + 1j * rng.standard_normal(g.num_edges))
    direct = connection.apply_laplacian_unit(g, f).values
    assert np.max(np.abs(direct - lap @ f.values), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_distances_are_shortest_paths_on_the_segments(g):
    lam = np.array([mu for mu in range(g.n) if g.out_degree(mu) >= 1], dtype=int)
    segments = csr_matrix((np.ones(len(lam)), (lam, (lam + 1) % g.n)), shape=(g.n, g.n))
    ref = shortest_path(segments, directed=False, unweighted=True)
    assert np.array_equal(dirac.all_pairs_distances(g), ref)
    with mock.patch.object(dirac, "ROW_BLOCK", 3):  # several row blocks
        assert np.array_equal(dirac.all_pairs_distances(g), ref)
    for mu in range(g.n):
        for nu in range(g.n):
            assert dirac.connes_distance(g, mu, nu).value == ref[mu, nu]
