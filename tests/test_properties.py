"""Property tests on random graphs: the offset-indexed graph, its edge and
key lookups, the array-backed potential, its assembly and closed forms, and
the cut-cycle distances, each against a reference written out here edge by
edge; the numeric distance bracket against the exact distances, and the
norm bound it certifies with against the SVD of the whole commutator; the
Laplacian against the dense product dbar^dagger dbar, and its and the Dirac
operator's structure; the matrix-free Laplacian against the assembled one,
on stacks, and the key index it reads; the inner product on stacked
vectors of the Hilbert space; the graph suites of `verify` on
every graph; and the CLI's number format."""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from kahleredge import cli, connection, dirac, graphs, spectra, verify
from kahleredge.connection import PotentialCoefficients
from kahleredge.graphs import DirectedCyclicGraph, EdgeFunction
from kahleredge.polygon import VertexFunction

EMPTY = DirectedCyclicGraph(4, [])
LOOPS_AND_SINKS = DirectedCyclicGraph(5, [(0, 0), (0, 3), (1, 2), (1, 1), (3, 4), (3, 0)])
# vertex 4 alone has no out-edge: one cut, so one arc of all 7 vertices
ONE_CUT = DirectedCyclicGraph(7, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (5, 1), (6, 0)])
# two adjacent hubs, 0 and 1, each with an edge to every other vertex, on the
# 6-gon: blocks C_mu of shapes 5 x 1, 5 x 5, 1 x 5 and 1 x 1
HUBS = DirectedCyclicGraph(6, [(u, v) for u in (0, 1) for v in range(6) if v != u]
                           + [(mu, (mu + 1) % 6) for mu in range(2, 6)])

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
        assert list(range(g.offsets[mu], g.offsets[mu + 1])) == [
            i for i in range(g.num_edges) if g.source(i) == mu]
        assert g.out_degree(mu) == sum(u == mu for u, _ in g.edges)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_lookups_agree_with_the_edge_set(g):
    n, index = g.n, {e: i for i, e in enumerate(sorted(set(g.edges)))}
    pairs = list(itertools.product(range(-1, n + 1), repeat=2))
    # out-of-range pairs whose key u*n + v is the key of an edge: (u, v + n)
    # that of (u + 1, v), and (u + 1, v - n) that of (u, v)
    pairs += [(u, v + s * n) for u, v in itertools.product(range(n), repeat=2) for s in (-1, 1)]
    pairs += [(u + s, v - s * n) for u, v in itertools.product(range(n), repeat=2) for s in (-1, 1)]
    want = [index.get(pair, -1) for pair in pairs]
    u, v = np.array(pairs).T
    assert g.find_edges(u, v).tolist() == want
    for (u, v), i in zip(pairs, want):
        assert g.has_edge(u, v) == (i >= 0)
        if i >= 0:
            assert g.edge_index(u, v) == i
        else:
            with pytest.raises(KeyError):
                g.edge_index(u, v)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_positions_agree_with_the_keys(g):
    keys = reference_keys(g)
    triples = list(itertools.product(range(-1, g.n + 1), repeat=3))
    want = [keys.index(t) if t in keys else -1 for t in triples]
    assert PotentialCoefficients(g).positions(*np.array(triples).T).tolist() == want


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
def test_parsed_potential_matches_the_keys(g, seed):
    rng = np.random.default_rng(seed)
    c = PotentialCoefficients.random(g, rng)
    keys = reference_keys(g)
    lines = [f"{mu} {nu} {nup} {c.get(mu, nu, nup).real!r} {c.get(mu, nu, nup).imag!r}"
             for mu, nu, nup in keys]
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    assert np.array_equal(connection.parse_potential("\n".join(shuffled), g).values, c.values)
    for triple in itertools.product(range(-1, g.n + 1), repeat=3):
        line = "%d %d %d 1.0 0.0" % triple
        if triple in keys:
            with pytest.raises(graphs.GraphFormatError, match=r"line 2: duplicate"):
                connection.parse_potential(line + "\n" + line, g)
        else:
            with pytest.raises(graphs.GraphFormatError, match=r"line 1: invalid"):
                connection.parse_potential(line, g)


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
    assert np.array_equal(connection.zeta_operator(g, c), ref)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_closed_forms_match_the_conjugate_transpose_route(g, seed):
    c = PotentialCoefficients.random(g, np.random.default_rng(seed))
    m = g.num_edges
    zeta = connection.zeta_operator(g, c)
    zeta_dagger = zeta.conj().T
    assert np.max(np.abs(connection.zeta_dagger_closed_form(g, c) - zeta_dagger),
                  initial=0.0) <= 1e-12
    blocks = connection.composite_blocks(g, c)
    routes = {
        "nabla0_dagger_nabla0": np.eye(m),
        "nabla0_dagger_zeta": zeta,
        "zeta_dagger_nabla0": zeta_dagger,
        "zeta_dagger_zeta": zeta_dagger @ zeta,
    }
    for name, route in routes.items():
        assert np.max(np.abs(blocks[name] - route), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
@example(g=HUBS, seed=2)
def test_laplacian_is_the_dense_product(g, seed):
    for c, exact in ((PotentialCoefficients.random(g, np.random.default_rng(seed)), False),
                     (PotentialCoefficients.unit(g), True), (PotentialCoefficients.zero(g), True)):
        d = connection.dbar(g, c)
        ref = d.conj().T @ d
        lap = connection.laplacian(g, c)
        assert lap.shape == ref.shape and lap.dtype == ref.dtype
        if exact:  # bit for bit, the signs of zeros included
            assert np.array_equal(lap.view(np.int64), ref.view(np.int64))
        else:
            tol = 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))
            assert np.max(np.abs(lap - ref), initial=0.0) <= tol


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_integer_unit_laplacian_is_exact(g):
    lap = connection.laplacian(g, PotentialCoefficients.unit(g))
    assert np.array_equal(connection.laplacian_unit_int(g), lap)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_matrix_free_unit_action_matches_the_matrix(g, seed):
    unit = PotentialCoefficients.unit(g)
    lap = connection.laplacian(g, unit)
    rng = np.random.default_rng(seed)
    f = EdgeFunction(g, rng.standard_normal(g.num_edges) + 1j * rng.standard_normal(g.num_edges))
    direct = connection.apply_laplacian(g, unit, f).values
    assert np.max(np.abs(direct - lap @ f.values), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, shape=st.lists(st.integers(0, 3), max_size=2).map(tuple), seed=seeds)
@example(g=EMPTY, shape=(2, 3), seed=0)
@example(g=LOOPS_AND_SINKS, shape=(3,), seed=1)
@example(g=HUBS, shape=(), seed=2)
@example(g=HUBS, shape=(2, 2), seed=3)
def test_matrix_free_action_matches_the_matrix(g, shape, seed):
    # every potential, batch shapes (), (k,) and (k, l): each sample of the
    # stack is the assembled Laplacian times that sample
    rng = np.random.default_rng(seed)
    m = g.num_edges
    f = EdgeFunction(g, rng.standard_normal((*shape, m)) + 1j * rng.standard_normal((*shape, m)))
    for c in (PotentialCoefficients.random(g, rng), PotentialCoefficients.unit(g),
              PotentialCoefficients.zero(g)):
        lap = connection.laplacian(g, c)
        direct = connection.apply_laplacian(g, c, f).values
        assert direct.shape == (*shape, m)
        tol = (1e-12 * max(1.0, np.abs(lap).max(initial=0.0))
               * max(1.0, np.abs(f.values).max(initial=0.0)))
        assert np.max(np.abs(direct - f.values @ lap.T), initial=0.0) <= tol


def test_matrix_free_action_rejects_a_foreign_graph():
    g, other = LOOPS_AND_SINKS, HUBS
    f = EdgeFunction(g, np.ones(g.num_edges))
    with pytest.raises(ValueError, match="potential defined on a different graph"):
        connection.apply_laplacian(g, PotentialCoefficients.unit(other), f)
    with pytest.raises(ValueError, match="edge function lives on a different graph"):
        connection.apply_laplacian(g, PotentialCoefficients.unit(g),
                                   EdgeFunction(other, np.ones(other.num_edges)))


def test_edge_pairs_are_read_only_and_built_once_per_graph(monkeypatch):
    builds = []
    cached = DirectedCyclicGraph.__dict__["edge_pairs"]
    build = cached.func

    def counted(graph):
        builds.append(graph)
        return build(graph)

    monkeypatch.setattr(cached, "func", counted)
    g = spectra.make_circulant_regular(16, 4)
    unit = PotentialCoefficients.unit(g)
    for c in PotentialCoefficients.random(g, np.random.default_rng(0)), unit:
        dirac.distance_bracket(g, c)  # 16 norm bounds, one per column
    assert len(builds) == 1 and builds[0] is g
    for index in g.edge_pairs:
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, shape=st.lists(st.integers(0, 3), max_size=2).map(tuple), seed=seeds)
@example(g=EMPTY, shape=(2, 3), seed=0)
@example(g=LOOPS_AND_SINKS, shape=(3,), seed=1)
@example(g=LOOPS_AND_SINKS, shape=(), seed=2)
def test_stacked_edge_functions_match_the_single_ones(g, shape, seed):
    # batch shapes (), (k,) and (k, l): the stacked pairing, left action and
    # dual functionals equal the per-sample results exactly
    m = g.num_edges
    rng = np.random.default_rng(seed)
    xs, ys = rng.standard_normal((2, *shape, m)) + 1j * rng.standard_normal((2, *shape, m))
    fs = rng.standard_normal((*shape, g.n)) + 1j * rng.standard_normal((*shape, g.n))
    x, y, f = EdgeFunction(g, xs), EdgeFunction(g, ys), VertexFunction(g.n, fs)
    pairing = graphs.hermitian_pairing(x, y).values
    action = graphs.left_action(f, x).values
    duals = [graphs.apply_dual(g, e, x).values for e in g.edges]
    assert pairing.shape == (*shape, g.n) and action.shape == (*shape, m)
    for i in np.ndindex(shape):
        xi, yi = EdgeFunction(g, xs[i]), EdgeFunction(g, ys[i])
        assert np.array_equal(pairing[i], graphs.hermitian_pairing(xi, yi).values)
        assert np.array_equal(action[i], graphs.left_action(VertexFunction(g.n, fs[i]), xi).values)
        for e, dual in zip(g.edges, duals):
            assert np.array_equal(dual[i], graphs.apply_dual(g, e, xi).values)
    # a wrong last axis, or no axis at all, is still rejected
    with pytest.raises(ValueError, match="last axis of length"):
        EdgeFunction(g, np.zeros((*shape, m + 1)))
    with pytest.raises(ValueError, match="last axis of length"):
        EdgeFunction(g, 0.0)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, shape=st.lists(st.integers(0, 3), max_size=2).map(tuple), seed=seeds)
@example(g=EMPTY, shape=(2, 3), seed=0)
@example(g=LOOPS_AND_SINKS, shape=(3,), seed=1)
@example(g=HUBS, shape=(), seed=2)
@example(g=HUBS, shape=(2, 3), seed=3)
def test_stacked_inner_products_match_the_single_ones(g, shape, seed):
    # vectors of the Hilbert space are plain (..., 2m) arrays; batch shapes
    # (), (k,) and (k, l): the stacked inner product equals the per-pair one
    # exactly, and it is sesquilinear
    dim = 2 * g.num_edges
    rng = np.random.default_rng(seed)
    us, vs, ws = rng.standard_normal((3, *shape, dim)) + 1j * rng.standard_normal((3, *shape, dim))
    z, v = complex(*rng.standard_normal(2)), rng.standard_normal(dim) + 0j
    got = graphs.inner_product(g, us, vs)
    assert np.shape(got) == shape and isinstance(got, complex) == (shape == ())
    for i in np.ndindex(shape):
        single = graphs.inner_product(g, us[i], vs[i])
        assert isinstance(single, complex) and single == np.asarray(got)[i]
    # a single vector broadcasts against a stack
    assert np.array_equal(graphs.inner_product(g, us, v),
                          graphs.inner_product(g, us, np.broadcast_to(v, us.shape)))
    tol = 1e-12 * (1 + dim)
    assert np.allclose(graphs.inner_product(g, z * us + ws, vs),
                       z * got + graphs.inner_product(g, ws, vs), rtol=0, atol=tol)
    assert np.allclose(graphs.inner_product(g, us, z * vs + ws),
                       np.conj(z) * got + graphs.inner_product(g, us, ws), rtol=0, atol=tol)
    # the basis is one vector per row, and its Gram matrix is the identity
    basis = graphs.orthonormal_basis(g)
    gram = graphs.inner_product(g, basis[:, None], basis[None, :])
    assert basis.shape == gram.shape == (dim, dim)
    assert np.max(np.abs(gram - np.eye(dim)), initial=0.0) <= 1e-12
    # a last axis of any other length, or none at all, is rejected
    for bad in ([dim - 1] if dim else []) + [dim + 1]:
        with pytest.raises(ValueError, match="last axis of length"):
            graphs.inner_product(g, np.zeros((*shape, bad)), vs)
        with pytest.raises(ValueError, match="last axis of length"):
            graphs.inner_product(g, us, np.zeros(bad))
    with pytest.raises(ValueError, match="last axis of length"):
        graphs.inner_product(g, 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_distances_are_shortest_paths_on_the_segments(g):
    lam = np.array([mu for mu in range(g.n) if g.out_degree(mu) >= 1], dtype=int)
    segments = csr_matrix((np.ones(len(lam)), (lam, (lam + 1) % g.n)), shape=(g.n, g.n))
    ref = shortest_path(segments, directed=False, unweighted=True)
    assert np.array_equal(dirac.all_pairs_distances(g), ref)
    for mu in range(g.n):
        for nu in range(g.n):
            assert dirac.connes_distance(g, mu, nu).value == ref[mu, nu]


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
@example(g=spectra.make_circulant_regular(8, 2), seed=2)  # no cut: one rotated program
@example(g=ONE_CUT, seed=3)  # one arc of all n vertices
def test_numeric_bracket_holds_the_exact_distances(g, seed):
    exact = dirac.all_pairs_distances(g)
    c = PotentialCoefficients.random(g, np.random.default_rng(seed))
    lower, upper = dirac.distance_bracket(g, c)
    assert np.array_equal(upper, exact)
    assert np.all(lower <= exact) and np.all(exact <= upper)
    assert np.array_equal(np.isinf(lower), np.isinf(exact))
    finite = np.isfinite(exact)
    assert np.max(np.abs(lower[finite] - exact[finite]), initial=0.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_laplacian_is_positive_semidefinite(g, seed):
    c = PotentialCoefficients.random(g, np.random.default_rng(seed))
    eigs = np.linalg.eigvalsh(connection.laplacian(g, c))
    norm = np.abs(eigs).max(initial=0.0)
    assert eigs.min(initial=0.0) >= -1e-9 * max(1.0, norm)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_dirac_square_is_block_diagonal_with_the_laplacian_on_top(g, seed):
    c = PotentialCoefficients.random(g, np.random.default_rng(seed))
    m = g.num_edges
    d = dirac.dirac_operator(g, c)
    square = d @ d
    lap = connection.laplacian(g, c)
    tol = 1e-12 * max(1.0, np.linalg.norm(lap))
    assert np.max(np.abs(square[:m, :m] - lap), initial=0.0) <= tol
    assert np.max(np.abs(square[:m, m:]), initial=0.0) <= tol
    assert np.max(np.abs(square[m:, :m]), initial=0.0) <= tol


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_bracket_norm_bound_is_the_norm_of_the_commutator(g, seed):
    rng = np.random.default_rng(seed)
    c = PotentialCoefficients.random(g, rng)
    f = rng.standard_normal(g.n)
    norm = dirac.operator_norm(dirac.commutator_with_function(
        dirac.dirac_operator(g, c), VertexFunction(g.n, f), g))
    bound = dirac._norm_bound(g, c, f)
    assert norm <= bound <= norm + 1e-12 * max(1.0, norm)


@settings(max_examples=40, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_graph_checks_of_verify_pass_on_every_graph(g, seed):
    rng = np.random.default_rng(seed)
    results = [*verify.edge_module_checks(g, rng), *verify.connection_checks(g, rng),
               *verify.distance_checks(g, rng)]
    assert [(r.name, r.residual) for r in results if not r.passed] == []


# every float the CLI prints except -inf and nan, which it never prints
printed_floats = st.floats(allow_nan=False, allow_infinity=False) | st.just(math.inf)
SPECIAL = np.array([[0.0, -0.0, 5e-324], [-2.2250738585072014e-308, 1e308, -1e308],
                    [math.inf, 0.1, -1.0000000298023224]])


@settings(max_examples=200, deadline=None)
@given(mat=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  elements=printed_floats))
@example(mat=SPECIAL)
def test_printed_rows_parse_back_to_the_same_floats(mat):
    csv = [[float(v) for v in line.split(",")] for line in "".join(cli._blocks(mat)).splitlines()]
    assert np.array(csv).tobytes() == mat.tobytes()  # bitwise: keeps the sign of 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_json('"n":0', {"m": mat})
    rows = json.loads(out.getvalue(), parse_int=float)["m"]
    parsed = [[float(v) for v in row] for row in rows]  # "inf" is a string
    assert np.array(parsed).tobytes() == mat.tobytes()


def reference_rows(mat, json=False):
    """The rows as the per-cell reference format: 17 significant digits per
    entry, "inf" quoted in JSON."""
    cell = lambda x: '"inf"' if json and x == math.inf else "%.17g" % x
    return [",".join(cell(x) for x in row) for row in mat.tolist()]


def reference_text(mat, json=False):
    return "".join(row + "\n" for row in reference_rows(mat, json))


# values that repeat across row blocks, with the sign of zero and the
# extremes of the 17-digit format among them
POOL = [0.0, -0.0, math.inf, 5e-324, 1e16, 1e17]


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 600), cols=st.integers(0, 4), seed=seeds)
@example(rows=cli.ROW_BLOCK, cols=2, seed=0)
@example(rows=cli.ROW_BLOCK + 1, cols=3, seed=1)
@example(rows=2 * cli.ROW_BLOCK + 1, cols=1, seed=2)
def test_printed_rows_match_the_per_cell_format(rows, cols, seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([POOL, rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)])
    lap = np.empty((rows, cols), dtype=complex)  # 1j * inf would put nan in .real
    lap.real, lap.imag = rng.choice(pool, (2, rows, cols))
    # contiguous, strided, interleaved and transposed views
    for mat in (lap.real.copy(), lap.real, lap.imag, lap.view(float), lap.imag.T):
        assert "".join(cli._blocks(mat)) == reference_text(mat)
        assert "".join(cli._blocks(mat, json=True)) == reference_text(mat, json=True)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(0, 600), cols=st.integers(0, 4), seed=seeds)
@example(rows=0, cols=2, seed=0)
@example(rows=cli.ROW_BLOCK + 1, cols=0, seed=1)
@example(rows=2 * cli.ROW_BLOCK + 1, cols=1, seed=2)
def test_printed_json_matches_the_per_cell_format(rows, cols, seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([POOL, rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)])
    mats = dict(zip("ab", rng.choice(pool, (2, rows, cols))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_json('"n":0', mats)
    assert out.getvalue() == '{"n":0%s}\n' % "".join(
        ',"%s":[%s]' % (name, ",".join("[" + row + "]" for row in reference_rows(mat, json=True)))
        for name, mat in mats.items())
