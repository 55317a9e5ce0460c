"""Property tests on random graphs: the offset-indexed graph, its edge and key
lookups, the array-backed potential, its assembly and closed forms, and the
cut-cycle distances, each against a reference written out here edge by edge;
the numeric distance bracket against the exact distances, its one scale
against the certificates of its columns, and the largest vertex step it
certifies with against the SVD of the whole commutator; the Laplacian
against the dense product dbar^dagger dbar, and its and the Dirac operator's
structure; the Fourier route to the spectrum of a circulant against the
dense solve, and the spectrum that picks the route against both; the
matrix-free Laplacian against the assembled one, on stacks, and the key
index it reads; the inner product on stacked vectors of the Hilbert space;
the graph suites of `verify` on every graph; the arcs of a graph against a
walk from cut to cut; and the CLI's number format, the vector writer of
`spectrum`, the distance writer that reads the arcs and the Laplacian
writer that reads the out-edge ranges among it."""

import contextlib
import io
import itertools
import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from kahleredge import cli, connection, dirac, graphs, spectra, verify
from kahleredge.graphs import DirectedCyclicGraph

from conftest import random_potential, unit_potential

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
    # float aliases: the key (u + 1/2)*n + v - n/2 of (u + 1/2, v - n/2) is
    # that of (u, v), but no float names a vertex; an empty float array is fine
    fu, fv = (np.array(pairs) + [0.5, -n / 2]).T
    with pytest.raises(ValueError, match="integers"):
        g.find_edges(fu, fv)
    for a, b in zip(fu.tolist(), fv.tolist()):
        for lookup in (g.has_edge, g.edge_index):
            with pytest.raises(ValueError, match="integers"):
                lookup(a, b)
    assert g.find_edges(np.asarray([]), np.asarray([])).tolist() == []


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
def test_positions_agree_with_the_keys(g):
    keys = reference_keys(g)
    triples = list(itertools.product(range(-1, g.n + 1), repeat=3))
    want = [keys.index(t) if t in keys else -1 for t in triples]
    assert connection._key_positions(g, *np.array(triples).T).tolist() == want


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
    assert [tuple(key) for key in connection.valid_keys(g).tolist()] == keys
    assert connection.potential(g).shape == (len(keys),)
    # verify's draw of a random potential: the real parts, then the imaginary ones
    rng = np.random.default_rng(seed)
    c = verify._complex_normal(rng, (len(keys),))
    ref = np.random.default_rng(seed)
    values = ref.standard_normal(len(keys)) + 1j * ref.standard_normal(len(keys))
    assert c.tobytes() == values.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_parsed_potential_matches_the_keys(g, seed):
    rng = np.random.default_rng(seed)
    c = random_potential(g, rng)
    keys = reference_keys(g)
    lines = [f"{mu} {nu} {nup} {v.real!r} {v.imag!r}" for (mu, nu, nup), v in zip(keys, c.tolist())]
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    assert np.array_equal(connection.parse_potential("\n".join(shuffled), g), c)
    for triple in itertools.product(range(-1, g.n + 1), repeat=3):
        line = "%d %d %d 1.0 0.0" % triple
        if triple in keys:
            with pytest.raises(graphs.GraphFormatError, match=r"line 2: duplicate"):
                connection.parse_potential(line + "\n" + line, g)
        else:
            with pytest.raises(graphs.GraphFormatError, match=r"line 1: invalid"):
                connection.parse_potential(line, g)


# Hostile text for the readers: the whitespace `str.split` splits on and the
# line breaks of `str.splitlines` beyond " \t\n", NUL, spellings that only
# int() and float() take, and the non-finite floats.
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
hostile = st.lists(st.sampled_from(list("0123456789+-._e#\x00") + SPACES + BREAKS
                                   + ["١", "inf", "nan"]), max_size=8).map("".join)


def mostly(common, rare=hostile, one_in=10):
    """`common`, or `rare` one time in `one_in`."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == 1 else common)


def hostile_texts(*fields):
    """Texts of up to six lines, each of the given fields behind whitespace
    (now and then a line break) with an optional comment, or hostile text;
    each line ends in one of the line breaks."""
    gaps = st.lists(mostly(st.sampled_from(SPACES), st.sampled_from(BREAKS), one_in=20),
                    min_size=len(fields), max_size=len(fields))
    line = st.tuples(st.tuples(*(mostly(field, one_in=20) for field in fields)), gaps,
                     st.sampled_from(["", " # 0 1", "#"]), st.sampled_from(BREAKS))
    line = line.map(lambda t: "".join(gap + field for gap, field in zip(t[1], t[0])) + t[2] + t[3])
    return st.lists(mostly(line), max_size=6).map("".join)


def outcome(parse, *args):
    """What `parse` returns, or the type and message of its ValueError."""
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc), str(exc)


vertices = mostly(st.integers(0, 4).map(str),
                  st.sampled_from(["+1", "-0", "007", "-1", "5", "1_0", "١", "1.0"]))


@settings(max_examples=300, deadline=None)
@given(body=hostile_texts(vertices, vertices))
@example(body="0\xa01\r\n+2\t-0 # c\n\x1f3 4\x1f\x0b4\u30000")  # the C reader takes it
@example(body="0 1\n1_0 2")  # int() takes 1_0, the C reader does not
@example(body="0 1\n0 1")
@example(body="")
def test_graph_reader_agrees_with_the_line_loop(body):
    text = "n 5\n" + body
    assert (outcome(graphs.parse_graph, text)
            == outcome(graphs._graph_from_lines, text.splitlines(), 5, 1))


POTENTIAL_GRAPH = spectra.make_circulant_regular(5, 2)
triples = mostly(st.sampled_from(connection.valid_keys(POTENTIAL_GRAPH).tolist()),
                 st.lists(st.integers(-1, 5), min_size=3, max_size=3)).map(
                     lambda key: "%d %d %d" % tuple(key))
finite = st.floats(allow_nan=False, allow_infinity=False)
coefficients = mostly(finite.map(repr) | finite.map("%.17g".__mod__) | finite.map("%.5e".__mod__),
                      st.floats().map(repr) | st.sampled_from(["1_0.5", "١", "+.5", "-0", "1."]))


def values_of(parse, *args):
    result = outcome(parse, *args)
    return result.tobytes() if isinstance(result, np.ndarray) else result


@settings(max_examples=300, deadline=None)
@given(text=hostile_texts(triples, coefficients, coefficients))
@example(text="0 1 0 -0.0 1e-320\r\n\xa01\x1f2\t1 +.5 1. # c\n\x85")  # the C reader takes it
@example(text="0 1 0 1_0.5 0")  # float() takes 1_0.5, the C reader does not
@example(text="0 1 0 inf 0")
@example(text="0 1 0 1 0\n0 1 0 2 0")
@example(text="# nothing")
def test_potential_reader_agrees_with_the_line_loop(text):
    assert (values_of(connection.parse_potential, text, POTENTIAL_GRAPH)
            == values_of(connection._potential_from_lines, text.splitlines(), POTENTIAL_GRAPH))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_printed_floats_are_read_bitwise(data):
    """Every coefficient written with repr or "%.17g" reads back as float()
    reads it, bit for bit, through the C reader."""
    keys = connection.valid_keys(POTENTIAL_GRAPH).tolist()
    floats = data.draw(st.lists(finite, min_size=2 * len(keys), max_size=2 * len(keys)))
    texts = [repr(x) if k % 2 else "%.17g" % x for k, x in enumerate(floats)]
    text = "".join("%d %d %d %s %s\n" % (*key, *texts[2 * i:2 * i + 2])
                   for i, key in enumerate(keys))
    c = connection.parse_potential(text, POTENTIAL_GRAPH)
    assert c.tobytes() == np.array([float(t) for t in texts]).tobytes()


def test_clean_files_skip_the_line_loop(monkeypatch):
    """A well-formed file, a graph file whose only fault is a repeated edge
    or a vertex out of range, or a potential file whose only fault is an
    invalid or repeated triple, never reaches the line loop."""
    def fail(*args):
        raise AssertionError("the line loop ran")

    g = spectra.make_circulant_regular(40, 3)
    text = graphs.format_graph(g).replace("\n", " # edge\r\n", 7)
    rng = np.random.default_rng(3)
    c = random_potential(g, rng)
    potential = "".join(f"{mu} {nu} {nup} {v.real!r} {v.imag!r}\n"
                        for (mu, nu, nup), v in zip(connection.valid_keys(g).tolist(), c.tolist()))
    monkeypatch.setattr(graphs, "_graph_from_lines", fail)
    monkeypatch.setattr(connection, "_potential_from_lines", fail)
    assert graphs.parse_graph(text) == g
    assert connection.parse_potential(potential, g).tobytes() == c.tobytes()
    first, second = potential.splitlines()[:2]
    with pytest.raises(graphs.GraphFormatError,
                       match=r"^line 4: invalid potential triple \(0, 0, 0\)$"):
        connection.parse_potential(f"# c\n{first}\n \n0 0 0 1.0 0.0\n{second}\n", g)
    with pytest.raises(graphs.GraphFormatError,
                       match=r"^line 4: duplicate potential triple \(%s\)$" % ", ".join(second.split()[:3])):
        connection.parse_potential(f"{first}\r\n{second} # c\n#\n{second}\n0 0 0 1.0 0.0", g)
    # the bad edge after comment, blank and CRLF lines; the out-of-range
    # message quotes the raw line, comment and all
    head = "# a graph\r\nn 40\r\n0 1\r\n\r\n   # a comment\n0 2 # c\r\n\t\n"
    for body, message in [
        ("0 1\n1 2\n", "line 8: duplicate edge 0->1"),
        ("1 2 # c\r\n\n0 2\n0 40\n", "line 10: duplicate edge 0->2"),
        ("0 40 # far\r\n1 2\n", "line 8: vertex outside 0..39 in '0 40 # far'"),
        ("1 2\r\n#\n\t-1 3\n0 2\n", "line 10: vertex outside 0..39 in '\\t-1 3'"),
    ]:
        with pytest.raises(graphs.GraphFormatError) as err:
            graphs.parse_graph(head + body)
        assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_zeta_matches_the_triples(g, seed):
    c = random_potential(g, np.random.default_rng(seed))
    m = g.num_edges
    ref = np.zeros((m, m), dtype=complex)
    for (mu, nu, nup), value in zip(reference_keys(g), c):
        ref[g.edge_index((mu - 1) % g.n, nup), g.edge_index(mu, nu)] = value
    assert np.array_equal(connection.zeta_operator(g, c), ref)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_closed_forms_match_the_conjugate_transpose_route(g, seed):
    c = random_potential(g, np.random.default_rng(seed))
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
    for c, exact in ((random_potential(g, np.random.default_rng(seed)), False),
                     (unit_potential(g), True), (connection.potential(g), True)):
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
    lap = connection.laplacian(g, unit_potential(g))
    assert np.array_equal(connection.laplacian_unit_int(g), lap)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_matrix_free_unit_action_matches_the_matrix(g, seed):
    unit = unit_potential(g)
    lap = connection.laplacian(g, unit)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.num_edges) + 1j * rng.standard_normal(g.num_edges)
    direct = connection.apply_laplacian(g, unit, f)
    assert np.max(np.abs(direct - lap @ f), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, shape=st.lists(st.integers(0, 3), max_size=2).map(tuple), seed=seeds)
@example(g=EMPTY, shape=(2, 3), seed=0)
@example(g=LOOPS_AND_SINKS, shape=(3,), seed=1)
@example(g=HUBS, shape=(), seed=2)
@example(g=HUBS, shape=(2, 2), seed=3)
def test_matrix_free_action_matches_the_matrix(g, shape, seed):
    # every potential, batch shapes (), (k,) and (k, l): each sample of the
    # stack is the assembled Laplacian times that sample; the input is left
    # as it was, and a real input acts as its complex cast
    rng = np.random.default_rng(seed)
    m = g.num_edges
    f = rng.standard_normal((*shape, m)) + 1j * rng.standard_normal((*shape, m))
    before = f.tobytes()
    for c in (random_potential(g, rng), unit_potential(g),
              connection.potential(g)):
        lap = connection.laplacian(g, c)
        direct = connection.apply_laplacian(g, c, f)
        assert direct.shape == (*shape, m)
        tol = (1e-12 * max(1.0, np.abs(lap).max(initial=0.0))
               * max(1.0, np.abs(f).max(initial=0.0)))
        assert np.max(np.abs(direct - f @ lap.T), initial=0.0) <= tol
        real = f.real.copy()
        assert np.array_equal(connection.apply_laplacian(g, c, real),
                              connection.apply_laplacian(g, c, real.astype(complex)))
        assert real.tobytes() == f.real.tobytes()
    assert f.tobytes() == before


def test_matrix_free_action_rejects_a_foreign_graph():
    g, other = LOOPS_AND_SINKS, HUBS
    f = np.ones(g.num_edges)
    # plain arrays carry no graph: a potential of another graph's key count
    # and an edge function of its edge count are shape errors
    with pytest.raises(ValueError, match=r"^potential must have shape \(4,\), got shape \(38,\)$"):
        connection.apply_laplacian(g, unit_potential(other), f)
    assert other.num_edges != g.num_edges
    with pytest.raises(ValueError, match="edge function must have last axis of length"):
        connection.apply_laplacian(g, unit_potential(g), np.ones(other.num_edges))


def test_edge_pairs_are_read_only_and_built_once_per_graph(monkeypatch):
    builds = []
    cached = DirectedCyclicGraph.__dict__["edge_pairs"]
    build = cached.func

    def counted(graph):
        builds.append(graph)
        return build(graph)

    monkeypatch.setattr(cached, "func", counted)
    g = spectra.make_circulant_regular(16, 4)
    unit = unit_potential(g)
    f = np.ones((2, g.num_edges))
    for c in random_potential(g, np.random.default_rng(0)), unit:
        connection.laplacian(g, c)
        connection.apply_laplacian(g, c, f)
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
    # dual functionals equal the per-sample results exactly; the inputs are
    # left as they were, and real inputs act as their complex casts
    m = g.num_edges
    rng = np.random.default_rng(seed)
    xs, ys = rng.standard_normal((2, *shape, m)) + 1j * rng.standard_normal((2, *shape, m))
    fs = rng.standard_normal((*shape, g.n)) + 1j * rng.standard_normal((*shape, g.n))
    before = [a.tobytes() for a in (xs, ys, fs)]
    pairing = graphs.hermitian_pairing(g, xs, ys)
    action = graphs.left_action(g, fs, xs)
    duals = [graphs.apply_dual(g, e, xs) for e in g.edges]
    assert pairing.shape == (*shape, g.n) and action.shape == (*shape, m)
    for i in np.ndindex(shape):
        xi, yi = xs[i], ys[i]
        assert np.array_equal(pairing[i], graphs.hermitian_pairing(g, xi, yi))
        assert np.array_equal(action[i], graphs.left_action(g, fs[i], xi))
        for e, dual in zip(g.edges, duals):
            assert np.array_equal(dual[i], graphs.apply_dual(g, e, xi))
    assert [a.tobytes() for a in (xs, ys, fs)] == before
    x, y, f = xs.real, ys.real, fs.real
    cx, cy, cf = (a.astype(complex) for a in (x, y, f))
    assert np.array_equal(graphs.hermitian_pairing(g, x, y), graphs.hermitian_pairing(g, cx, cy))
    assert np.array_equal(graphs.left_action(g, f, x), graphs.left_action(g, cf, cx))
    for e in g.edges:
        assert np.array_equal(graphs.apply_dual(g, e, x), graphs.apply_dual(g, e, cx))
    # a wrong last axis, or no axis at all, is still rejected
    with pytest.raises(ValueError, match="last axis of length"):
        graphs.hermitian_pairing(g, np.zeros((*shape, m + 1)), ys)
    with pytest.raises(ValueError, match="last axis of length"):
        graphs.hermitian_pairing(g, 0.0, 0.0)


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
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
@example(g=spectra.make_circulant_regular(8, 2))  # no cut: one rotated program
@example(g=ONE_CUT)  # one arc of all n vertices
def test_numeric_bracket_holds_the_exact_distances(g):
    exact = dirac.all_pairs_distances(g)
    lower, upper = dirac.distance_bracket(g)
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
    c = random_potential(g, np.random.default_rng(seed))
    eigs = np.linalg.eigvalsh(connection.laplacian(g, c))
    norm = np.abs(eigs).max(initial=0.0)
    assert eigs.min(initial=0.0) >= -1e-9 * max(1.0, norm)


def circulant_with_potential(n, offsets, z):
    """The circulant graph with the given offsets and the potential whose
    blocks in offset order all equal z, written key by key:
    c[mu, mu + o_a, mu - 1 + o_b] = z[a, b]."""
    g = DirectedCyclicGraph(n, [(mu, (mu + o) % n) for mu in range(n) for o in offsets])
    return g, connection.potential(g, {
        (mu, (mu + oa) % n, (mu - 1 + ob) % n): z[a, b]
        for mu in range(n) for a, oa in enumerate(offsets) for b, ob in enumerate(offsets)})


# n in 3..40 and up to five offsets, 0 (a self-loop at every vertex) and
# offsets whose edges wrap past vertex n - 1 included
circulants_st = st.integers(3, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), max_size=5).map(sorted)))


@settings(max_examples=60, deadline=None)
@given(circulant=circulants_st, seed=seeds)
@example(circulant=(3, []), seed=0)
@example(circulant=(9, [0, 2, 7, 8]), seed=1)
def test_fourier_route_is_the_dense_spectrum(circulant, seed):
    """A circulant under a rotation-invariant potential takes the Fourier
    route, which agrees with the dense solve; one coefficient one ulp off,
    one edge removed, one self-loop added or one edge retargeted does not."""
    n, offsets = circulant
    rng = np.random.default_rng(seed)
    d = len(offsets)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g, c = circulant_with_potential(n, offsets, z)
    for pot in (c, unit_potential(g), connection.potential(g)):
        dense = spectra.eig_selfadjoint(connection.laplacian(g, pot)).eigenvalues
        route = spectra.circulant_spectrum(g, pot)
        assert route is not None and route.shape == dense.shape
        assert np.max(np.abs(route - dense), initial=0.0) <= 1e-12 * max(1.0, dense.max(initial=0.0))
    if not d:
        return
    k = int(rng.integers(len(c)))
    off = c.copy()
    off[k] = complex(np.nextafter(c[k].real, np.inf), c[k].imag)
    assert spectra.circulant_spectrum(g, off) is None
    edges = list(g.edges)
    mu, nu = edges.pop(int(rng.integers(len(edges))))
    others = [DirectedCyclicGraph(n, edges)]
    if 0 not in offsets:
        others.append(DirectedCyclicGraph(n, [*g.edges, (mu, mu)]))
    free = [v for v in range(n) if not g.has_edge(mu, v)]
    if free:
        others.append(DirectedCyclicGraph(n, [*edges, (mu, free[0])]))
    for other in others:
        assert spectra.circulant_spectrum(other, unit_potential(other)) is None


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, potential=st.sampled_from(["unit", "zero", "random"]), seed=seeds)
@example(g=EMPTY, potential="random", seed=0)
@example(g=LOOPS_AND_SINKS, potential="random", seed=1)
@example(g=ONE_CUT, potential="unit", seed=2)
@example(g=HUBS, potential="random", seed=3)
@example(g=HUBS, potential="zero", seed=4)
@example(g=spectra.make_circulant_regular(8, 2), potential="unit", seed=5)
def test_laplacian_spectrum_is_the_dense_spectrum(g, potential, seed):
    """The one spectrum path: off the Fourier route it is the dense solve
    bit for bit, on it the dense solve to 1e-12 relative."""
    if potential == "random":
        c = random_potential(g, np.random.default_rng(seed))
    else:
        c = unit_potential(g) if potential == "unit" else connection.potential(g)
    eigs = spectra.laplacian_spectrum(g, c)
    dense = spectra.eig_selfadjoint(connection.laplacian(g, c)).eigenvalues
    if spectra.circulant_spectrum(g, c) is None:
        assert eigs.tobytes() == dense.tobytes()
    else:
        assert eigs.shape == dense.shape and (np.diff(eigs) >= 0).all()
        assert np.max(np.abs(eigs - dense), initial=0.0) <= 1e-12 * max(1.0, dense.max(initial=0.0))


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_dirac_square_is_block_diagonal_with_the_laplacian_on_top(g, seed):
    c = random_potential(g, np.random.default_rng(seed))
    m = g.num_edges
    d = dirac.dirac_operator(g, c)
    square = d @ d
    lap = connection.laplacian(g, c)
    tol = 1e-12 * max(1.0, np.linalg.norm(lap))
    assert np.max(np.abs(square[:m, :m] - lap), initial=0.0) <= tol
    assert np.max(np.abs(square[:m, m:]), initial=0.0) <= tol
    assert np.max(np.abs(square[m:, :m]), initial=0.0) <= tol


def arc_indicators(g):
    """The indicator of each arc of g, one row per cut: the vertices from the
    one after the cut behind it up to the cut, written out vertex by vertex."""
    cuts = [mu for mu in range(g.n) if g.out_degree(mu) == 0]
    rows = []
    for end in cuts:
        row, mu = np.zeros(g.n), end
        row[mu] = 1.0
        while g.out_degree(mu - 1) > 0:
            mu = (mu - 1) % g.n
            row[mu] = 1.0
        rows.append(row)
    return np.array(rows).reshape(len(cuts), g.n)


def commutator_steps(g, f):
    """The largest step |f(lam) - f(lam + 1)| over the vertices lam with an
    out-edge, 0 where there is none, for each row of the (k, n) stack f: the
    norm of its commutator with D, as the `dirac` module docstring derives."""
    lams = [lam for lam in range(g.n) if g.out_degree(lam) > 0]
    return np.array([max((abs(row[lam] - row[(lam + 1) % g.n]) for lam in lams), default=0.0)
                     for row in f])


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, k=st.integers(0, 3), seed=seeds, arcs=st.booleans())
@example(g=EMPTY, k=2, seed=0, arcs=False)
@example(g=LOOPS_AND_SINKS, k=3, seed=1, arcs=False)
@example(g=EMPTY, k=0, seed=2, arcs=True)
@example(g=LOOPS_AND_SINKS, k=0, seed=3, arcs=True)
@example(g=ONE_CUT, k=0, seed=4, arcs=True)
def test_bracket_certificate_is_the_norm_of_the_commutator(g, k, seed, arcs):
    # a stack of k real functions, or the arc indicators, which commute with D
    rng = np.random.default_rng(seed)
    c = random_potential(g, rng)
    f = arc_indicators(g) if arcs else rng.standard_normal((k, g.n))
    norms = dirac.operator_norm(dirac.commutator_with_function(
        dirac.dirac_operator(g, c), f, g))
    steps = commutator_steps(g, f)
    assert steps.shape == norms.shape == (len(f),)
    assert np.all(np.abs(steps - norms) <= 1e-12 * np.maximum(1.0, norms))
    if arcs:  # each indicator commutes with D: it certifies its arc's unbounded pairs
        assert not steps.any() and not norms.any()


def column_witnesses(g, x):
    """Row nu: the maximiser of column nu read from the bracket's path x,
    the cap n off nu's arc, the n x n stack the scale stands in for."""
    n = g.n
    cuts, arc, _, place, length = g.arcs
    if len(cuts):
        index = np.where(arc[:, None] == arc, np.abs(place[:, None] - place), length.max())
    else:  # rotation: f_nu(mu) = f_0(mu - nu)
        index = (np.arange(n) - np.arange(n)[:, None]) % n
    return np.append(x, float(n))[index]


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, path=st.sampled_from(["lp", "random", "ramp"]), seed=seeds)
@example(g=LOOPS_AND_SINKS, path="lp", seed=0)
@example(g=ONE_CUT, path="lp", seed=0)
@example(g=ONE_CUT, path="random", seed=1)
@example(g=spectra.make_circulant_regular(8, 2), path="lp", seed=0)
@example(g=spectra.make_circulant_regular(8, 2), path="random", seed=2)
# steps of 0.5 but the cycle's wrap step, 3.5: the largest, on the cycle alone
@example(g=spectra.make_circulant_regular(8, 2), path="ramp", seed=0)
@example(g=ONE_CUT, path="ramp", seed=0)
def test_bracket_scale_is_the_largest_column_certificate(g, path, seed):
    """The bracket's one scale s equals the largest certificate of its
    columns, max(1, ||[D, f_nu]||) over the column maximisers f_nu, on the
    LP's path and on a random or ramp path put in its place: each column
    reads a window of the path, and its other steps cross cuts."""
    def fake(c, *args, **kwargs):
        x = np.random.default_rng(seed).uniform(0.0, 3.0, len(c)) if path == "random" \
            else 0.5 * np.arange(len(c))
        x[0] = 0.0  # the gauge
        return SimpleNamespace(status=0, x=x)

    with mock.patch.object(dirac, "linprog", dirac.linprog if path == "lp" else fake):
        x, scale = dirac._bracket_path(g)
    assert scale == max(1.0, commutator_steps(g, column_witnesses(g, x)).max())


@settings(max_examples=40, deadline=None)
@given(g=graphs_st, seed=seeds)
@example(g=EMPTY, seed=0)
@example(g=LOOPS_AND_SINKS, seed=1)
def test_graph_checks_of_verify_pass_on_every_graph(g, seed):
    rng = np.random.default_rng(seed)
    results = [*verify.edge_module_checks(g, rng), *verify.connection_checks(g, rng),
               *verify.distance_checks(g, rng)]
    assert [(r.name, r.residual) for r in results if not r.passed] == []


# every float `spectrum` prints: its eigenvalues, closed form and deviation
# are finite, since both spectrum routes refuse a non-finite Laplacian
printed_floats = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                    0.1, -1.0000000298023224])


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 9), elements=printed_floats))
@example(values=SPECIAL)
def test_printed_rows_parse_back_to_the_same_floats(values):
    """The vector writer of `spectrum`, one value per line (the CSV
    eigenvalues) and as one comma-separated row (the closed form, and the
    JSON lists), read back bitwise: the sign of zero kept."""
    lines = "".join(cli._vector(values, "\n")).splitlines()
    assert np.array([float(v) for v in lines]).tobytes() == values.tobytes()
    row = json.loads("[%s]" % "".join(cli._vector(values))[:-1], parse_int=float)
    assert np.array(row, dtype=float).tobytes() == values.tobytes()


def reference_rows(mat, json=False):
    """The rows as the per-cell reference format: 17 significant digits per
    entry, "inf" quoted in JSON."""
    cell = lambda x: '"inf"' if json and x == math.inf else "%.17g" % x
    return [",".join(cell(x) for x in row) for row in mat.tolist()]


def reference_text(mat, json=False):
    """The rows as the matrix writers of `laplacian` and `distance` write
    them: each ends in a newline, or in "],[" in JSON."""
    return "".join(row + ("],[" if json else "\n") for row in reference_rows(mat, json))


def reference_vector(values, end):
    """The values as the per-cell reference format, each followed by `end`."""
    return "".join("%.17g" % x + end for x in values.tolist())


# values that repeat across blocks, with the sign of zero and the extremes
# of the 17-digit format among them
POOL = [0.0, -0.0, math.inf, 5e-324, 1e16, 1e17]
# pools of whole numbers, -0.0 and inf: small ones, below a block's cell
# count, and large ones of up to 17 digits
narrow_pools = st.lists((st.integers(-2, 40) | st.integers(-10**16, 10**16)).map(float)
                        | st.sampled_from([math.inf, -0.0]), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(length=st.integers(0, 1200), seed=seeds, pool=st.none() | narrow_pools)
@example(length=cli.ROW_BLOCK - 1, seed=0, pool=None)
@example(length=cli.ROW_BLOCK, seed=0, pool=None)
@example(length=cli.ROW_BLOCK + 1, seed=1, pool=None)
@example(length=2 * cli.ROW_BLOCK + 1, seed=2, pool=None)
# whole numbers of 13 to 16 digits, past every cell count, with +0.0,
# -0.0, a small whole number or inf among them
@example(length=15, seed=3, pool=[0.0, 123456789012345.0, math.inf])
@example(length=15, seed=4, pool=[0.0, 1234567890123456.0, 7.0])
@example(length=15, seed=5, pool=[-0.0, 1234567890123.0, math.inf])
@example(length=15, seed=6, pool=[1.0, -1234567890123.0, math.inf])
# small whole numbers with -0.0, or with a negative one next to inf: the
# sign of a whole number and of zero print
@example(length=15, seed=7, pool=[0.0, -0.0, 3.0, 7.0])
@example(length=15, seed=8, pool=[2.0, -1.0, math.inf, 0.0])
# 15 and 14 in vectors of 15 cells (.real, .imag): whole numbers at and
# below the vector's cell count; in the interleaved view's 30 cells both
# are below
@example(length=15, seed=9, pool=[15.0, 14.0, 0.0])
@example(length=15, seed=10, pool=[14.0, 13.0, 0.0])
# whole numbers at 2**53, 1e16 and 1e17 (where "%.17g" turns to an exponent),
# and inf among small whole numbers, over two blocks
@example(length=15, seed=11, pool=[2.0**53, 1e16, 1e17, 1.0])
@example(length=300, seed=12, pool=[math.inf, 0.0, 1.0, 2.0])
def test_printed_rows_match_the_per_cell_format(length, seed, pool):
    """The vector writer against the per-cell format, a value per line and
    as one row, on any float the format takes."""
    rng = np.random.default_rng(seed)
    if pool is None:
        pool = np.concatenate([POOL, rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)])
    vec = np.empty(length, dtype=complex)  # 1j * inf would put nan in .real
    vec.real, vec.imag = rng.choice(pool, (2, length))
    # contiguous, strided, interleaved and reversed views
    for values in (vec.real.copy(), vec.real, vec.imag, vec.view(float), vec.imag[::-1]):
        for end in ("\n", ","):
            assert "".join(cli._vector(values, end)) == reference_vector(values, end)


@st.composite
def mostly_zero_vectors(draw):
    """Mostly +0.0, with mostly distinct non-zero values, -0.0, 5e-324 and
    inf among them, a run of up to ROW_BLOCK zeros and a non-zero last value."""
    length = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(seeds))
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)
    vec = np.where(rng.random(length) < draw(st.floats(0.01, 0.4)), values, 0.0)
    vec[rng.integers(0, length, 3)] = [-0.0, 5e-324, math.inf]
    start = rng.integers(length)
    vec[start:start + cli.ROW_BLOCK] = 0.0
    vec[-1] = 0.5
    return vec


# -0.0 as the first value, the least subnormal inside a row of six, inf as
# the last of one, and runs of +0.0: 30 values and 36
BOUNDARY = np.zeros((6, 6))
BOUNDARY[0, 0], BOUNDARY[1, 2], BOUNDARY[2, 5] = -0.0, 5e-324, math.inf
# mostly zero whole numbers with one fractional value in the first block,
# then a block of whole numbers and inf alone
WHOLE = np.zeros((cli.ROW_BLOCK + 6, 6))
WHOLE[::3, 1], WHOLE[1::4, 5], WHOLE[cli.ROW_BLOCK + 2, 3] = 4.0, 1.0, math.inf
WHOLE[3, 4] = 0.5


@settings(max_examples=40, deadline=None)
@given(values=mostly_zero_vectors())
@example(values=BOUNDARY[:5].ravel())
@example(values=BOUNDARY.ravel())
@example(values=WHOLE[:6].ravel())
@example(values=WHOLE.ravel())
def test_mostly_zero_rows_match_the_per_cell_format(values):
    vec = np.empty(values.shape, dtype=complex)
    vec.real, vec.imag = values, values[::-1]
    # contiguous, strided, interleaved and reversed views
    for view in (vec.real.copy(), vec.real, vec.imag, vec.view(float), vec.imag[::-1]):
        for end in ("\n", ","):
            assert "".join(cli._vector(view, end)) == reference_vector(view, end)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(0, 600), cols=st.integers(0, 4), seed=seeds)
@example(rows=0, cols=2, seed=0)
@example(rows=cli.ROW_BLOCK + 1, cols=0, seed=1)
@example(rows=2 * cli.ROW_BLOCK + 1, cols=1, seed=2)
def test_printed_json_matches_the_per_cell_format(rows, cols, seed):
    """`_print_json` on the reference row texts in blocks of ROW_BLOCK rows,
    each row ending in "],[" as the matrix writers end them: no row, one
    row, rows with no cell and several blocks."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([POOL, rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)])
    mats = dict(zip("ab", rng.choice(pool, (2, rows, cols))))

    def blocks(mat):
        texts = [row + "],[" for row in reference_rows(mat, json=True)]
        return ["".join(texts[i:i + cli.ROW_BLOCK]) for i in range(0, len(texts), cli.ROW_BLOCK)]

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_json('"n":0', {name: blocks(mat) for name, mat in mats.items()})
    assert out.getvalue() == '{"n":0%s}\n' % "".join(
        ',"%s":[%s]' % (name, ",".join("[" + row + "]" for row in reference_rows(mat, json=True)))
        for name, mat in mats.items())


def path_graph(n, sinks):
    """The directed n-gon without the out-edges of `sinks`: one sink leaves
    distances up to n - 1, two or more leave unbounded pairs."""
    return DirectedCyclicGraph(n, [(mu, (mu + 1) % n) for mu in range(n) if mu not in sinks])


# coefficients with the sign of zero, whole numbers, the least subnormal and
# whole numbers where "%.17g" turns to an exponent
COEFFICIENTS = [0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324, 1e16, 1e17, -1e17]


@settings(max_examples=60, deadline=None)
@given(g=graphs_st, potential=st.sampled_from(["unit", "zero", "random"]), seed=seeds)
@example(g=EMPTY, potential="random", seed=0)
@example(g=LOOPS_AND_SINKS, potential="random", seed=1)
@example(g=ONE_CUT, potential="unit", seed=2)
@example(g=HUBS, potential="random", seed=3)
# n = 3: the three column ranges of every row meet, with no zero cell between
@example(g=DirectedCyclicGraph(3, itertools.product(range(3), repeat=2)), potential="random", seed=4)
@example(g=spectra.make_circulant_regular(3, 1), potential="unit", seed=5)
# no cut: the range of mu - 1 wraps on the rows of 0, that of mu + 1 on those of n - 1
@example(g=spectra.make_circulant_regular(8, 2), potential="random", seed=6)
# a cut at 0 and at n - 1: an empty range where a range wraps
@example(g=path_graph(9, {0}), potential="random", seed=7)
@example(g=path_graph(9, {8}), potential="random", seed=8)
@example(g=path_graph(9, {0}), potential="unit", seed=9)
@example(g=path_graph(9, {8}), potential="zero", seed=10)
# two blocks of rows, the second cut short
@example(g=path_graph(cli.ROW_BLOCK + 44, {7, 150}), potential="random", seed=11)
def test_laplacian_rows_print_as_the_assembled_matrix(g, potential, seed):
    """The writer of `laplacian`, which reads the graph and the diagonal
    blocks, against the per-cell format of `connection.laplacian`, in CSV
    and JSON: the conjugate's texts, derived from the coefficient's, carry
    the signs of zero that conj(c) + 0.0 has."""
    if potential == "unit":
        c = unit_potential(g)
    elif potential == "zero":
        c = connection.potential(g)
    else:
        rng = np.random.default_rng(seed)
        c = connection.potential(g)
        k = len(c)
        pool = np.concatenate([COEFFICIENTS, rng.standard_normal(6) * 10.0 ** rng.integers(-150, 150, 6)])
        c.real, c.imag = rng.choice(pool, (2, k))
    lap = connection.laplacian(g, c)
    (csv,) = cli._laplacian_blocks(g, c)
    real, imag = cli._laplacian_blocks(g, c, json=True)
    assert "".join(csv) == reference_text(lap.view(float))
    assert "".join(real) == reference_text(lap.real, json=True)
    assert "".join(imag) == reference_text(lap.imag, json=True)


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
@example(g=ONE_CUT)
@example(g=DirectedCyclicGraph(3, []))  # every vertex a sink: inf off the diagonal
@example(g=path_graph(9, {0}))  # one cut at 0: one arc from vertex 1 that wraps past 8
@example(g=path_graph(9, {8}))  # one cut at n - 1: one arc from vertex 0, no wrap
@example(g=path_graph(9, {0, 4}))  # an arc that ends at 0 and one that does not wrap
@example(g=path_graph(9, {8, 4}))  # an arc that ends at n - 1 and one that wraps
@example(g=path_graph(7, set()))  # no cut, odd n
@example(g=spectra.make_circulant_regular(8, 2))  # no cut, even n
@example(g=path_graph(11, {10}))  # distances 0..10: texts of one and two digits
@example(g=path_graph(101, {100}))  # 0..100: two and three digits
@example(g=path_graph(cli.ROW_BLOCK + 44, {7, 150}))  # two row blocks, inf in both
def test_distance_rows_print_as_the_float_distances(g):
    dist = dirac.all_pairs_distances(g)
    assert dist.dtype == np.float64 and dist.shape == (g.n, g.n)
    finite = dist[np.isfinite(dist)]
    assert np.isposinf(dist[~np.isfinite(dist)]).all()
    assert ((finite == np.floor(finite)) & (finite >= 0) & (finite <= g.n - 1)).all()
    assert (np.diag(dist) == 0).all()
    lower, upper = dirac.distance_bracket(g)
    for json in (False, True):  # row by row: a failure lists the first differing row
        end = "],[" if json else "\n"
        texts = cli._distance_texts(g, json, numeric=True)
        for name, mat in (("distances", dist), ("lower", lower), ("upper", upper)):
            assert "".join(texts[name]).split(end) == reference_text(mat, json).split(end), name


@settings(max_examples=60, deadline=None)
@given(g=graphs_st)
@example(g=EMPTY)
@example(g=LOOPS_AND_SINKS)
@example(g=ONE_CUT)
@example(g=path_graph(9, {0, 4}))
@example(g=path_graph(7, set()))
def test_arcs_are_read_only_and_walk_from_cut_to_cut(g):
    """Each vertex's arc, start, place and length, against a walk from the
    vertex after each cut to the next cut; with no cut, the cycle from 0."""
    arcs = g.arcs
    assert g.arcs is arcs and all(not arr.flags.writeable for arr in arcs)
    cuts = [mu for mu in range(g.n) if g.out_degree(mu) == 0]
    assert arcs.cuts.tolist() == cuts
    want = [(0, 0, mu, g.n) for mu in range(g.n)]
    for index, cut in enumerate(cuts):
        walk = [(cuts[index - 1] + 1) % g.n]
        while walk[-1] != cut:
            walk.append((walk[-1] + 1) % g.n)
        for place, mu in enumerate(walk):
            want[mu] = (index, walk[0], place, len(walk))
    assert list(zip(*(arr.tolist() for arr in arcs[1:]))) == want
