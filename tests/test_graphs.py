"""Graphs, text format, the edge module and its Hilbert space."""

import numpy as np
import pytest

from kahleredge import graphs, spectra
from kahleredge.graphs import DirectedCyclicGraph, GraphFormatError
from kahleredge.dirac import connes_distance
from kahleredge.operators import DenseOperator
from kahleredge.spectra import Spectrum

from conftest import random_graph, random_edge_values


def ngon(n):
    return DirectedCyclicGraph(n, [(mu, (mu + 1) % n) for mu in range(n)])


# --------------------------------------------------------------- construction

def test_edges_sorted_lexicographically():
    g = DirectedCyclicGraph(3, [(2, 0), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2), (2, 0))
    k3 = DirectedCyclicGraph(3, graphs.complete_graph_edges(3))
    assert k3.edges == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        DirectedCyclicGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        DirectedCyclicGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        DirectedCyclicGraph(3, [(0, 1), (0, 1)])
    # a non-integer vertex is an error, not truncated to the edge 0->1
    with pytest.raises(ValueError, match=r"edge 0->1\.7 has a non-integer vertex"):
        DirectedCyclicGraph(4, [(0, 1.7), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match=r"edge '0'->1"):
        DirectedCyclicGraph(3, [("0", 1)])
    assert DirectedCyclicGraph(3, [(np.int64(0), np.int32(1))]).edges == ((0, 1),)


def test_constructor_input_forms():
    pairs = [(2, 0), (0, 1), (1, 1), (1, 2)]
    forms = [pairs, set(pairs), (pair for pair in pairs),
             np.array(pairs, dtype=np.int32), np.array(pairs, dtype=np.int64)]
    built = [DirectedCyclicGraph(3, edges) for edges in forms]
    assert all(g == built[0] and hash(g) == hash(built[0]) for g in built)
    assert built[0].edges == ((0, 1), (1, 1), (1, 2), (2, 0))
    assert all(type(x) is int for edge in built[-1].edges for x in edge)
    empty = [DirectedCyclicGraph(3, edges) for edges in ([], np.empty((0, 2), int))]
    assert empty[0] == empty[1] and hash(empty[0]) == hash(empty[1])
    assert empty[0].edges == () and empty[0].num_edges == 0
    # a float array is not truncated: its first edge is named
    with pytest.raises(ValueError, match=r"^edge \S*2\.0\S*->\S*0\.5\S* has a non-integer vertex$"):
        DirectedCyclicGraph(3, np.array([(2, 0.5), (0, 1)]))


def test_accessors():
    g = ngon(4)
    assert g.num_edges == 4
    assert g.source(1) == 1 and g.target(1) == 2
    assert g.edge_index(2, 3) == 2
    assert g.has_edge(3, 0) and not g.has_edge(0, 2)
    assert g.out_degree(0) == 1
    assert g.offsets[2] == 2 and g.offsets[3] == 3
    assert not g.has_self_loop()
    assert DirectedCyclicGraph(3, [(1, 1)]).has_self_loop()
    with pytest.raises(KeyError):
        g.edge_index(0, 2)


def test_equality_and_hash():
    assert ngon(4) == ngon(4)
    assert ngon(4) != ngon(5)
    assert hash(ngon(4)) == hash(ngon(4))


ARRAY_HOLDERS = {
    "Spectrum": lambda: Spectrum(np.ones(3)),
    "DenseOperator": lambda: DenseOperator(np.eye(3)),
    "DistanceResult": lambda: connes_distance(ngon(3), 0, 1),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert (a == a) is True and (a == b) is False
    assert isinstance(hash(a), int) and len({a, b}) == 2


# --------------------------------------------------------------- text format

@pytest.mark.parametrize("n", [graphs.MAX_VERTICES + 1, 10**20])
def test_vertex_count_past_int64_keys_is_refused(n):
    assert graphs.MAX_VERTICES == 3_037_000_499
    assert graphs.MAX_VERTICES**2 - 1 <= np.iinfo(np.int64).max < (graphs.MAX_VERTICES + 1)**2 - 1
    for build in (lambda: DirectedCyclicGraph(n, [(0, 1)]),
                  lambda: spectra.make_circulant_regular(n, 2)):
        with pytest.raises(ValueError, match=f"vertex count {n} is too large"):
            build()
    with pytest.raises(GraphFormatError, match=f"^line 3: vertex count {n} is too large"):
        graphs.parse_graph(f"# big\n\nn {n}\n0 1\n")


def test_parse_graph_basic():
    g = graphs.parse_graph("n 3\n0 1\n1 2\n2 0")
    assert g == ngon(3)


def test_parse_graph_comments_and_blanks():
    g = graphs.parse_graph("# header\n\nn 3  # three vertices\n0 1\n\n# done\n")
    assert g.edges == ((0, 1),)


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 3"):
        graphs.parse_graph("n 3\n0 1\n0 1")
    with pytest.raises(GraphFormatError, match="n >= 3"):
        graphs.parse_graph("n 2\n0 1")
    with pytest.raises(GraphFormatError, match="line 2"):
        graphs.parse_graph("n 3\n0 x")
    with pytest.raises(GraphFormatError, match="line 2"):
        graphs.parse_graph("n 3\n0 5")
    with pytest.raises(GraphFormatError, match="missing"):
        graphs.parse_graph("# nothing here\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        graphs.parse_graph("m 3\n0 1")


@pytest.mark.parametrize("text, message", [
    # an out-of-range line 3 before a malformed line 5
    ("n 3\n0 1\n0 3\n\n1 x\n", r"line 3: vertex outside 0\.\.2 in '0 3'$"),
    # a malformed line 3 before a duplicate line 5
    ("n 3\n0 1\n1 2 0\n\n0 1\n", r"line 3: expected 'u v', got '1 2 0'$"),
])
def test_parse_graph_reports_the_earliest_bad_line(text, message):
    with pytest.raises(GraphFormatError, match=message):
        graphs.parse_graph(text)


def test_parse_graph_late_duplicate_in_long_file():
    n = 4000
    lines = [f"n {n}"] + [f"{mu} {(mu + k) % n}" for mu in range(n) for k in (1, 2, 3, 4)]
    lines.append("1234 1236")
    with pytest.raises(GraphFormatError, match=f"line {len(lines)}: duplicate edge 1234->1236$"):
        graphs.parse_graph("\n".join(lines))


def test_format_parse_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng)
        assert graphs.parse_graph(graphs.format_graph(g)) == g


# --------------------------------------------------------------- edge module

def test_left_action_by_source():
    g = ngon(3)
    chi01 = np.eye(g.num_edges)[g.edge_index(0, 1)]
    out = graphs.left_action(g, [1.0, 0.0, 0.0], chi01)
    assert np.allclose(out, chi01)
    out = graphs.left_action(g, [0.0, 1.0, 0.0], chi01)
    assert np.allclose(out, 0.0)


def test_hermitian_pairing_values():
    g = ngon(3)
    chi01 = np.eye(g.num_edges)[g.edge_index(0, 1)]
    assert np.allclose(
        graphs.hermitian_pairing(g, chi01, chi01), [1.0, 0.0, 0.0]
    )
    g2 = DirectedCyclicGraph(3, [(0, 1), (1, 0)])
    chi = np.eye(g2.num_edges)
    x = 2.0 * chi[g2.edge_index(0, 1)] + chi[g2.edge_index(1, 0)]
    assert np.allclose(graphs.hermitian_pairing(g2, x, x), [4.0, 1.0, 0.0])


def test_hermitian_pairing_positive_and_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng)
        m = g.num_edges
        x = random_edge_values(rng, m)
        y = random_edge_values(rng, m)
        hxx = graphs.hermitian_pairing(g, x, x)
        assert np.all(np.abs(hxx.imag) <= 1e-12) and np.all(hxx.real >= -1e-12)
        assert np.allclose(
            graphs.hermitian_pairing(g, x, y),
            np.conj(graphs.hermitian_pairing(g, y, x)),
        )


def test_dual_functionals():
    g = ngon(3)
    chi = np.eye(g.num_edges)
    chi01, chi12 = chi[g.edge_index(0, 1)], chi[g.edge_index(1, 2)]
    assert np.allclose(graphs.apply_dual(g, (0, 1), chi01), [1.0, 0.0, 0.0])
    assert np.allclose(graphs.apply_dual(g, (0, 1), chi12), 0.0)


def test_complete_graph_projector():
    # the 3-gon inside K_3, edge order (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
    # a sparse diagonal array, densified here to compare
    proj = graphs.complete_graph_projector(ngon(3))
    assert proj.format == "dia" and proj.shape == (6, 6)
    assert np.allclose(proj.toarray(), np.diag([1.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    k3 = DirectedCyclicGraph(3, graphs.complete_graph_edges(3))
    assert np.allclose(graphs.complete_graph_projector(k3).toarray(), np.eye(6))
    empty = DirectedCyclicGraph(3, [])
    assert np.allclose(graphs.complete_graph_projector(empty).toarray(), 0.0)
    assert np.allclose((proj @ proj).toarray(), proj.toarray())


# -------------------------------------------------------------- Hilbert space

def test_inner_product_normalization():
    g = ngon(3)
    chi = np.eye(g.num_edges)[g.edge_index(0, 1)]
    top = np.concatenate([chi, np.zeros(3)])
    bot = np.concatenate([np.zeros(3), chi])
    assert graphs.inner_product(g, top, top) == pytest.approx(1.0 / 3.0)
    assert graphs.inner_product(g, bot, bot) == pytest.approx(1.0 / 3.0)
    assert graphs.inner_product(g, top, bot) == pytest.approx(0.0)


def test_inner_product_sesquilinear():
    g = ngon(4)
    rng = np.random.default_rng(2)
    u = np.concatenate([random_edge_values(rng, 4), random_edge_values(rng, 4)])
    v = np.concatenate([random_edge_values(rng, 4), random_edge_values(rng, 4)])
    z = 2.0 - 1.5j
    assert graphs.inner_product(g, z * u, v) == pytest.approx(z * graphs.inner_product(g, u, v))
    assert graphs.inner_product(g, u, z * v) == pytest.approx(
        np.conj(z) * graphs.inner_product(g, u, v)
    )


def test_orthonormal_basis():
    g = ngon(3)
    basis = graphs.orthonormal_basis(g)
    assert len(basis) == 6
    for arr in basis:
        assert np.count_nonzero(arr) == 1
        assert np.max(np.abs(arr)) == pytest.approx(np.sqrt(3.0))
    gram = np.array(
        [[graphs.inner_product(g, u, v) for v in basis] for u in basis]
    )
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-12


def test_shape_validation():
    g = ngon(3)
    with pytest.raises(ValueError):
        graphs.hermitian_pairing(g, [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        graphs.inner_product(g, np.zeros(5), np.zeros(6))
