"""Graphs, text format, the edge module and its Hilbert space."""

import numpy as np
import pytest

from kahleredge import graphs
from kahleredge.graphs import (
    DirectedCyclicGraph,
    EdgeFunction,
    GraphFormatError,
    HilbertVector,
)
from kahleredge.dirac import connes_distance
from kahleredge.operators import DenseOperator
from kahleredge.polygon import GradedForm, VertexFunction
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


def test_accessors():
    g = ngon(4)
    assert g.num_edges == 4
    assert g.source(1) == 1 and g.target(1) == 2
    assert g.edge_index(2, 3) == 2
    assert g.has_edge(3, 0) and not g.has_edge(0, 2)
    assert g.out_degree(0) == 1
    assert g.edges_from(2) == [2]
    assert not g.has_self_loop()
    assert DirectedCyclicGraph(3, [(1, 1)]).has_self_loop()
    with pytest.raises(KeyError):
        g.edge_index(0, 2)


def test_equality_and_hash():
    assert ngon(4) == ngon(4)
    assert ngon(4) != ngon(5)
    assert hash(ngon(4)) == hash(ngon(4))


ARRAY_HOLDERS = {
    "GradedForm": lambda: GradedForm(np.ones((4, 3))),
    "VertexFunction": lambda: VertexFunction(3, np.ones(3)),
    "EdgeFunction": lambda: EdgeFunction(ngon(3), np.ones(3)),
    "HilbertVector": lambda: HilbertVector.from_blocks(ngon(3), top=np.ones(3)),
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
    chi01 = EdgeFunction.chi(g, 0, 1)
    out = graphs.left_action(VertexFunction(3, [1.0, 0.0, 0.0]), chi01)
    assert np.allclose(out.values, chi01.values)
    out = graphs.left_action(VertexFunction(3, [0.0, 1.0, 0.0]), chi01)
    assert np.allclose(out.values, 0.0)


def test_hermitian_pairing_values():
    g = ngon(3)
    chi01 = EdgeFunction.chi(g, 0, 1)
    assert np.allclose(
        graphs.hermitian_pairing(chi01, chi01).values, [1.0, 0.0, 0.0]
    )
    g2 = DirectedCyclicGraph(3, [(0, 1), (1, 0)])
    x = 2.0 * EdgeFunction.chi(g2, 0, 1) + EdgeFunction.chi(g2, 1, 0)
    assert np.allclose(graphs.hermitian_pairing(x, x).values, [4.0, 1.0, 0.0])


def test_hermitian_pairing_positive_and_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng)
        m = g.num_edges
        x = EdgeFunction(g, random_edge_values(rng, m))
        y = EdgeFunction(g, random_edge_values(rng, m))
        hxx = graphs.hermitian_pairing(x, x)
        assert hxx.is_positive()
        assert np.allclose(
            graphs.hermitian_pairing(x, y).values,
            np.conj(graphs.hermitian_pairing(y, x).values),
        )


def test_dual_functionals():
    g = ngon(3)
    chi01 = EdgeFunction.chi(g, 0, 1)
    chi12 = EdgeFunction.chi(g, 1, 2)
    assert np.allclose(graphs.apply_dual(g, (0, 1), chi01).values, [1.0, 0.0, 0.0])
    assert np.allclose(graphs.apply_dual(g, (0, 1), chi12).values, 0.0)


def test_complete_graph_projector():
    # the 3-gon inside K_3, edge order (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
    proj = graphs.complete_graph_projector(ngon(3)).matrix
    assert np.allclose(proj, np.diag([1.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    k3 = DirectedCyclicGraph(3, graphs.complete_graph_edges(3))
    assert np.allclose(graphs.complete_graph_projector(k3).matrix, np.eye(6))
    empty = DirectedCyclicGraph(3, [])
    assert np.allclose(graphs.complete_graph_projector(empty).matrix, 0.0)
    assert np.allclose(proj @ proj, proj)


# -------------------------------------------------------------- Hilbert space

def test_inner_product_normalization():
    g = ngon(3)
    top = HilbertVector.from_blocks(g, top=EdgeFunction.chi(g, 0, 1).values)
    bot = HilbertVector.from_blocks(g, bottom=EdgeFunction.chi(g, 0, 1).values)
    assert graphs.inner_product(top, top) == pytest.approx(1.0 / 3.0)
    assert graphs.inner_product(bot, bot) == pytest.approx(1.0 / 3.0)
    assert graphs.inner_product(top, bot) == pytest.approx(0.0)


def test_inner_product_sesquilinear():
    g = ngon(4)
    rng = np.random.default_rng(2)
    u = HilbertVector(g, random_edge_values(rng, 4), random_edge_values(rng, 4))
    v = HilbertVector(g, random_edge_values(rng, 4), random_edge_values(rng, 4))
    z = 2.0 - 1.5j
    zu = HilbertVector(g, z * u.top, z * u.bottom)
    zv = HilbertVector(g, z * v.top, z * v.bottom)
    assert graphs.inner_product(zu, v) == pytest.approx(z * graphs.inner_product(u, v))
    assert graphs.inner_product(u, zv) == pytest.approx(
        np.conj(z) * graphs.inner_product(u, v)
    )


def test_orthonormal_basis():
    g = ngon(3)
    basis = graphs.orthonormal_basis(g)
    assert len(basis) == 6
    for vec in basis:
        arr = vec.as_array()
        assert np.count_nonzero(arr) == 1
        assert np.max(np.abs(arr)) == pytest.approx(np.sqrt(3.0))
    gram = np.array(
        [[graphs.inner_product(u, v) for v in basis] for u in basis]
    )
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-12


def test_shape_validation():
    g = ngon(3)
    with pytest.raises(ValueError):
        EdgeFunction(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        HilbertVector(g, np.zeros(2), np.zeros(3))
