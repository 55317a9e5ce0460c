"""Potentials, the twisted connection and the edge Laplacian."""

import math

import numpy as np
import pytest

from kahleredge import connection, graphs
from kahleredge.connection import PotentialCoefficients
from kahleredge.graphs import DirectedCyclicGraph

from conftest import random_graph, random_edge_values


def ngon(n):
    return DirectedCyclicGraph(n, [(mu, (mu + 1) % n) for mu in range(n)])


def bidirected_ngon(n):
    edges = [(mu, (mu + 1) % n) for mu in range(n)]
    edges += [(mu, (mu - 1) % n) for mu in range(n)]
    return DirectedCyclicGraph(n, edges)


# ----------------------------------------------------------------- potentials

def test_potential_key_validation():
    g = ngon(3)
    # needs edges mu->nu and (mu-1)->nu'
    assert PotentialCoefficients.is_valid_key(g, 0, 1, 0)
    assert not PotentialCoefficients.is_valid_key(g, 0, 2, 0)
    assert not PotentialCoefficients.is_valid_key(g, 0, 1, 1)
    PotentialCoefficients(g, {(0, 1, 0): 2.0})
    with pytest.raises(ValueError):
        PotentialCoefficients(g, {(0, 2, 0): 1.0})
    # a non-integer vertex is an error, not truncated to the key (1, 2, 1)
    with pytest.raises(ValueError, match=r"key \(1\.9, 2, 1\) has a non-integer vertex"):
        PotentialCoefficients(g, {(1.9, 2, 1): 1.0})
    # non-finite values are an error, as they are in a potential file
    square = ngon(4)
    with pytest.raises(ValueError, match=r"key \(1, 2, 1\) has a non-finite value"):
        PotentialCoefficients(square, {(1, 2, 1): float("nan"), (2, 3, 2): 1.0})
    with pytest.raises(ValueError, match=r"key \(2, 3, 2\) has a non-finite value"):
        PotentialCoefficients(square, {(1, 2, 1): 1.0, (2, 3, 2): complex(0.0, math.inf)})
    c = PotentialCoefficients(g, {(np.int64(1), np.int32(2), 1): 2.0})
    assert c.get(1, 2, 1) == 2.0
    assert PotentialCoefficients.zero(g).get(0, 1, 0) == 0.0


def test_unit_potential_covers_all_valid_keys():
    g = bidirected_ngon(4)
    unit = PotentialCoefficients.unit(g)
    keys = PotentialCoefficients.valid_keys(g)
    assert unit.values.shape == (len(keys),) == (16,)
    assert all(unit.get(*key) == 1.0 for key in keys)


def test_parse_potential():
    g = ngon(3)
    c = connection.parse_potential("# c\n0 1 0 2.0 -1.0\n", g)
    assert c.get(0, 1, 0) == 2.0 - 1.0j
    with pytest.raises(graphs.GraphFormatError, match="line 1"):
        connection.parse_potential("0 1 0 2.0", g)
    with pytest.raises(graphs.GraphFormatError, match="invalid"):
        connection.parse_potential("0 2 0 1.0 0.0", g)
    with pytest.raises(graphs.GraphFormatError, match="malformed"):
        connection.parse_potential("0 1 0 x 0.0", g)
    for bad in ("nan 0.0", "0.0 inf", "-inf 1.0"):
        with pytest.raises(graphs.GraphFormatError, match="line 2: non-finite"):
            connection.parse_potential(f"# c\n0 1 0 {bad}\n", g)
    with pytest.raises(graphs.GraphFormatError,
                       match=r"line 3: duplicate potential triple \(0, 1, 0\)$"):
        connection.parse_potential("0 1 0 1.0 0.0\n1 2 1 1.0 0.0\n0 1 0 5.0 0.0\n", g)


@pytest.mark.parametrize("lines, message", [
    # an invalid triple on line 3 before a malformed line 5
    (["0 1 0 1 0", "1 2 1 1 0", "0 2 0 1 0", "", "1 x 1 1 0"],
     r"line 3: invalid potential triple \(0, 2, 0\)$"),
    # a malformed line 3 before a duplicate line 5
    (["0 1 0 1 0", "1 2 1 1 0", "2 0 2 1", "", "0 1 0 1 0"],
     r"line 3: expected 'mu nu nuP re im', got '2 0 2 1'$"),
    # an invalid triple on line 3 before a non-finite line 5
    (["0 1 0 1 0", "1 2 1 1 0", "3 1 0 1 0", "", "2 0 2 nan 0"],
     r"line 3: invalid potential triple \(3, 1, 0\)$"),
    # a non-finite line 3 before a duplicate line 5
    (["0 1 0 1 0", "1 2 1 1 0", "2 0 2 1 inf", "", "0 1 0 1 0"],
     r"line 3: non-finite coefficient in '2 0 2 1 inf'$"),
])
def test_parse_potential_reports_the_earliest_bad_line(lines, message):
    with pytest.raises(graphs.GraphFormatError, match=message):
        connection.parse_potential("\n".join(lines), ngon(3))


# ----------------------------------------------------------------- operators

def test_zeta_zero_potential_and_dbar():
    g = ngon(4)
    zero = PotentialCoefficients.zero(g)
    assert np.allclose(connection.zeta_operator(g, zero), 0.0)
    assert np.allclose(
        connection.dbar(g, zero), np.eye(4)
    )


def test_zeta_unit_on_directed_3gon():
    # chi_{1->2} maps to xi_{1->0} (x) chi_{0->1}: the only edge from vertex 0
    g = ngon(3)
    z = connection.zeta_operator(g, PotentialCoefficients.unit(g))
    col = z[:, g.edge_index(1, 2)]
    expect = np.zeros(3)
    expect[g.edge_index(0, 1)] = 1.0
    assert np.allclose(col, expect)


def test_zeta_unit_on_bidirected_3gon():
    # chi_{0->1} maps to xi_{0->2} (x) (chi_{2->0} + chi_{2->1})
    g = bidirected_ngon(3)
    z = connection.zeta_operator(g, PotentialCoefficients.unit(g))
    col = z[:, g.edge_index(0, 1)]
    expect = np.zeros(6)
    expect[g.edge_index(2, 0)] = 1.0
    expect[g.edge_index(2, 1)] = 1.0
    assert np.allclose(col, expect)


def test_zeta_rejects_foreign_potential():
    with pytest.raises(ValueError):
        connection.zeta_operator(ngon(3), PotentialCoefficients.zero(ngon(4)))


# ------------------------------------------------------------------ Laplacian

def test_laplacian_circulant_rows():
    g = ngon(3)
    lap = connection.laplacian(g, PotentialCoefficients.unit(g))
    assert np.allclose(lap, [[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    g = ngon(4)
    lap = connection.laplacian(g, PotentialCoefficients.unit(g))
    first = np.array([2.0, 1.0, 0.0, 1.0])
    for k in range(4):
        assert np.allclose(lap[k], np.roll(first, k))


def test_laplacian_empty_edge_set():
    g = DirectedCyclicGraph(3, [])
    assert connection.laplacian(g, PotentialCoefficients.zero(g)).shape == (0, 0)


# the 4-gon with the chord 0->2: blocks C_mu of shapes 1 x 1, 1 x 2 and 2 x 1,
# the last of them, that of vertex 0, the one that overflows
CHORD = DirectedCyclicGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)])


@pytest.mark.parametrize("g, key", [(ngon(3), (1, 2, 1)), (CHORD, (0, 2, 0))])
@pytest.mark.parametrize("value", [1e200, 1e200j, complex(1e200, 1e200)])
def test_overflowing_potential_raises_with_no_warning(g, key, value):
    """A finite coefficient whose square overflows (to inf, and with both
    parts to nan in the product's imaginary part) is one ValueError from the
    diagonal blocks, from the Laplacian and from its action on one edge
    function or a stack of them, whatever their values, with no
    RuntimeWarning: warnings are errors under this suite's settings."""
    c = PotentialCoefficients(g, {key: value})
    m = g.num_edges
    actions = [lambda g, c, f=f: connection.apply_laplacian(g, c, f)
               for f in (np.ones(m), np.zeros(m), np.ones((2, 3, m)), np.zeros((0, m)))]
    for build in (connection.laplacian_blocks, connection.laplacian, *actions):
        with pytest.raises(ValueError) as err:
            build(g, c)
        assert str(err.value) == "the Laplacian has non-finite entries: the potential overflows"


def test_apply_laplacian_unit_examples():
    g = ngon(3)
    chi = np.eye(g.num_edges)  # row e: the indicator of edge e
    out = connection.apply_laplacian(g, PotentialCoefficients.unit(g),
                                     chi[g.edge_index(0, 1)])
    expect = (
        2.0 * chi[g.edge_index(0, 1)]
        + chi[g.edge_index(1, 2)]
        + chi[g.edge_index(2, 0)]
    )
    assert np.allclose(out, expect)
    # constant function on the n-gon is the top eigenvector with eigenvalue 4
    for n in (3, 5, 8):
        g = ngon(n)
        ones = np.ones(n)
        assert np.allclose(
            connection.apply_laplacian(g, PotentialCoefficients.unit(g), ones),
            4.0 * np.ones(n),
        )


def test_apply_laplacian_unit_matches_matrix():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_graph(rng)
        unit = PotentialCoefficients.unit(g)
        lap = connection.laplacian(g, unit)
        f = random_edge_values(rng, g.num_edges)
        direct = connection.apply_laplacian(g, unit, f)
        assert np.max(np.abs(direct - lap @ f), initial=0.0) <= 1e-12


def test_closed_form_adjoints():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_graph(rng)
        c = PotentialCoefficients.random(g, rng)
        assert np.allclose(
            connection.zeta_dagger_closed_form(g, c),
            connection.zeta_operator(g, c).conj().T,
        )


def test_composite_blocks_sum_to_laplacian():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_graph(rng)
        c = PotentialCoefficients.random(g, rng)
        lap = connection.laplacian(g, c)
        blocks = connection.composite_blocks(g, c)
        assert set(blocks) == {
            "nabla0_dagger_nabla0",
            "nabla0_dagger_zeta",
            "zeta_dagger_nabla0",
            "zeta_dagger_zeta",
        }
        total = sum(b for b in blocks.values())
        if g.num_edges:
            assert np.max(np.abs(lap - total)) <= 1e-12


def test_laplacian_self_adjoint_psd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_graph(rng)
        if not g.num_edges:
            continue
        lap = connection.laplacian(g, PotentialCoefficients.random(g, rng))
        assert np.max(np.abs(lap - lap.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(lap)) >= -1e-9


def test_integer_unit_laplacian():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = random_graph(rng)
        exact = connection.laplacian_unit_int(g)
        assert exact.dtype == np.int64
        lap = connection.laplacian(g, PotentialCoefficients.unit(g))
        if g.num_edges:
            assert np.max(np.abs(lap - exact)) <= 1e-12
