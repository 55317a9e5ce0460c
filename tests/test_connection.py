"""Potentials, the twisted connection and the edge Laplacian."""

import numpy as np
import pytest

from kahleredge import connection, graphs
from kahleredge.connection import PotentialCoefficients
from kahleredge.graphs import DirectedCyclicGraph, EdgeFunction
from kahleredge.operators import adjoint

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


# ----------------------------------------------------------------- operators

def test_base_connection_is_identity_pattern():
    g = ngon(3)
    assert np.allclose(connection.base_connection(g).matrix, np.eye(3))


def test_zeta_zero_potential_and_dbar():
    g = ngon(4)
    zero = PotentialCoefficients.zero(g)
    assert np.allclose(connection.zeta_operator(g, zero).matrix, 0.0)
    assert np.allclose(
        connection.dbar(g, zero).matrix, connection.base_connection(g).matrix
    )


def test_zeta_unit_on_directed_3gon():
    # chi_{1->2} maps to xi_{1->0} (x) chi_{0->1}: the only edge from vertex 0
    g = ngon(3)
    z = connection.zeta_operator(g, PotentialCoefficients.unit(g))
    col = z.matrix[:, g.edge_index(1, 2)]
    expect = np.zeros(3)
    expect[g.edge_index(0, 1)] = 1.0
    assert np.allclose(col, expect)


def test_zeta_unit_on_bidirected_3gon():
    # chi_{0->1} maps to xi_{0->2} (x) (chi_{2->0} + chi_{2->1})
    g = bidirected_ngon(3)
    z = connection.zeta_operator(g, PotentialCoefficients.unit(g))
    col = z.matrix[:, g.edge_index(0, 1)]
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
    lap = connection.laplacian(g, PotentialCoefficients.unit(g)).matrix
    assert np.allclose(lap, [[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    g = ngon(4)
    lap = connection.laplacian(g, PotentialCoefficients.unit(g)).matrix
    first = np.array([2.0, 1.0, 0.0, 1.0])
    for k in range(4):
        assert np.allclose(lap[k], np.roll(first, k))


def test_laplacian_empty_edge_set():
    g = DirectedCyclicGraph(3, [])
    assert connection.laplacian(g, PotentialCoefficients.zero(g)).matrix.shape == (0, 0)


def test_apply_laplacian_unit_examples():
    g = ngon(3)
    out = connection.apply_laplacian_unit(g, EdgeFunction.chi(g, 0, 1))
    expect = (
        2.0 * EdgeFunction.chi(g, 0, 1)
        + EdgeFunction.chi(g, 1, 2)
        + EdgeFunction.chi(g, 2, 0)
    )
    assert np.allclose(out.values, expect.values)
    # constant function on the n-gon is the top eigenvector with eigenvalue 4
    for n in (3, 5, 8):
        g = ngon(n)
        ones = EdgeFunction(g, np.ones(n))
        assert np.allclose(
            connection.apply_laplacian_unit(g, ones).values, 4.0 * np.ones(n)
        )


def test_apply_laplacian_unit_matches_matrix():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_graph(rng)
        lap = connection.laplacian(g, PotentialCoefficients.unit(g)).matrix
        f = EdgeFunction(g, random_edge_values(rng, g.num_edges))
        direct = connection.apply_laplacian_unit(g, f).values
        assert np.max(np.abs(direct - lap @ f.values), initial=0.0) <= 1e-12


def test_closed_form_adjoints():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_graph(rng)
        c = PotentialCoefficients.random(g, rng)
        assert np.allclose(
            connection.nabla0_dagger_closed_form(g).matrix,
            adjoint(connection.base_connection(g)).matrix,
        )
        assert np.allclose(
            connection.zeta_dagger_closed_form(g, c).matrix,
            adjoint(connection.zeta_operator(g, c)).matrix,
        )


def test_composite_blocks_sum_to_laplacian():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_graph(rng)
        c = PotentialCoefficients.random(g, rng)
        lap = connection.laplacian(g, c).matrix
        blocks = connection.composite_blocks(g, c)
        assert set(blocks) == {
            "nabla0_dagger_nabla0",
            "nabla0_dagger_zeta",
            "zeta_dagger_nabla0",
            "zeta_dagger_zeta",
        }
        total = sum(b.matrix for b in blocks.values())
        if g.num_edges:
            assert np.max(np.abs(lap - total)) <= 1e-12


def test_laplacian_self_adjoint_psd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_graph(rng)
        if not g.num_edges:
            continue
        lap = connection.laplacian(g, PotentialCoefficients.random(g, rng)).matrix
        assert np.max(np.abs(lap - lap.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(lap)) >= -1e-9


def test_integer_unit_laplacian():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = random_graph(rng)
        exact = connection.laplacian_unit_int(g)
        assert exact.dtype == np.int64
        lap = connection.laplacian(g, PotentialCoefficients.unit(g)).matrix
        if g.num_edges:
            assert np.max(np.abs(lap - exact)) <= 1e-12
