"""Dirac operator, commutators, operator norm and the vertex metric."""

import math

import numpy as np
import pytest

from kahleredge import connection, dirac, graphs, spectra
from kahleredge.graphs import DirectedCyclicGraph

from conftest import random_graph, random_potential, unit_potential


def ngon(n):
    return DirectedCyclicGraph(n, [(mu, (mu + 1) % n) for mu in range(n)])


# ------------------------------------------------------------- Dirac operator

def test_dirac_zero_potential_pairs_blocks():
    g = ngon(3)
    d = dirac.dirac_operator(g, connection.potential(g))
    assert d.shape == (6, 6)
    assert np.allclose(d[:3, 3:], np.eye(3))
    assert np.allclose(d[3:, :3], np.eye(3))
    assert np.allclose(d[:3, :3], 0.0)
    assert np.allclose(d[3:, 3:], 0.0)


def test_dirac_self_adjoint_and_square_block_diagonal():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng)
        m = g.num_edges
        c = random_potential(g, rng)
        d = dirac.dirac_operator(g, c)
        assert np.max(np.abs(d - d.conj().T), initial=0.0) <= 1e-12
        sq = d @ d
        lap = connection.laplacian(g, c)
        if m:
            assert np.max(np.abs(sq[:m, :m] - lap)) <= 1e-12
            assert np.max(np.abs(sq[:m, m:])) <= 1e-12
            assert np.max(np.abs(sq[m:, :m])) <= 1e-12


# ---------------------------------------------------------------- commutators

def test_commutator_of_indicator_has_norm_one():
    g = ngon(3)
    d = dirac.dirac_operator(g, unit_potential(g))
    f = [1.0, 0.0, 0.0]
    com = dirac.commutator_with_function(d, f, g)
    assert dirac.operator_norm(com) == pytest.approx(1.0, abs=1e-9)


def test_commutator_is_potential_independent():
    rng = np.random.default_rng(37)
    for _ in range(10):
        g = random_graph(rng)
        f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        base = dirac.commutator_with_function(
            dirac.dirac_operator(g, connection.potential(g)), f, g
        )
        other = dirac.commutator_with_function(
            dirac.dirac_operator(g, random_potential(g, rng)), f, g
        )
        assert np.array_equal(base, other)


def test_commutator_norm_is_max_adjacent_difference():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_graph(rng)
        d = dirac.dirac_operator(g, connection.potential(g))
        f = rng.standard_normal(g.n)
        nrm = dirac.operator_norm(dirac.commutator_with_function(d, f, g))
        diffs = [abs(f[s] - f[(s + 1) % g.n]) for s in g.sources]
        assert nrm == pytest.approx(max(diffs, default=0.0), abs=1e-9)
        # a stack of vertex functions gives the stack of their commutators
        stack = dirac.commutator_with_function(d, np.stack([f, 2 * f]), g)
        assert np.array_equal(stack, [dirac.commutator_with_function(d, h, g) for h in (f, 2 * f)])


def test_operator_norm_basic():
    assert dirac.operator_norm(np.eye(4)) == pytest.approx(1.0)
    assert dirac.operator_norm(np.zeros((3, 3))) == pytest.approx(0.0)
    assert dirac.operator_norm(np.zeros((0, 0))) == pytest.approx(0.0)
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert dirac.operator_norm(a) == pytest.approx(2.0)


def test_operator_norm_matches_numpy_spectral_norm():
    rng = np.random.default_rng(43)
    for rows, cols in ((1, 5), (5, 1), (7, 3), (3, 7), (40, 40), (120, 64)):
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert dirac.operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_operator_norm_of_a_stack_is_the_norm_of_each_matrix():
    rng = np.random.default_rng(44)
    for shape in ((3, 5, 4), (2, 3, 6, 6), (4, 0, 3), (0, 2, 2)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        norms = dirac.operator_norm(a)
        assert norms.shape == shape[:-2]
        flat = a.reshape(norms.size, *shape[-2:])
        assert norms.ravel().tolist() == [dirac.operator_norm(x) for x in flat]


# -------------------------------------------------------------------- distance

def test_neighbor_distance_is_one():
    for n in (3, 4, 7):
        g = ngon(n)
        for mu in range(n):
            assert dirac.connes_distance(g, mu, (mu + 1) % n).value == 1.0


def test_5gon_distances():
    g = ngon(5)
    res = dirac.connes_distance(g, 0, 2)
    assert res.value == 2.0
    w = res.witness
    assert abs(w[0] - w[2]) == pytest.approx(2.0)
    mat = dirac.all_pairs_distances(g)
    expect = np.array(
        [[min((a - b) % 5, (b - a) % 5) for b in range(5)] for a in range(5)],
        dtype=float,
    )
    assert np.allclose(mat, expect)
    assert np.max(mat) == 2.0


def test_same_vertex_distance_zero():
    g = ngon(4)
    assert dirac.connes_distance(g, 1, 1).value == 0.0
    lower, upper = dirac.distance_bracket(g)
    assert (lower[1, 1], upper[1, 1]) == (0.0, 0.0)


def test_disconnected_pair_is_infinite():
    g = DirectedCyclicGraph(3, [(0, 1)])
    res = dirac.connes_distance(g, 1, 2)
    assert math.isinf(res.value)
    assert res.witness is None
    lower, upper = dirac.distance_bracket(g)
    assert math.isinf(lower[1, 2]) and math.isinf(upper[1, 2])


def test_witness_is_feasible_and_attaining():
    rng = np.random.default_rng(43)
    for _ in range(5):
        g = random_graph(rng, full_out_degree=True)
        d = dirac.dirac_operator(g, connection.potential(g))
        for nu in range(g.n):
            res = dirac.connes_distance(g, 0, nu)
            w = res.witness
            nrm = dirac.operator_norm(dirac.commutator_with_function(d, w, g))
            assert nrm <= 1.0 + 1e-9
            assert abs(w[0] - w[nu]) == pytest.approx(res.value)


def test_numeric_bracket_on_4gon():
    g = ngon(4)
    lower, upper = dirac.distance_bracket(g)
    lower, upper = lower[0, 2], upper[0, 2]
    assert lower <= 2.0 <= upper or abs(lower - 2.0) <= 1e-6
    assert upper - lower <= 1e-6
    assert abs(upper - 2.0) <= 1e-6


def test_numeric_bracket_matches_bfs():
    rng = np.random.default_rng(47)
    for _ in range(3):
        g = random_graph(rng, max_n=6, full_out_degree=True)
        mat = dirac.all_pairs_distances(g)
        lower, upper = dirac.distance_bracket(g)
        for nu in range(g.n):
            assert abs(lower[0, nu] - mat[0, nu]) <= 1e-6
            assert abs(upper[0, nu] - mat[0, nu]) <= 1e-6


def test_numeric_bracket_potential_independent():
    # the bracket takes the graph alone: the commutators of its column
    # maximisers (the columns of upper, the cap n in place of inf), whose
    # norms it certifies with, are equal entry for entry under every
    # potential (a vanished potential entry is c * 0.0, whose zero may carry
    # the sign of c)
    rng = np.random.default_rng(53)
    for _ in range(5):
        g = random_graph(rng)
        upper = dirac.distance_bracket(g)[1]
        f = np.where(np.isinf(upper), g.n, upper).T
        potentials = [connection.potential(g), unit_potential(g)]
        potentials += [random_potential(g, rng) for _ in range(3)]
        ref, *rest = [dirac.commutator_with_function(dirac.dirac_operator(g, c), f, g)
                      for c in potentials]
        assert all(np.array_equal(got, ref) for got in rest)


def test_numeric_bracket_takes_no_dense_route(monkeypatch):
    # vertices 3 and 4 have no out-edge, vertex 0 a self-loop and vertex 6
    # two out-edges
    g = DirectedCyclicGraph(8, [(0, 0), (0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (6, 2), (7, 0)])
    want = dirac.distance_bracket(g)

    def refuse(*args, **kwargs):
        raise AssertionError("the bracket took a dense route")

    monkeypatch.setattr(dirac, "operator_norm", refuse)
    monkeypatch.setattr(dirac, "dbar", refuse)
    got = dirac.distance_bracket(g)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert np.isinf(got[0]).any() and np.isinf(got[1]).any()


def cycle_without(n, cuts):
    """The directed n-gon with the out-edges of `cuts` removed."""
    return DirectedCyclicGraph(n, [(mu, (mu + 1) % n) for mu in range(n) if mu not in cuts])


@pytest.mark.parametrize("g, variables, rows", [
    # no cut: one program for column 0 on the cycle, the rest by rotation
    (spectra.make_circulant_regular(16, 4), 16, 16),
    # cuts 3 and 5: arcs {4, 5} and {6, ..., 9, 0, ..., 3}, a path of 8
    (cycle_without(10, {3, 5}), 8, 7),
    # one cut leaves one arc of all n vertices
    (cycle_without(7, {2}), 7, 6),
    # every vertex a cut: one variable, the gauge, and no row
    (DirectedCyclicGraph(5, []), 1, 0),
    # cuts 1 and 8: the longest arc {2, ..., 8} does not hold vertex 0
    (cycle_without(10, {1, 8}), 7, 6),
    # adjacent cuts 3 and 4: the one-vertex arc {4} and the arc {5, ..., 3}
    (cycle_without(9, {3, 4}), 8, 7),
], ids=["no-cut", "two-cuts", "one-cut", "edgeless", "longest-arc-off-0", "adjacent-cuts"])
def test_bracket_lp_layout_follows_the_cuts(monkeypatch, g, variables, rows):
    sizes = []
    solve = dirac.linprog

    def counted(c, *args, constraints, **kwargs):
        sizes.append((len(c), constraints[0].shape[0]))
        return solve(c, *args, constraints=constraints, **kwargs)

    monkeypatch.setattr(dirac, "linprog", counted)
    lower, upper = dirac.distance_bracket(g)
    assert sizes == [(variables, rows)]
    exact = dirac.all_pairs_distances(g)
    assert np.array_equal(lower, exact) and np.array_equal(upper, exact)


def test_one_cut_bracket_solves_at_most_n_variables_and_rows(monkeypatch):
    # circulant 512 4 with the out-edges of vertex 7 removed: one arc of all
    # 512 vertices; an LP over more than n variables or rows is refused
    # before it is solved
    base = spectra.make_circulant_regular(512, 4)
    g = DirectedCyclicGraph(512, [e for e in base.edges if e[0] != 7])
    solve = dirac.linprog

    def bounded(c, *args, constraints, **kwargs):
        shape = (len(c), constraints[0].shape[0])
        if max(shape) > g.n:
            raise AssertionError(f"LP of {shape[0]} variables and {shape[1]} rows at n = {g.n}")
        return solve(c, *args, constraints=constraints, **kwargs)

    monkeypatch.setattr(dirac, "linprog", bounded)
    lower, upper = dirac.distance_bracket(g)
    exact = dirac.all_pairs_distances(g)
    assert np.array_equal(lower, exact) and np.array_equal(upper, exact)


def test_vertex_bounds_checked():
    g = ngon(3)
    with pytest.raises(ValueError):
        dirac.connes_distance(g, 0, 3)
    # a non-integer vertex is rejected, not rounded or used as an index; a
    # bool is not a vertex either, though Python counts it an int
    g = DirectedCyclicGraph(4, [(1, 2), (2, 3)])
    for mu, nu in ((0.5, 2), (1, 2.0), (np.float64(1.5), 0), (True, 3), (1, False)):
        with pytest.raises(ValueError, match="integers"):
            dirac.connes_distance(g, mu, nu)
    with pytest.raises(ValueError) as err:
        dirac.connes_distance(ngon(3), True, 2)
    assert str(err.value) == "vertices must be integers in 0..2, got (True, 2)"


def test_constraint_adjacency():
    # only vertices 0 and 2 have an outgoing edge, so the unit-length
    # constraint segments are {0, 1} and {2, 3}; 1 and 3 cut the cycle
    g = DirectedCyclicGraph(4, [(0, 1), (2, 3)])
    inf = math.inf
    assert dirac.all_pairs_distances(g).tolist() == [
        [0.0, 1.0, inf, inf],
        [1.0, 0.0, inf, inf],
        [inf, inf, 0.0, 1.0],
        [inf, inf, 1.0, 0.0],
    ]
