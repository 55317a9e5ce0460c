"""Shared helpers: random graphs and potentials for property-style tests."""

import numpy as np

from kahleredge import connection
from kahleredge.graphs import DirectedCyclicGraph


def random_graph(rng: np.random.Generator, max_n: int = 8,
                 full_out_degree: bool = False,
                 allow_loops: bool = True) -> DirectedCyclicGraph:
    """Random directed graph on a random n in 3..max_n with a random edge set."""
    n = int(rng.integers(3, max_n + 1))
    prob = float(rng.uniform(0.2, 0.7))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if (allow_loops or u != v) and rng.random() < prob
    ]
    if full_out_degree:
        have = {u for u, _ in edges}
        for u in range(n):
            if u not in have:
                edges.append((u, int((u + 1 + rng.integers(n - 1)) % n)))
    return DirectedCyclicGraph(n, sorted(set(edges)))


def random_edge_values(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def unit_potential(g: DirectedCyclicGraph) -> np.ndarray:
    """The unit potential: 1 at every valid key."""
    return connection.potential(g) + 1.0


def random_potential(g: DirectedCyclicGraph, rng: np.random.Generator) -> np.ndarray:
    """Complex standard normals at the valid keys, in key order: the k real
    parts are drawn first, then the k imaginary parts."""
    return random_edge_values(rng, len(connection.potential(g)))
