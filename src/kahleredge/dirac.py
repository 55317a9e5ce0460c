"""Dirac operator, commutators and the induced metric on vertices.

The distance between two vertices (as pure states) is the supremum of
|f(mu) - f(nu)| over functions whose Dirac commutator has operator norm at
most one.  The commutator only sees differences of f across consecutive
vertices that carry an outgoing edge, so the supremum collapses to a
shortest-path distance on an undirected cycle-segment graph; an independent
numeric route (linear programming upper bound plus a norm-certified witness
refined by projected ascent) brackets the same value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals
from scipy.optimize import linprog

from .connection import PotentialCoefficients, dbar
from .graphs import DirectedCyclicGraph
from .operators import DenseOperator, Space, adjoint
from .polygon import VertexFunction

__all__ = [
    "DistanceResult",
    "dirac_operator",
    "commutator_with_function",
    "operator_norm",
    "connes_distance",
    "connes_distance_numeric",
    "constraint_adjacency",
]

#: projected-ascent hyperparameters (fixed for oracle reproducibility)
ASCENT_STEP = 0.1
ASCENT_RESTARTS = 8
DEFAULT_ITERS = 10_000


@dataclass(frozen=True)
class DistanceResult:
    """Distance value (math.inf when unbounded) with an optional witness
    function attaining it under the unit commutator-norm constraint."""

    value: float
    witness: VertexFunction | None = None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def dirac_operator(g: DirectedCyclicGraph, c: PotentialCoefficients) -> DenseOperator:
    """Self-adjoint block anti-diagonal operator on the full space."""
    a = dbar(g, c).matrix
    m = g.num_edges
    full = np.zeros((2 * m, 2 * m), dtype=complex)
    full[:m, m:] = np.conj(a.T)
    full[m:, :m] = a
    return DenseOperator(full, Space.FULL, Space.FULL)


def _diagonal_action(g: DirectedCyclicGraph, f: np.ndarray) -> np.ndarray:
    """The action of a vertex function on the full space: the top block is
    scaled by f at the edge source, the bottom block by f one step ahead."""
    top = f[g.sources]
    bottom = f[(g.sources + 1) % g.n]
    return np.concatenate([top, bottom])


def commutator_with_function(D: DenseOperator, f: VertexFunction,
                             g: DirectedCyclicGraph) -> DenseOperator:
    """[D, f] with f acting diagonally on both blocks."""
    if f.n != g.n:
        raise ValueError(f"vertex count mismatch: {f.n} != {g.n}")
    if D.rows != 2 * g.num_edges:
        raise ValueError("operator does not act on the full space of this graph")
    diag = _diagonal_action(g, f.values)
    # factored difference: entries whose two diagonal values coincide vanish
    # exactly, making the result bitwise independent of the potential
    mat = D.matrix * (diag[np.newaxis, :] - diag[:, np.newaxis])
    return DenseOperator(mat, Space.FULL, Space.FULL)


def operator_norm(M) -> float:
    """Largest singular value."""
    mat = M.matrix if isinstance(M, DenseOperator) else np.asarray(M, dtype=complex)
    if mat.size == 0:
        return 0.0
    return float(svdvals(mat)[0])


def constraint_adjacency(g: DirectedCyclicGraph) -> list[set[int]]:
    """Undirected unit-length edges {lam, lam+1} for every vertex lam with an
    outgoing edge; the metric on vertices is the shortest-path metric here."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for lam in range(g.n):
        if g.out_degree(lam) >= 1:
            nxt = (lam + 1) % g.n
            adj[lam].add(nxt)
            adj[nxt].add(lam)
    return adj


def _bfs_distances(adj: list[set[int]], start: int) -> np.ndarray:
    dist = np.full(len(adj), np.inf)
    dist[start] = 0.0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if math.isinf(dist[v]):
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


def connes_distance(g: DirectedCyclicGraph, mu: int, nu: int) -> DistanceResult:
    """Exact distance between vertices mu and nu, with a witness function."""
    if not (0 <= mu < g.n and 0 <= nu < g.n):
        raise ValueError(f"vertices must lie in 0..{g.n - 1}, got ({mu}, {nu})")
    dist = _bfs_distances(constraint_adjacency(g), nu)
    value = float(dist[mu])
    if math.isinf(value):
        return DistanceResult(math.inf, None)
    # clamped path-distance function: 1-Lipschitz across every constraint
    # edge, difference at (mu, nu) equal to the distance
    witness = np.minimum(dist, value)
    witness[np.isinf(witness)] = value
    return DistanceResult(value, VertexFunction(g.n, witness))


def _certified_value(D: DenseOperator, g: DirectedCyclicGraph,
                     f: np.ndarray, mu: int, nu: int) -> float:
    """|f(mu) - f(nu)| after rescaling f into the unit commutator-norm ball,
    with the norm measured on the dense commutator itself."""
    nrm = operator_norm(commutator_with_function(D, VertexFunction(g.n, f), g))
    scaled = f / max(1.0, nrm)
    return abs(float(scaled[mu].real) - float(scaled[nu].real))


def connes_distance_numeric(g: DirectedCyclicGraph, c: PotentialCoefficients,
                            mu: int, nu: int, iters: int = DEFAULT_ITERS,
                            seed: int = 0) -> tuple[float, float]:
    """Independent numeric bracket (lower, upper) for the vertex distance.

    Upper bound: linear program over real f maximizing f(mu) - f(nu) under
    |f(lam) - f(lam+1)| <= 1 for every vertex lam with an outgoing edge; each
    of these constraints is implied by the unit commutator-norm ball (apply
    the commutator to the basis vector of any edge sourced at lam), so the LP
    optimum dominates the supremum.

    Lower bound: best certified witness, where certification rescales a
    candidate by the measured operator norm of its dense commutator.
    Candidates are the LP maximizer and projected-ascent iterates (fixed step,
    seeded random restarts); ascent stops early once the bracket closes.
    """
    if not (0 <= mu < g.n and 0 <= nu < g.n):
        raise ValueError(f"vertices must lie in 0..{g.n - 1}, got ({mu}, {nu})")
    if mu == nu:
        return (0.0, 0.0)
    n = g.n
    D = dirac_operator(g, c)

    rows = []
    for lam in range(n):
        if g.out_degree(lam) >= 1:
            row = np.zeros(n)
            row[lam] = 1.0
            row[(lam + 1) % n] = -1.0
            rows.append(row)
            rows.append(-row)
    objective = np.zeros(n)
    objective[mu] = -1.0
    objective[nu] = 1.0
    bounds = [(None, None)] * n
    bounds[nu] = (0.0, 0.0)  # gauge: the problem is translation invariant
    if rows:
        res = linprog(objective, A_ub=np.array(rows), b_ub=np.ones(len(rows)),
                      bounds=bounds, method="highs")
    else:
        res = linprog(objective, bounds=bounds, method="highs")

    if res.status == 3 or (res.status == 0 and -res.fun > 1e12):
        # relaxation unbounded: certify genuine unboundedness with an
        # indicator of mu's constraint component, which must commute with D
        dist = _bfs_distances(constraint_adjacency(g), mu)
        indicator = np.where(np.isfinite(dist), 1.0, 0.0)
        nrm = operator_norm(commutator_with_function(D, VertexFunction(n, indicator), g))
        lower = math.inf if nrm <= 1e-9 else 0.0
        return (lower, math.inf)
    if res.status != 0:
        raise RuntimeError(f"distance LP failed with status {res.status}: {res.message}")
    upper = float(-res.fun)

    best = _certified_value(D, g, np.asarray(res.x, dtype=float), mu, nu)
    rng = np.random.default_rng(seed)
    per_restart = max(1, iters // ASCENT_RESTARTS)
    grad = np.zeros(n)
    grad[mu] = 1.0
    grad[nu] = -1.0
    for _ in range(ASCENT_RESTARTS):
        if upper - best <= 1e-9:
            break
        f = rng.standard_normal(n)
        for _ in range(per_restart):
            f = f + ASCENT_STEP * grad
            nrm = operator_norm(commutator_with_function(D, VertexFunction(n, f), g))
            if nrm > 1.0:
                f = f / nrm
            best = max(best, abs(float(f[mu] - f[nu])))
            if upper - best <= 1e-9:
                break
    return (best, upper)


def all_pairs_distances(g: DirectedCyclicGraph) -> np.ndarray:
    """Matrix of vertex distances; math.inf marks unbounded pairs."""
    adj = constraint_adjacency(g)
    out = np.empty((g.n, g.n))
    for nu in range(g.n):
        out[:, nu] = _bfs_distances(adj, nu)
    return out
