"""Dirac operator, commutators and the induced metric on vertices.

The distance between two vertices (as pure states) is the supremum of
|f(mu) - f(nu)| over functions whose Dirac commutator has operator norm at
most one.  The commutator only sees differences of f across the cycle
segments {lam, lam+1} of vertices lam that carry an outgoing edge, so the
supremum collapses to a closed form on the cycle cut at every vertex with no
outgoing edge: the number of steps of the shorter of the forward and the
backward walk from mu to nu that crosses no cut, or infinity when both do.

An independent numeric route brackets the whole distance matrix at once.
Upper bound: the unit ball only allows |f(lam) - f(lam+1)| <= 1 on those
segments, and for a target nu the real functions obeying this with f(nu) = 0
and f <= n are closed under pointwise max.  So the one maximiser of
sum_mu f(mu) over them is their pointwise largest member: d(., nu) on nu's
constraint component, and the cap n elsewhere, where no constraint links mu
to nu and the distance is unbounded.  One linear program per column, all n
stacked block-diagonally, gives every upper bound.  Lower bound: a single
function of the unit ball is a witness for every pair it separates, so the
column maximiser, rescaled by the measured operator norm of its dense
commutator, certifies its whole column with one norm; the indicator of a
constraint component commutes with D, so every multiple of it is in the ball,
and one norm per component certifies its unbounded entries.  Projected ascent
refines any pair left open.

SciPy is imported only inside the functions that use it, so the exact
distances and everything else outside the numeric bracket and the operator
norms load on numpy alone.  `linprog` is a module-level function that
forwards to SciPy's because it is the seam at which the benchmark's tracer
(`perfbench/spans.py`) wraps the LP solver, by this name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "distance_bracket",
]

#: projected-ascent hyperparameters (fixed for oracle reproducibility)
ASCENT_STEP = 0.1
ASCENT_RESTARTS = 8
DEFAULT_ITERS = 10_000
#: rows per step of the in-place symmetrisation in all_pairs_distances
ROW_BLOCK = 256


@dataclass(frozen=True, eq=False)
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
    from scipy.linalg import svdvals

    mat = M.matrix if isinstance(M, DenseOperator) else np.asarray(M, dtype=complex)
    if mat.size == 0:
        return 0.0
    return float(svdvals(mat)[0])


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _forward_walks(g: DirectedCyclicGraph, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Steps of the forward walk lam -> lam+1 from each vertex of `start`
    (rows) to each vertex of `end` (columns), inf where the walk crosses a
    cut: the segment {lam, lam+1} of a vertex lam with no outgoing edge."""
    n = g.n
    cut = np.tile(g.out_degrees == 0, 2)
    # steps from each vertex to the first cut at or ahead of it (2n: none)
    next_cut = np.minimum.accumulate(np.where(cut, np.arange(2 * n), 2 * n)[::-1])[::-1]
    room = next_cut[:n] - np.arange(n)
    steps = np.subtract.outer(-start, -end, dtype=float)  # nu - mu at (mu, nu)
    steps %= n
    steps[steps > room[start, None]] = np.inf
    return steps


def _distances_from(g: DirectedCyclicGraph, mu: int) -> np.ndarray:
    """Distances from mu to every vertex: the shorter open walk, where the
    backward walk from mu to nu is the forward walk from nu to mu."""
    every, here = np.arange(g.n), np.array([mu])
    return np.minimum(_forward_walks(g, here, every)[0], _forward_walks(g, every, here)[:, 0])


def connes_distance(g: DirectedCyclicGraph, mu: int, nu: int) -> DistanceResult:
    """Exact distance between vertices mu and nu, with a witness function."""
    if not (0 <= mu < g.n and 0 <= nu < g.n):
        raise ValueError(f"vertices must lie in 0..{g.n - 1}, got ({mu}, {nu})")
    dist = _distances_from(g, nu)
    value = float(dist[mu])
    if math.isinf(value):
        return DistanceResult(math.inf, None)
    # clamped path-distance function: 1-Lipschitz across every constraint
    # edge, difference at (mu, nu) equal to the distance
    witness = np.minimum(dist, value)
    return DistanceResult(value, VertexFunction(g.n, witness))


def distance_bracket(g: DirectedCyclicGraph, c: PotentialCoefficients,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Independent numeric bracket (lower, upper) of the whole distance
    matrix, inf where unbounded (see the module docstring): one linear program
    per target vertex, all stacked block-diagonally, one certified column
    maximiser per target and one indicator per constraint component.
    Projected ascent (seeded from `seed` for each pair) runs only for finite
    pairs whose bracket is still open."""
    from scipy import sparse

    n = g.n
    D = dirac_operator(g, c)

    def norm(f):  # of the dense commutator [D, f]
        return operator_norm(commutator_with_function(D, VertexFunction(n, f), g))

    # rows e_lam - e_(lam+1) and their negatives, interleaved, once per column
    lam = np.flatnonzero(g.out_degrees)
    segments = np.eye(n)[lam] - np.eye(n)[(lam + 1) % n]
    rows = np.stack([segments, -segments], axis=1).reshape(-1, n)
    blocks = sparse.kron(sparse.eye_array(n), rows, format="csr")
    bounds = np.tile([-np.inf, float(n)], (n * n, 1))
    bounds[:: n + 1] = 0.0  # f(nu) = 0 in column nu: the gauge of each column
    res = linprog(-np.ones(n * n), A_ub=blocks, b_ub=np.ones(blocks.shape[0]),
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"distance LP failed with status {res.status}: {res.message}")
    witnesses = res.x.reshape(n, n)  # row nu: the maximiser of column nu
    upper = np.where(witnesses.T >= n - 0.5, np.inf, witnesses.T)

    lower = np.empty((n, n))
    for nu, f in enumerate(witnesses):
        scaled = f / max(1.0, norm(f))
        lower[:, nu] = np.abs(scaled - scaled[nu])
    finite = np.isfinite(upper)  # row mu: the indicator of mu's component
    components, label = np.unique(finite, axis=0, return_inverse=True)
    for k, comp in enumerate(components):
        if not comp.all():
            lower[np.ix_(label == k, ~comp)] = math.inf if norm(comp * 1.0) <= 1e-9 else 0.0
    for mu, nu in np.argwhere(finite)[upper[finite] - lower[finite] > 1e-9]:
        lower[mu, nu] = _ascend(norm, n, mu, nu, lower[mu, nu], upper[mu, nu], seed)
    return lower, upper


def _ascend(norm, n: int, mu: int, nu: int, best: float, upper: float, seed: int) -> float:
    """Best |f(mu) - f(nu)| seen by projected ascent in the ball norm(f) <= 1,
    starting from `best` and stopping once within 1e-9 of `upper`."""
    rng = np.random.default_rng(seed)
    grad = np.zeros(n)
    grad[mu] = 1.0
    grad[nu] = -1.0
    for _ in range(ASCENT_RESTARTS):
        if upper - best <= 1e-9:
            break
        f = rng.standard_normal(n)
        for _ in range(DEFAULT_ITERS // ASCENT_RESTARTS):
            f = f + ASCENT_STEP * grad
            nrm = norm(f)
            if nrm > 1.0:
                f = f / nrm
            best = max(best, abs(float(f[mu] - f[nu])))
            if upper - best <= 1e-9:
                break
    return best


def all_pairs_distances(g: DirectedCyclicGraph) -> np.ndarray:
    """Matrix of vertex distances; math.inf marks unbounded pairs.  Entry
    (mu, nu) is the shorter of the forward walks mu -> nu and nu -> mu, taken
    in place one row block at a time so that a single n x n array is live."""
    every = np.arange(g.n)
    dist = _forward_walks(g, every, every)
    for start in range(0, g.n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        np.minimum(dist[rows], dist[:, rows].T, out=dist[rows])
    return dist
