"""Dirac operator, commutators and the induced metric on vertices.

D = [[0, dbar^dagger], [dbar, 0]], with dbar = I + zeta, and its commutators
with vertex functions are dense complex 2m x 2m ndarrays.  A vertex function
is a plain array of shape (n,), as in `graphs`.

The distance between two vertices (as pure states) is the supremum of
|f(mu) - f(nu)| over functions whose Dirac commutator has operator norm at
most one.  The commutator only sees differences of f across the cycle
segments {lam, lam+1} of vertices lam that carry an outgoing edge, so the
supremum collapses to a closed form on the cycle cut at every vertex with no
outgoing edge: the number of steps of the shorter of the forward and the
backward walk from mu to nu that crosses no cut, or infinity when both do.
The whole matrix is this closed form entry by entry: k = (nu - mu) mod n
forward steps, n - k backward steps, each infinite where it reaches past the
first cut ahead of its start.

An independent numeric route brackets the whole distance matrix at once.
Upper bound: the unit ball only allows |f(lam) - f(lam+1)| <= 1 on those
segments, and for a target nu the real functions obeying this with f(nu) = 0
and f <= n are closed under pointwise max.  So the one maximiser of
sum_mu f(mu) over them is their pointwise largest member: d(., nu) on nu's
constraint component, and the cap n elsewhere, where no constraint links mu
to nu and the distance is unbounded.  The layout of these programs follows
the cuts.  With no cut the rows are invariant under rotation, so one program
with n variables, for column 0, gives every column by f_nu(mu) = f_0(mu - nu).
With cuts, a variable off its column's arc (the stretch of the cycle between
two cuts) shares no row with those on it and sits at the cap, so each column
keeps the variables of its arc alone and the columns are stacked
block-diagonally: sum over the arcs C of |C|^2 variables, still n^2 with a
single cut.  Lower bound: a single
function of the unit ball is a witness for every pair it separates, so the
column maximiser, rescaled by an upper bound on the norm of its commutator,
certifies its whole column with one norm; the indicator of a constraint
component commutes with D, so every multiple of it is in the ball, and one
norm per component certifies its unbounded entries.  No pair is left open:
the potential entries of [D, f] cancel, so its norm is the largest step of f
across those segments, at most one for the column maximiser, whose
certificate thus equals the upper bound on every finite pair.

Each norm is bounded from the m + K nonzero entries (K valid potential keys)
of the m x m block Y of [D, f].  D = [[0, dbar^dagger], [dbar, 0]] and f acts
as diag(f o s, f o (s+1)), so for a real f (not a complex one) [D, f] =
[[0, -Y^dagger], [Y, 0]] with Y[e', e] = dbar[e', e] (f(s(e)) - f(s(e')+1)),
and ||[D, f]|| = ||Y|| <= sqrt(||Y||_1 ||Y||_inf), the Schur test, which is
exact on the diagonal Y.  The certified functions are real, so the bracket
builds neither D nor dbar and takes no SVD.

SciPy is imported only inside the functions that use it, so the exact
distances and everything else outside the numeric bracket load on numpy
alone (the operator norms are numpy's SVD).  `linprog` is a module-level
function that forwards to SciPy's `milp`, HiGHS with no integer variable,
because it is the seam at which the benchmark's tracer
(`perfbench/spans.py`) wraps the LP solver, by this name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import PotentialCoefficients, dbar
from .graphs import DirectedCyclicGraph, _last_axis

__all__ = [
    "DistanceResult",
    "dirac_operator",
    "commutator_with_function",
    "operator_norm",
    "connes_distance",
    "distance_bracket",
]

@dataclass(frozen=True, eq=False)
class DistanceResult:
    """Distance value (math.inf when unbounded) with a witness attaining it
    under the unit commutator-norm constraint: a real vertex function, an
    (n,) array, or None when the distance is unbounded."""

    value: float
    witness: np.ndarray | None = None


def dirac_operator(g: DirectedCyclicGraph, c: PotentialCoefficients) -> np.ndarray:
    """Self-adjoint block anti-diagonal operator [[0, dbar^dagger], [dbar, 0]]
    on the full space, a complex 2m x 2m ndarray."""
    a = dbar(g, c)
    m = g.num_edges
    full = np.zeros((2 * m, 2 * m), dtype=complex)
    full[:m, m:] = np.conj(a.T)
    full[m:, :m] = a
    return full


def _norm_bound(g: DirectedCyclicGraph, c: PotentialCoefficients, f: np.ndarray) -> float:
    """The Schur test sqrt(||Y||_1 ||Y||_inf) >= ||[D, f]|| for a real vertex
    function `f`, from the m diagonal entries and the K potential entries of Y."""
    m = g.num_edges
    edge, partner = g.edge_pairs
    cols = np.concatenate([np.arange(m), edge])  # e, for the entries (e', e) of Y
    rows = np.concatenate([np.arange(m), partner])  # e'
    coefficients = np.concatenate([np.ones(m), c.values])  # dbar[e', e]
    entries = np.abs(coefficients * (f[g.sources[cols]] - f[(g.sources[rows] + 1) % g.n]))
    return math.sqrt(np.bincount(cols, entries, m).max(initial=0.0)
                     * np.bincount(rows, entries, m).max(initial=0.0))


def commutator_with_function(D: np.ndarray, f, g: DirectedCyclicGraph) -> np.ndarray:
    """[D, f] for a vertex function f of shape (n,), acting diagonally on
    both blocks; a stack of shape (..., n) gives the stack of commutators."""
    f = _last_axis(f, g.n, "vertex function")
    if D.shape[0] != 2 * g.num_edges:
        raise ValueError("operator does not act on the full space of this graph")
    # f at each edge's source on the top block, one step ahead on the bottom
    diag = f[..., np.concatenate([g.sources, (g.sources + 1) % g.n])]
    # factored difference: entries whose two diagonal values coincide vanish
    # exactly, making the result bitwise independent of the potential
    return D * (diag[..., np.newaxis, :] - diag[..., :, np.newaxis])


def operator_norm(M) -> float | np.ndarray:
    """Largest singular value of a matrix, a float; of a stack of shape
    (..., r, c), an array of shape (...), from one batched SVD."""
    mat = np.asarray(M, dtype=complex)
    if 0 in mat.shape[-2:]:
        norms = np.zeros(mat.shape[:-2])
    else:
        norms = np.linalg.svd(mat, compute_uv=False)[..., 0]
    return float(norms) if mat.ndim == 2 else norms


def linprog(*args, **kwargs):
    """`scipy.optimize.milp`, imported on the first call: HiGHS, here with no
    integer variable, so the LP solver without `scipy.optimize.linprog`'s
    per-call set-up."""
    from scipy.optimize import milp

    return milp(*args, **kwargs)


def _walks(g: DirectedCyclicGraph, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Distances from each vertex of `start` (rows) to each vertex of `end`
    (columns): the shorter of the forward walk lam -> lam+1 from mu to nu,
    k = (nu - mu) mod n steps, and the one from nu to mu, n - k steps, where a
    walk that crosses a cut (the segment {lam, lam+1} of a vertex lam with no
    outgoing edge) is inf."""
    n = g.n
    cut = np.tile(g.out_degrees == 0, 2)
    # steps from each vertex to the first cut at or ahead of it (2n: none)
    next_cut = np.minimum.accumulate(np.where(cut, np.arange(2 * n), 2 * n)[::-1])[::-1]
    room = next_cut[:n] - np.arange(n)
    dist = np.subtract.outer(-start, -end, dtype=float)  # nu - mu at (mu, nu)
    np.add(dist, n, out=dist, where=dist < 0)  # k, mod n without a division
    # one float array and boolean masks: the backward walk, n - k steps (n on
    # the diagonal, never taken there), replaces k where it crosses no cut and
    # is shorter or the forward walk crosses one
    back_open = dist >= n - room[end]  # n - k <= room[nu]
    ahead_cut = dist > room[start, None]
    take_back = dist > n / 2  # n - k < k
    take_back |= ahead_cut
    take_back &= back_open
    np.subtract(n, dist, out=dist, where=take_back)
    np.copyto(dist, np.inf, where=ahead_cut > back_open)  # cut ahead and behind
    return dist


def connes_distance(g: DirectedCyclicGraph, mu: int, nu: int) -> DistanceResult:
    """Exact distance between the integer vertices mu and nu, with a witness
    function."""
    if not all(isinstance(x, (int, np.integer)) and 0 <= x < g.n for x in (mu, nu)):
        raise ValueError(f"vertices must be integers in 0..{g.n - 1}, got ({mu}, {nu})")
    dist = _walks(g, np.arange(g.n), np.array([nu]))[:, 0]
    value = float(dist[mu])
    if math.isinf(value):
        return DistanceResult(math.inf, None)
    # clamped path-distance function: 1-Lipschitz across every constraint
    # edge, difference at (mu, nu) equal to the distance
    witness = np.minimum(dist, value)
    return DistanceResult(value, witness)


def distance_bracket(g: DirectedCyclicGraph,
                     c: PotentialCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Independent numeric bracket (lower, upper) of the whole distance
    matrix, inf where unbounded (see the module docstring): one call to the
    LP solver, with n variables for column 0 when no vertex is a cut and one
    block per column on its arc otherwise, one certified column maximiser
    per target and one indicator per constraint component.  No pair
    is left open: the commutator norm of f is its largest step across a
    constraint segment, so each column maximiser certifies its own column.
    Each norm is the Schur test on the nonzero entries of the block Y of
    [D, f], exact because Y is diagonal."""
    from scipy import sparse

    if c.graph != g:
        raise ValueError("potential defined on a different graph")
    n = g.n
    cut = g.out_degrees == 0
    if cut.any():
        # column nu on its arc: from the vertex after the last cut behind nu
        # to the first cut at or ahead of it
        ends = np.flatnonzero(cut)
        ahead = np.searchsorted(ends, np.arange(n))
        start = (ends[ahead - 1] + 1) % n
        size = (ends[ahead % len(ends)] - start) % n + 1
    else:
        start, size = np.zeros(1, dtype=int), np.array([n])  # column 0 on the cycle
    col = np.repeat(np.arange(len(size)), size)  # the column of each variable
    vertex = (start[col] + np.arange(len(col)) - (np.cumsum(size) - size)[col]) % n
    # one row -1 <= f(lam) - f(lam+1) <= 1 per segment: the last variable of
    # an arc is its cut, so lam + 1 stays in the arc, and wraps only on the cycle
    lam = np.flatnonzero(~cut[vertex])
    pairs = np.stack([lam, (lam + 1) % len(col)], axis=1).ravel()  # two entries per row
    blocks = sparse.csr_array((np.tile([1.0, -1.0], len(lam)), pairs,
                               np.arange(0, len(pairs) + 1, 2)), shape=(len(lam), len(col)))
    gauge = vertex == col  # f(nu) = 0 in column nu
    res = linprog(-np.ones(len(col)), constraints=(blocks, -1.0, 1.0),
                  bounds=(np.where(gauge, 0.0, -np.inf), np.where(gauge, 0.0, float(n))))
    if res.status != 0:
        raise RuntimeError(f"distance LP failed with status {res.status}: {res.message}")
    if cut.any():  # row nu: the maximiser of column nu, the cap n off its arc
        witnesses = np.full((n, n), float(n))
        witnesses[col, vertex] = res.x
    else:  # rotation maps column 0 onto column nu: f_nu(mu) = f_0(mu - nu)
        witnesses = res.x[(np.arange(n) - np.arange(n)[:, None]) % n]
    upper = np.where(witnesses.T >= n - 0.5, np.inf, witnesses.T)

    lower = np.empty((n, n))
    for nu, f in enumerate(witnesses):
        scaled = f / max(1.0, _norm_bound(g, c, f))
        lower[:, nu] = np.abs(scaled - scaled[nu])
    finite = np.isfinite(upper)  # row mu: the indicator of mu's component
    components, label = np.unique(finite, axis=0, return_inverse=True)
    for k, comp in enumerate(components):
        if not comp.all():
            free = _norm_bound(g, c, comp * 1.0) <= 1e-9  # every multiple is in the ball
            lower[np.ix_(label == k, ~comp)] = math.inf if free else 0.0
    return lower, upper


def all_pairs_distances(g: DirectedCyclicGraph) -> np.ndarray:
    """Matrix of vertex distances; math.inf marks unbounded pairs.  Entry
    (mu, nu) is the shorter of the forward walks mu -> nu and nu -> mu, each
    inf where it crosses a cut, in closed form per entry."""
    every = np.arange(g.n)
    return _walks(g, every, every)
