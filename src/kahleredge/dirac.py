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
first cut ahead of its start, computed as floats with math.inf
(`all_pairs_distances`, and a column of it for `connes_distance`).

An independent numeric route brackets the whole distance matrix at once.
Upper bound: the unit ball only allows |f(lam) - f(lam+1)| <= 1 on those
segments, and for a target nu the real functions obeying this with f(nu) = 0
and f <= n are closed under pointwise max.  So the one maximiser of
sum_mu f(mu) over them is their pointwise largest member: d(., nu) on nu's
constraint component, and the cap n elsewhere, where no constraint links mu
to nu and the distance is unbounded.  One program, of at most n variables
and n rows, gives every column; its layout follows the cuts.  With no cut
the rows are invariant under rotation, so the program on the cycle for
column 0 gives every column by f_nu(mu) = f_0(mu - nu).  With cuts the rows
form disjoint paths, the arcs: each runs from the vertex after one cut to the
next cut, at place p = 0, 1, ... along it.  A variable off its column's arc
shares no row with those on it and sits at the cap.  On the arc, f(nu) = 0
splits the column into the part ahead of nu and the part behind it, which
share no row, and each is an anchored path: a path whose first vertex is
fixed at 0.  Projecting the feasible set of the anchored path of L vertices
onto its first k gives the anchored path of k vertices, since a feasible
prefix extends by holding its last value, under the same cap n.  Projection
is monotone, so the pointwise largest member of the long path restricts to
that of the short one: every member of the short path extends to one of the
long path, which lies below the long path's largest member.  So one anchored
path g with as many vertices as the longest arc gives both parts of every
column, f_nu(mu) = g(|p(mu) - p(nu)|) on nu's arc and the cap n off it.

Lower bound: a single function of the unit ball is a witness for every pair
it separates.  A column maximiser reads a window of the program's path x,
and its other steps cross cuts, which the norm skips, so its norm is at most
s, the largest step of x along the program's rows (the cycle's wrap
included) or 1 if that is less: divided by s, every column maximiser
certifies its whole column.  The indicator of an arc certifies every
unbounded pair: it changes value only across a segment {lam, lam+1} whose
ends lie on different arcs, every such lam ends its arc, so it is a cut,
with no outgoing edge, and the norm skips its step.  So the indicator
commutes with D, every multiple of it is in the ball, and both bounds are
inf off each pair's arc.  No pair is left open: x steps by at most one, so
s = 1 and the lower bound equals the upper on every finite pair.  Both
bounds are windows over the offsets o = 1-M..M-1, M the longest arc
(`bracket_windows`): the pair (mu, nu) reads cell p(nu) - p(mu) on nu's
arc, nu - mu on the cycle, with no n x n array.

Each norm is the largest step of its function.  D = [[0, dbar^dagger],
[dbar, 0]] and f acts as diag(f o s, f o (s+1)), so for a real f (not a
complex one) [D, f] = [[0, -Y^dagger], [Y, 0]] with Y[e', e] = dbar[e', e]
(f(s(e)) - f(s(e')+1)).  Off the diagonal dbar is zeta, nonzero only where
s(e') + 1 = s(e), and there the factor is exactly 0: Y is diagonal, with
Y[e, e] = f(s(e)) - f(s(e)+1), and ||[D, f]|| = ||Y|| is the largest
|f(lam) - f(lam+1)| over the vertices lam with an outgoing edge, under
every potential.  So the bracket takes the graph alone, builds neither D
nor dbar and takes no SVD.

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
    "bracket_windows",
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
    outgoing edge) is unbounded.  A float array of whole numbers 0..n-1, and
    math.inf where both walks cross a cut."""
    n = g.n
    arcs = g.arcs
    # steps from each vertex to the first cut at or ahead of it (n: none)
    room = arcs.length - 1 - arcs.place if len(arcs.cuts) else np.full(n, n)
    dist = np.subtract.outer(-start, -end, dtype=np.float64)  # nu - mu at (mu, nu)
    np.add(dist, n, out=dist, where=dist < 0)  # k, mod n without a division
    # one array and boolean masks: the backward walk, n - k steps (n on the
    # diagonal, never taken there), replaces k where it crosses no cut and
    # is shorter or the forward walk crosses one
    back_open = dist >= n - room[end]  # n - k <= room[nu]
    ahead_cut = dist > room[start, None]
    take_back = dist > n // 2  # n - k < k
    take_back |= ahead_cut
    take_back &= back_open
    np.subtract(n, dist, out=dist, where=take_back)
    np.copyto(dist, math.inf, where=ahead_cut > back_open)  # cut ahead and behind
    return dist


def connes_distance(g: DirectedCyclicGraph, mu: int, nu: int) -> DistanceResult:
    """Exact distance between the integer vertices mu and nu, with a witness
    function."""
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < g.n
               for x in (mu, nu)):
        raise ValueError(f"vertices must be integers in 0..{g.n - 1}, got ({mu}, {nu})")
    dist = _walks(g, np.arange(g.n), np.array([nu]))[:, 0]
    value = float(dist[mu])
    if math.isinf(value):
        return DistanceResult(math.inf, None)
    # clamped path-distance function: 1-Lipschitz across every constraint
    # edge, difference at (mu, nu) equal to the distance
    witness = np.minimum(dist, value)
    return DistanceResult(value, witness)


def _bracket_path(g: DirectedCyclicGraph) -> tuple[np.ndarray, float]:
    """The path x of the bracket's one program, from one call to the LP
    solver (the cycle of n variables with no cut, else the anchored path of
    the longest arc), and its scale s (the module docstring)."""
    from scipy import sparse

    size = int(g.arcs.length.max())  # n on the cycle
    segments = size - 1 if len(g.arcs.cuts) else size
    # one row -1 <= f(k) - f(k+1) <= 1 per segment, wrapping only on the cycle
    k = np.arange(segments)
    pairs = np.stack([k, (k + 1) % size], axis=1).ravel()  # two entries per row
    rows = sparse.csr_array((np.tile([1.0, -1.0], segments), pairs,
                             np.arange(0, len(pairs) + 1, 2)), shape=(segments, size))
    gauge = np.arange(size) == 0  # f(0) = 0
    res = linprog(-np.ones(size), constraints=(rows, -1.0, 1.0),
                  bounds=(np.where(gauge, 0.0, -np.inf), np.where(gauge, 0.0, float(g.n))))
    if res.status != 0:
        raise RuntimeError(f"distance LP failed with status {res.status}: {res.message}")
    steps = np.abs(res.x[pairs[::2]] - res.x[pairs[1::2]])
    return res.x, max(1.0, float(steps.max(initial=0.0)))


def bracket_windows(g: DirectedCyclicGraph) -> tuple[np.ndarray, np.ndarray]:
    """The bracket as windows over the offsets o = 1-M..M-1, M the longest
    arc (n on the cycle): (lower, upper).  upper is x[|o|] (x[-o mod n] on
    the cycle), inf at the cap, and lower |x/s - x[0]/s| read the same way.
    Off its arc a row is inf in both (the module docstring)."""
    n = g.n
    x, s = _bracket_path(g)
    offset = np.arange(1 - len(x), len(x))
    at = np.abs(offset) if len(g.arcs.cuts) else -offset % n
    upper = np.where(x >= n - 0.5, np.inf, x)[at]
    lower = np.abs(x / s - x[0] / s)[at]
    return lower, upper


def distance_bracket(g: DirectedCyclicGraph) -> tuple[np.ndarray, np.ndarray]:
    """Independent numeric bracket (lower, upper) of the whole distance
    matrix, inf where unbounded: `bracket_windows` read at each pair's
    offset, and inf off nu's arc."""
    _, arc, _, place, length = g.arcs
    index = place - place[:, None] + int(length.max()) - 1  # cell of p(nu) - p(mu)
    lower, upper = (window[index] for window in bracket_windows(g))
    off = arc[:, None] != arc  # never on the cycle, one arc
    lower[off] = upper[off] = np.inf
    return lower, upper


def all_pairs_distances(g: DirectedCyclicGraph) -> np.ndarray:
    """Matrix of vertex distances as floats; math.inf marks unbounded pairs.
    Entry (mu, nu) is the shorter of the forward walks mu -> nu and
    nu -> mu, each unbounded where it crosses a cut, in closed form per
    entry."""
    every = np.arange(g.n)
    return _walks(g, every, every)
