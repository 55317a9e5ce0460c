"""Finite directed graphs with cyclically ordered vertices and the module C(E).

A graph is a few integer arrays over its edges in canonical lexicographic
(source, target) order, the order in which every matrix in the package
indexes edge coordinates: sources, targets, the sorted keys source*n + target
that `find_edges` binary-searches, and out-edge offsets (CSR style) that
index the edges leaving each vertex, plus the edge pair of every valid
potential key (`edge_pairs`) and the arcs the cuts part the vertex cycle
into (`arcs`), each built on first use.  Edges are checked once,
as arrays, and an error names the first bad edge in input order (in a graph
file, its line).  The module of edge functions is a left module over vertex
functions through the source map, with the canonical positive-definite
Hermitian pairing.  Its elements are plain arrays, as the Dirac operator is
a plain matrix: an edge function has shape (..., m) and a vertex function
(..., n), any leading axes a stack, and the graph is passed alongside.
Inputs are read as complex arrays and never written into.  A vector of the
two-block Hilbert space is a plain array of shape (..., 2m); `inner_product`
is its 1/n-weighted inner product.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "Arcs",
    "DirectedCyclicGraph",
    "GraphFormatError",
    "parse_graph",
    "left_action",
    "hermitian_pairing",
    "apply_dual",
    "complete_graph_projector",
    "inner_product",
    "orthonormal_basis",
]


class GraphFormatError(ValueError):
    """Raised for malformed graph or potential text input."""


#: the most vertices for which every edge key u*n + v fits in int64
MAX_VERTICES = math.isqrt(2**63 - 1)  # 3,037,000,499


def _check_vertex_count(n: int) -> None:
    """Reject n past MAX_VERTICES, before any array of length n is built."""
    if n > MAX_VERTICES:
        raise ValueError(
            f"vertex count {n} is too large: edge keys u*n + v need n <= {MAX_VERTICES}")


def _read_rows(lines: list[str], dtype) -> np.ndarray | None:
    """The lines that are neither blank nor a comment as a structured array
    of `dtype`, read by NumPy's C reader, or None if it refuses them.  It
    splits fields where `str.split` does and reads numbers as `int()` and
    `float()` do, but refuses spellings only they take (`1_0`, non-ASCII
    digits).  A warning is a refusal: of no rows, or (NumPy 1.x) of the
    float ``1.0`` read into an integer field."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
        except (ValueError, Warning):
            return None


def _row_lineno(lines: list[str], start: int, row: int) -> int:
    """The 1-based number of the line that holds row `row` of what
    `_read_rows(lines[start:], ...)` read: the row-th line from `start` on
    that is neither blank nor a comment, so has a first character other
    than whitespace and it is not ``#``."""
    data = (k for k in range(start, len(lines)) if lines[k].lstrip()[:1] not in "#")
    return next(itertools.islice(data, row, None)) + 1


def _integer_rows(rows, width: int, bound: int) -> np.ndarray:
    """The leading rows of `rows` (a sequence or an ndarray) whose `width`
    entries are all integers, as a (k, width) int64 array: k < len(rows)
    when row k has a non-integer entry.  Integers past int64 are clipped to
    -1 or `bound`, which every caller treats as out of range."""
    arr = np.asarray(rows)
    if arr.dtype.kind in "iu" and arr.shape == (len(rows), width):
        return arr.astype(np.int64, copy=False)  # uint64 past int64 wraps below 0
    ints = []
    for row in rows:  # not an integer array: find the first non-integer entry
        if len(row) != width:
            raise ValueError(f"expected {width} entries, got {row!r}")
        try:  # integers only: int() would truncate 1.7 to vertex 1
            ints.append([operator.index(x) for x in row])
        except TypeError:
            break
    return np.clip(np.array(ints, dtype=object), -1, bound).astype(np.int64).reshape(-1, width)


def _first_bad(valid: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, int | None, bool]:
    """The sorted keys of the rows before the first one not `valid`, the
    input-order index of the first bad row (None if all are good) and
    whether it is bad as a repeat of an earlier row's key.  A stable argsort
    finds repeats; keys of rows not valid (say, with vertices out of range)
    are never compared."""
    stop = len(valid) if valid.all() else int(np.argmin(valid))
    order = np.argsort(keys[:stop], kind="stable")
    ranked = keys[:stop][order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        return ranked, int(repeats.min()), True
    return ranked, (None if stop == len(valid) else stop), False


class _BadEdge(ValueError):
    """A bad edge, the `index`-th in input order; a repeat of an earlier
    edge if `repeat`, else one with a vertex out of range."""

    def __init__(self, message: str, index: int, repeat: bool):
        super().__init__(message)
        self.index, self.repeat = index, repeat


class Arcs(NamedTuple):
    """The arcs of a graph (`DirectedCyclicGraph.arcs`), read-only integer
    arrays.  A vertex with no outgoing edge is a cut: no constraint of the
    Dirac operator links it to the vertex after it.  The cuts part the vertex
    cycle into arcs, each running from the vertex after one cut up to the
    next cut, that cut included; one cut leaves one arc of all n vertices.
    With no cut the fields describe the cycle opened at vertex 0 (arc 0,
    start 0, length n), which is not an arc: a walk may wrap past n - 1."""

    #: (k,) the cuts, ascending
    cuts: np.ndarray
    #: (n,) each vertex's arc: the index in `cuts` of the first cut at or ahead of it
    arc: np.ndarray
    #: (n,) the first vertex of each vertex's arc, the one after the cut behind it
    start: np.ndarray
    #: (n,) each vertex's place on its arc, (vertex - start) mod n
    place: np.ndarray
    #: (n,) the vertex count of each vertex's arc
    length: np.ndarray


class DirectedCyclicGraph:
    """A simple directed graph on n >= 3 cyclically ordered vertices.

    Self-loops are permitted; parallel edges are not.  The graph is a set of
    integer arrays in edge order, which is sorted by (source, target):
    `sources`, `targets`, the int64 `keys` = source*n + target (strictly
    increasing, so lookups are a binary search), the (n + 1,) out-edge
    `offsets` (the edges leaving mu are offsets[mu]:offsets[mu + 1]) and
    `out_degrees`, their differences; the `edges` tuple is derived from them.
    The constructor takes any iterable of pairs or an (m, 2) integer array;
    a ValueError names the first edge, in input order, with a non-integer
    vertex, a vertex outside 0..n-1 or a repeat of an earlier edge.
    """

    def __init__(self, n: int, edges):
        if not isinstance(n, (int, np.integer)) or n < 3:
            raise ValueError(f"need an integer vertex count n >= 3, got {n!r}")
        _check_vertex_count(n)
        rows = edges if isinstance(edges, np.ndarray) else list(edges)
        uv = _integer_rows(rows, 2, n)
        inside = ((uv >= 0) & (uv < n)).all(axis=1)
        keys, bad, repeat = _first_bad(inside, uv[:, 0] * n + uv[:, 1])
        if bad is not None:
            u, v = (operator.index(x) for x in rows[bad])
            if repeat:
                raise _BadEdge(f"duplicate edge {u}->{v}", bad, True)
            raise _BadEdge(f"edge {u}->{v} has a vertex outside 0..{n - 1}", bad, False)
        if len(uv) < len(rows):
            u, v = rows[len(uv)]
            raise ValueError(f"edge {u!r}->{v!r} has a non-integer vertex")
        self.n = int(n)
        self.keys = keys
        self.sources, self.targets = np.divmod(keys, n)
        self.offsets = np.searchsorted(self.sources, np.arange(n + 1))
        self.out_degrees = np.diff(self.offsets)
        for arr in (self.keys, self.sources, self.targets, self.offsets, self.out_degrees):
            arr.flags.writeable = False

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.sources.tolist(), self.targets.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self.keys)

    def source(self, i: int) -> int:
        return int(self.sources[i])

    def target(self, i: int) -> int:
        return int(self.targets[i])

    def find_edges(self, u, v) -> np.ndarray:
        """The index of the edge u->v for each pair of the broadcast integer
        vertex arrays u, v; -1 where there is no such edge.

        Vertices are range-checked before the key u*n + v is used: otherwise
        (0, n) would find the edge 1->0.  A non-empty vertex array that is not
        of an integer dtype is a ValueError: its key could equal an edge's, as
        1.5*4 + 0 is the key of 1->2 on four vertices.
        """
        u, v = np.asarray(u), np.asarray(v)
        for arr in (u, v):
            if arr.size and arr.dtype.kind not in "iu":
                raise ValueError(f"vertices must be integers, got an array of dtype {arr.dtype}")
        n, m = self.n, self.num_edges
        inside = (u >= 0) & (u < n) & (v >= 0) & (v < n)
        if not m:
            return np.full(inside.shape, -1)
        keys = np.where(inside, u * n + v, -1)
        at = np.minimum(self.keys.searchsorted(keys), m - 1)
        return np.where(inside & (self.keys[at] == keys), at, -1)

    def edge_index(self, u: int, v: int) -> int:
        i = int(self.find_edges(u, v))
        if i < 0:
            raise KeyError(f"no edge {u}->{v}")
        return i

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.find_edges(u, v) >= 0)

    def out_degree(self, mu: int) -> int:
        return int(self.out_degrees[mu % self.n])

    def has_self_loop(self) -> bool:
        return bool(np.any(self.sources == self.targets))

    @functools.cached_property
    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only edge indices (e, e') of mu->nu and (mu-1)->nu' for every
        valid key of a potential, in key order: edge e repeats once per edge
        leaving s(e)-1.  Built on first use and kept, since it depends on the
        graph alone."""
        back = (self.sources - 1) % self.n
        counts = self.out_degrees[back]
        edge = np.repeat(np.arange(self.num_edges), counts)
        first = np.cumsum(counts) - counts  # position of the first key of each edge
        partner = np.arange(len(edge)) + np.repeat(self.offsets[back] - first, counts)
        edge.flags.writeable = partner.flags.writeable = False
        return edge, partner

    @functools.cached_property
    def arcs(self) -> Arcs:
        """The cuts and each vertex's arc, start, place and arc length
        (`Arcs`).  Built on first use and kept, since it depends on the graph
        alone."""
        n = self.n
        cuts = np.flatnonzero(self.out_degrees == 0)
        every = np.arange(n)
        if len(cuts):
            arc = np.searchsorted(cuts, every) % len(cuts)
            start = (cuts[arc - 1] + 1) % n
            length = (cuts[arc] - start) % n + 1
        else:
            arc = start = np.zeros(n, dtype=every.dtype)
            length = np.full(n, n)
        arcs = Arcs(cuts, arc, start, (every - start) % n, length)
        for arr in arcs:
            arr.flags.writeable = False
        return arcs

    def __eq__(self, other) -> bool:
        # identity first: operators check their graphs on every call
        return self is other or (
            isinstance(other, DirectedCyclicGraph)
            and self.n == other.n
            and np.array_equal(self.keys, other.keys)
        )

    def __hash__(self):
        return hash((self.n, self.keys.tobytes()))

    def __repr__(self):
        return f"DirectedCyclicGraph(n={self.n}, edges={list(self.edges)})"


def parse_graph(text: str) -> DirectedCyclicGraph:
    """Parse the edge-list text format.

    First non-comment line is ``n <int>``; each following non-comment line is
    ``u v`` with 0-based vertices.  ``#`` starts a comment.  Errors carry the
    offending line number; of several, the earliest line's.  NumPy's C reader
    reads the edges, and a repeated edge or a vertex out of range in what it
    reads is the error of the line that holds it; the line loop reads what it
    refuses (every other bad file, and spellings such as ``1_0``), with the
    same result or error.
    """
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            break
    else:
        raise GraphFormatError("empty input: missing 'n <int>' header")
    if len(parts) != 2 or parts[0] != "n":
        raise GraphFormatError(f"line {lineno}: expected 'n <int>', got {raw!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
    if n < 3:
        raise GraphFormatError(f"line {lineno}: need n >= 3, got {n}")
    try:
        _check_vertex_count(n)
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None
    rows = _read_rows(lines[lineno:], [("uv", np.int64, 2)])
    if rows is not None:
        try:
            return DirectedCyclicGraph(n, rows["uv"])
        except _BadEdge as exc:
            raise _edge_error(exc, lines, _row_lineno(lines, lineno, exc.index), n) from None
    return _graph_from_lines(lines, n, lineno)


def _graph_from_lines(lines: list[str], n: int, start: int) -> DirectedCyclicGraph:
    """The graph on n vertices of the edge lines `lines[start:]`, by a loop
    that only tokenises: the constructor checks ranges and repeats, once."""
    linenos, vertices = [], []
    error = None  # the first syntax error: it ends the scan
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            error = f"line {lineno}: expected 'u v', got {raw!r}"
            break
        try:
            vertices += int(parts[0]), int(parts[1])
        except ValueError:
            error = f"line {lineno}: non-integer vertex in {raw!r}"
            break
        linenos.append(lineno)
    try:
        g = DirectedCyclicGraph(n, np.array(vertices).reshape(-1, 2))
    except _BadEdge as exc:
        raise _edge_error(exc, lines, linenos[exc.index], n) from None
    if error is not None:
        raise GraphFormatError(error)
    return g


def _edge_error(exc: _BadEdge, lines: list[str], lineno: int, n: int) -> GraphFormatError:
    """The error of the bad edge `exc`, read from line `lineno` of `lines`."""
    if exc.repeat:
        return GraphFormatError(f"line {lineno}: {exc}")
    return GraphFormatError(f"line {lineno}: vertex outside 0..{n - 1} in {lines[lineno - 1]!r}")


def format_graph(g: DirectedCyclicGraph) -> str:
    """Inverse of parse_graph."""
    pairs = np.stack([g.sources, g.targets], axis=1).ravel().tolist()
    return f"n {g.n}\n" + ("%d %d\n" * g.num_edges) % tuple(pairs)


def _last_axis(x, length: int, name: str = "edge function") -> np.ndarray:
    """`x` as a complex array (`x` itself if it is one: callers only read
    it), after checking that its last axis has `length` entries."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 0 or arr.shape[-1] != length:
        raise ValueError(f"{name} must have last axis of length {length}, got shape {arr.shape}")
    return arr


def left_action(g: DirectedCyclicGraph, f, x) -> np.ndarray:
    """Scale the value at edge e by f at the source of e, for a vertex
    function f of shape (..., n) and an edge function x of shape (..., m);
    stacks broadcast over their leading axes."""
    f, x = _last_axis(f, g.n, "vertex function"), _last_axis(x, g.num_edges)
    return f[..., g.sources] * x


def _scatter_add(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """out[..., index[k]] += values[..., k] for every k, in k order, where
    `out` is C-contiguous and `values` has its batch axes: one flat
    np.add.at with the batch axes folded into the index, since an ellipsis
    in the index would take NumPy's slow path."""
    batch = out.shape[:-1]
    rows = out.shape[-1] * np.arange(math.prod(batch)).reshape(*batch, 1)  # flat row starts
    np.add.at(out.reshape(-1), (rows + index).ravel(), values.ravel())


def hermitian_pairing(g: DirectedCyclicGraph, x, y) -> np.ndarray:
    """h(x, y)(mu) = sum over edges e sourced at mu of conj(y(e)) * x(e),
    summed in edge order, as an array of shape (..., n) for edge functions of
    shape (..., m) whose stacks broadcast."""
    terms = np.conj(_last_axis(y, g.num_edges)) * _last_axis(x, g.num_edges)
    out = np.zeros((*terms.shape[:-1], g.n), dtype=complex)
    _scatter_add(out, g.sources, terms)
    return out


def apply_dual(g: DirectedCyclicGraph, edge: tuple[int, int], x) -> np.ndarray:
    """Evaluate the dual-basis functional of `edge` on the edge function x of
    shape (..., m): x(e) * delta at s(e), of shape (..., n)."""
    x = _last_axis(x, g.num_edges)
    i = g.edge_index(*edge)
    out = np.zeros((*x.shape[:-1], g.n), dtype=complex)
    out[..., g.source(i)] = x[..., i]
    return out


def complete_graph_edges(n: int) -> np.ndarray:
    """All loop-free ordered pairs (u, v), lexicographically sorted, as the
    rows of an (n(n - 1), 2) array."""
    u = np.repeat(np.arange(n), n - 1)
    v = np.tile(np.arange(n - 1), n)
    return np.stack([u, v + (v >= u)], axis=1)


def complete_graph_projector(g: DirectedCyclicGraph) -> "scipy.sparse.dia_array":
    """Diagonal idempotent on the complete-graph edge space keeping E, as an
    n(n - 1)-square `scipy.sparse` diagonal array (dense, it would hold
    n^2(n - 1)^2 complex entries).

    The complete graph is loop-free, so self-loops of g are outside its edge
    set and simply do not appear.
    """
    from scipy import sparse

    full = complete_graph_edges(g.n)
    keep = (g.find_edges(full[:, 0], full[:, 1]) >= 0).astype(complex)
    return sparse.dia_array((keep[None, :], [0]), shape=(len(keep), len(keep)))


def inner_product(g: DirectedCyclicGraph, u, v) -> complex | np.ndarray:
    """The inner product (1/n) sum conj(v) u of the Hilbert space
    C(E) + Omega^{0,1}(E), linear in u, over the last axis of two arrays of
    shape (..., 2m) whose stacks broadcast; a complex for two single vectors.

    A vector is the edge-function block followed by the block whose entry at
    edge index e is the coefficient of xi[s(e)+1 -> s(e)] (x) chi_e, the
    layout on which `dirac.dirac_operator` acts.
    """
    u, v = _last_axis(u, 2 * g.num_edges, "u"), _last_axis(v, 2 * g.num_edges, "v")
    out = np.einsum("...i,...i->...", np.conj(v), u) / g.n
    return complex(out) if out.ndim == 0 else out


def orthonormal_basis(g: DirectedCyclicGraph) -> np.ndarray:
    """The sqrt(n)-scaled coordinate vectors as the rows of a (2m, 2m)
    array, top block first, canonical order."""
    return math.sqrt(g.n) * np.eye(2 * g.num_edges, dtype=complex)
