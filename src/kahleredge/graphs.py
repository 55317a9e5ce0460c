"""Finite directed graphs with cyclically ordered vertices and the module C(E).

Edges are kept in canonical lexicographic (source, target) order; every matrix
in the package indexes edge coordinates in that order, and out-edge offsets
(CSR style) index the edges leaving each vertex.  The module of edge
functions is a left module over vertex functions through the source map, with
the canonical positive-definite Hermitian pairing and the 1/n-weighted inner
product on the two-block Hilbert space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .polygon import VertexFunction

__all__ = [
    "DirectedCyclicGraph",
    "EdgeFunction",
    "HilbertVector",
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


class DirectedCyclicGraph:
    """A simple directed graph on n >= 3 cyclically ordered vertices.

    Self-loops are permitted; parallel edges are not.  Edge order is sorted
    lexicographically by (source, target).  `offsets` is the (n + 1,) array
    of out-edge offsets (the edges leaving mu are offsets[mu]:offsets[mu + 1])
    and `out_degrees` its differences.
    """

    def __init__(self, n: int, edges):
        if not isinstance(n, (int, np.integer)) or n < 3:
            raise ValueError(f"need an integer vertex count n >= 3, got {n!r}")
        cleaned = []
        for u, v in edges:
            try:  # integers only: int() would truncate 1.7 to vertex 1
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"edge {u!r}->{v!r} has a non-integer vertex") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}->{v} has a vertex outside 0..{n - 1}")
            cleaned.append((u, v))
        cleaned.sort()
        for a, b in zip(cleaned, cleaned[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a[0]}->{a[1]}")
        self.n = int(n)
        self.edges = tuple(cleaned)
        self.sources = np.array([e[0] for e in cleaned], dtype=int)
        self.targets = np.array([e[1] for e in cleaned], dtype=int)
        self._index = {e: i for i, e in enumerate(cleaned)}
        self.offsets = np.searchsorted(self.sources, np.arange(self.n + 1))
        self.out_degrees = np.diff(self.offsets)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def source(self, i: int) -> int:
        return int(self.sources[i])

    def target(self, i: int) -> int:
        return int(self.targets[i])

    def edge_index(self, u: int, v: int) -> int:
        try:
            return self._index[(u, v)]
        except KeyError:
            raise KeyError(f"no edge {u}->{v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._index

    def out_degree(self, mu: int) -> int:
        return int(self.out_degrees[mu % self.n])

    def has_self_loop(self) -> bool:
        return bool(np.any(self.sources == self.targets))

    def edges_from(self, mu: int):
        """Edge indices sourced at vertex mu, in canonical order."""
        mu %= self.n
        return list(range(self.offsets[mu], self.offsets[mu + 1]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedCyclicGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"DirectedCyclicGraph(n={self.n}, edges={list(self.edges)})"


def parse_graph(text: str) -> DirectedCyclicGraph:
    """Parse the edge-list text format.

    First non-comment line is ``n <int>``; each following non-comment line is
    ``u v`` with 0-based vertices.  ``#`` starts a comment.  Errors carry the
    offending line number.
    """
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphFormatError(f"line {lineno}: expected 'n <int>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 3:
                raise GraphFormatError(f"line {lineno}: need n >= 3, got {n}")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex outside 0..{n - 1} in {raw!r}")
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u}->{v}")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("empty input: missing 'n <int>' header")
    return DirectedCyclicGraph(n, edges)


def format_graph(g: DirectedCyclicGraph) -> str:
    """Inverse of parse_graph."""
    lines = [f"n {g.n}"] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class EdgeFunction:
    """A complex function on the edge set, in canonical edge order."""

    graph: DirectedCyclicGraph
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=complex)
        if arr.shape != (self.graph.num_edges,):
            raise ValueError(
                f"edge function must have length {self.graph.num_edges}, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @staticmethod
    def chi(graph: DirectedCyclicGraph, u: int, v: int) -> "EdgeFunction":
        values = np.zeros(graph.num_edges, dtype=complex)
        values[graph.edge_index(u, v)] = 1.0
        return EdgeFunction(graph, values)

    @staticmethod
    def zero(graph: DirectedCyclicGraph) -> "EdgeFunction":
        return EdgeFunction(graph, np.zeros(graph.num_edges, dtype=complex))

    def __add__(self, other: "EdgeFunction") -> "EdgeFunction":
        self._check(other)
        return EdgeFunction(self.graph, self.values + other.values)

    def __sub__(self, other: "EdgeFunction") -> "EdgeFunction":
        self._check(other)
        return EdgeFunction(self.graph, self.values - other.values)

    def __mul__(self, scalar) -> "EdgeFunction":
        return EdgeFunction(self.graph, self.values * complex(scalar))

    __rmul__ = __mul__

    def _check(self, other: "EdgeFunction"):
        if self.graph != other.graph:
            raise ValueError("edge functions live on different graphs")


@dataclass(frozen=True, eq=False)
class HilbertVector:
    """Element of the two-block Hilbert space.

    `top` holds the edge-function block; `bottom` holds, at edge index e, the
    coefficient of xi[s(e)+1 -> s(e)] (x) chi_e.
    """

    graph: DirectedCyclicGraph
    top: np.ndarray
    bottom: np.ndarray

    def __post_init__(self):
        m = self.graph.num_edges
        for name in ("top", "bottom"):
            arr = np.array(getattr(self, name), dtype=complex)
            if arr.shape != (m,):
                raise ValueError(f"{name} block must have length {m}, got shape {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @staticmethod
    def from_blocks(graph, top=None, bottom=None) -> "HilbertVector":
        m = graph.num_edges
        z = np.zeros(m, dtype=complex)
        return HilbertVector(graph, z if top is None else top, z if bottom is None else bottom)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.top, self.bottom])


def left_action(f: VertexFunction, x: EdgeFunction) -> EdgeFunction:
    """Scale the value at edge e by f at the source of e."""
    if f.n != x.graph.n:
        raise ValueError(f"vertex count mismatch: {f.n} != {x.graph.n}")
    return EdgeFunction(x.graph, f.values[x.graph.sources] * x.values)


def hermitian_pairing(x: EdgeFunction, y: EdgeFunction) -> VertexFunction:
    """h(x, y)(mu) = sum over edges e sourced at mu of conj(y(e)) * x(e)."""
    x._check(y)
    g = x.graph
    out = np.zeros(g.n, dtype=complex)
    np.add.at(out, g.sources, np.conj(y.values) * x.values)
    return VertexFunction(g.n, out)


def apply_dual(g: DirectedCyclicGraph, edge: tuple[int, int], x: EdgeFunction) -> VertexFunction:
    """Evaluate the dual-basis functional of `edge` on x: x(e) * delta at s(e)."""
    if x.graph != g:
        raise ValueError("edge function lives on a different graph")
    i = g.edge_index(*edge)
    out = np.zeros(g.n, dtype=complex)
    out[g.source(i)] = x.values[i]
    return VertexFunction(g.n, out)


def complete_graph_edges(n: int) -> list[tuple[int, int]]:
    """All loop-free ordered pairs, lexicographically sorted."""
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def complete_graph_projector(g: DirectedCyclicGraph) -> np.ndarray:
    """Diagonal idempotent on the complete-graph edge space keeping E.

    The complete graph is loop-free, so self-loops of g are outside its edge
    set and simply do not appear.
    """
    full = complete_graph_edges(g.n)
    diag = np.array([1.0 if g.has_edge(u, v) else 0.0 for u, v in full], dtype=complex)
    return np.diag(diag)


def inner_product(u: HilbertVector, v: HilbertVector) -> complex:
    """(1/n) times the coordinate pairing of both blocks; linear in u."""
    if u.graph != v.graph:
        raise ValueError("vectors live on different graphs")
    n = u.graph.n
    return complex(
        (np.vdot(v.top, u.top) + np.vdot(v.bottom, u.bottom)) / n
    )


def orthonormal_basis(g: DirectedCyclicGraph) -> list[HilbertVector]:
    """sqrt(n)-scaled coordinate vectors, top block first, canonical order."""
    m = g.num_edges
    s = math.sqrt(g.n)
    basis = []
    for i in range(m):
        top = np.zeros(m, dtype=complex)
        top[i] = s
        basis.append(HilbertVector.from_blocks(g, top=top))
    for i in range(m):
        bottom = np.zeros(m, dtype=complex)
        bottom[i] = s
        basis.append(HilbertVector.from_blocks(g, bottom=bottom))
    return basis
