"""Holomorphic connections on the edge module and the twisted edge Laplacian.

The base connection pairs every edge with its twisted partner one edge back
along the cycle; a potential (a left-module map with scalar coefficients)
shifts mass between edges sourced at consecutive vertices.  The Laplacian is
the square of the resulting Dirac-type operator restricted to the edge block.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .graphs import DirectedCyclicGraph, EdgeFunction, GraphFormatError
from .operators import DenseOperator, Space, adjoint

__all__ = [
    "PotentialCoefficients",
    "parse_potential",
    "base_connection",
    "zeta_operator",
    "dbar",
    "adjoint",
    "laplacian",
    "apply_laplacian_unit",
    "composite_blocks",
    "zeta_dagger_closed_form",
    "nabla0_dagger_closed_form",
]


class PotentialCoefficients:
    """Coefficients c[mu, nu, nu'] of a potential on a graph.

    A key (mu, nu, nu') is valid when mu->nu and (mu-1)->nu' are edges
    (vertex arithmetic mod n).  `values` holds one coefficient per valid key,
    in key order: by the edge of mu->nu, then by the edge of (mu-1)->nu'.
    Because edges are sorted by source, this order lays the blocks C_mu end
    to end, where C_mu[i, j] = c[mu, t(e_i), t(e'_j)] over the edges e_i
    leaving mu and e'_j leaving mu-1; `block_offsets` is where each starts.
    Absent valid keys default to 0.
    """

    def __init__(self, graph: DirectedCyclicGraph, entries=None):
        self.graph = graph
        sizes = graph.out_degrees * np.roll(graph.out_degrees, 1)
        self.block_offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.values = np.zeros(self.block_offsets[-1], dtype=complex)
        for key, value in dict(entries or {}).items():
            try:  # integers only: int() would truncate 1.9 to vertex 1
                mu, nu, nup = (operator.index(k) for k in key)
            except TypeError:
                raise ValueError(f"potential key {key!r} has a non-integer vertex") from None
            if not self.is_valid_key(graph, mu, nu, nup):
                raise ValueError(
                    f"invalid potential key ({mu}, {nu}, {nup}): needs edges "
                    f"{mu}->{nu} and {(mu - 1) % graph.n}->{nup}"
                )
            self.values[self._position(mu, nu, nup)] = complex(value)

    @staticmethod
    def is_valid_key(graph: DirectedCyclicGraph, mu: int, nu: int, nup: int) -> bool:
        return graph.has_edge(mu, nu) and graph.has_edge((mu - 1) % graph.n, nup)

    @staticmethod
    def key_edges(graph: DirectedCyclicGraph) -> tuple[np.ndarray, np.ndarray]:
        """Edge indices (e, e') of mu->nu and (mu-1)->nu' for every valid key,
        in key order: edge e repeats once per edge leaving s(e)-1."""
        back = (graph.sources - 1) % graph.n
        counts = graph.out_degrees[back]
        edge = np.repeat(np.arange(graph.num_edges), counts)
        first = np.cumsum(counts) - counts  # position of the first key of each edge
        partner = np.arange(len(edge)) + np.repeat(graph.offsets[back] - first, counts)
        return edge, partner

    @classmethod
    def valid_keys(cls, graph: DirectedCyclicGraph) -> np.ndarray:
        """The valid keys as rows (mu, nu, nu') of an integer array, in key order."""
        edge, partner = cls.key_edges(graph)
        return np.stack(
            [graph.sources[edge], graph.targets[edge], graph.targets[partner]], axis=1
        )

    @classmethod
    def unit(cls, graph: DirectedCyclicGraph) -> "PotentialCoefficients":
        c = cls(graph)
        c.values[:] = 1.0
        return c

    @classmethod
    def zero(cls, graph: DirectedCyclicGraph) -> "PotentialCoefficients":
        return cls(graph)

    @classmethod
    def random(cls, graph: DirectedCyclicGraph, rng: np.random.Generator) -> "PotentialCoefficients":
        c = cls(graph)
        c.values[:] = rng.standard_normal(len(c.values)) + 1j * rng.standard_normal(len(c.values))
        return c

    def _position(self, mu: int, nu: int, nup: int) -> int:
        g, prev = self.graph, (mu - 1) % self.graph.n
        row = g.edge_index(mu, nu) - g.offsets[mu]
        col = g.edge_index(prev, nup) - g.offsets[prev]
        return int(self.block_offsets[mu] + row * g.out_degrees[prev] + col)

    def block(self, mu: int) -> np.ndarray:
        """C_mu: rows are the edges leaving mu, columns those leaving mu-1."""
        shape = (self.graph.out_degree(mu), self.graph.out_degree(mu - 1))
        return self.values[self.block_offsets[mu]:self.block_offsets[mu + 1]].reshape(shape)

    def get(self, mu: int, nu: int, nup: int) -> complex:
        if not self.is_valid_key(self.graph, mu, nu, nup):
            return 0.0 + 0.0j
        return complex(self.values[self._position(mu, nu, nup)])


def parse_potential(text: str, graph: DirectedCyclicGraph) -> PotentialCoefficients:
    """Parse lines ``mu nu nuP re im``; ``#`` starts a comment.  Each triple
    may appear at most once."""
    c = PotentialCoefficients(graph)
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise GraphFormatError(f"line {lineno}: expected 'mu nu nuP re im', got {raw!r}")
        try:
            mu, nu, nup = int(parts[0]), int(parts[1]), int(parts[2])
            re, im = float(parts[3]), float(parts[4])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed values in {raw!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise GraphFormatError(f"line {lineno}: non-finite coefficient in {raw!r}")
        try:  # a key is valid exactly when both of its edges exist
            position = c._position(mu, nu, nup)
        except KeyError:
            raise GraphFormatError(
                f"line {lineno}: invalid potential triple ({mu}, {nu}, {nup})"
            ) from None
        if position in seen:
            raise GraphFormatError(
                f"line {lineno}: duplicate potential triple ({mu}, {nu}, {nup})"
            )
        seen.add(position)
        c.values[position] = complex(re, im)
    return c


def base_connection(g: DirectedCyclicGraph) -> DenseOperator:
    """The base connection; the identity pattern in the edge-indexed bases.

    chi_e maps to xi[s(e)+1 -> s(e)] (x) chi_e: of the full cycle sum only the
    term supported at s(e) survives the module balancing.
    """
    m = g.num_edges
    return DenseOperator(np.eye(m, dtype=complex), Space.TOP, Space.BOTTOM)


def zeta_operator(g: DirectedCyclicGraph, c: PotentialCoefficients) -> DenseOperator:
    """Matrix of the potential: entry (e', e) = c[s(e), t(e), t(e')] when
    s(e') = s(e) - 1 mod n, else zero."""
    if c.graph != g:
        raise ValueError("potential defined on a different graph")
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    edge, partner = PotentialCoefficients.key_edges(g)
    mat[partner, edge] = c.values
    return DenseOperator(mat, Space.TOP, Space.BOTTOM)


def dbar(g: DirectedCyclicGraph, c: PotentialCoefficients) -> DenseOperator:
    """The twisted (0,1)-connection: base connection plus potential."""
    return base_connection(g) + zeta_operator(g, c)


def laplacian(g: DirectedCyclicGraph, c: PotentialCoefficients) -> DenseOperator:
    """The twisted edge Laplacian adjoint(dbar) @ dbar on the edge block."""
    d = dbar(g, c)
    return adjoint(d) @ d


def apply_laplacian_unit(g: DirectedCyclicGraph, f: EdgeFunction) -> EdgeFunction:
    """Matrix-free unit-potential Laplacian.

    L(f)(e) = f(e) + deg(s(e)-1) * sum of f over edges with the same source
    as e, plus the sums of f over edges sourced one step behind and one step
    ahead of s(e) along the cycle.
    """
    if f.graph != g:
        raise ValueError("edge function lives on a different graph")
    n = g.n
    source_sum = np.zeros(n, dtype=complex)
    np.add.at(source_sum, g.sources, f.values)
    prev, nxt = (g.sources - 1) % n, (g.sources + 1) % n
    out = (
        f.values
        + g.out_degrees[prev] * source_sum[g.sources]
        + source_sum[prev]
        + source_sum[nxt]
    )
    return EdgeFunction(g, out)


# ----------------------------------------------------------------- closed forms
# Independent assembly of the adjoint and composite operators from their
# displayed formulas, one vertex block C_mu at a time; used as oracles against
# the conjugate-transpose route, so they share none of its scatter indices.

def _vertex_blocks(g: DirectedCyclicGraph, c: PotentialCoefficients):
    """(edges leaving mu, edges leaving mu-1, C_mu) for every vertex mu."""
    off = g.offsets
    for mu in range(g.n):
        prev = (mu - 1) % g.n
        yield slice(off[mu], off[mu + 1]), slice(off[prev], off[prev + 1]), c.block(mu)


def nabla0_dagger_closed_form(g: DirectedCyclicGraph) -> DenseOperator:
    """Maps xi[s(e)+1 -> s(e)] (x) chi_e back to chi_e."""
    m = g.num_edges
    return DenseOperator(np.eye(m, dtype=complex), Space.BOTTOM, Space.TOP)


def zeta_dagger_closed_form(g: DirectedCyclicGraph, c: PotentialCoefficients) -> DenseOperator:
    """Maps the bottom basis vector at edge mu->nu to
    sum over edges mu+1->nu' of conj(c[mu+1, nu', nu]) chi[mu+1->nu']:
    the block of rows leaving mu and columns leaving mu-1 is conj(C_mu)."""
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    for here, back, block in _vertex_blocks(g, c):
        mat[here, back] = block.conj()
    return DenseOperator(mat, Space.BOTTOM, Space.TOP)


def composite_blocks(g: DirectedCyclicGraph, c: PotentialCoefficients) -> dict[str, DenseOperator]:
    """The four composite operators on the edge block, from their formulas:
    per vertex mu, C_mu^T, conj(C_mu) and conj(C_mu) C_mu^T between the edges
    leaving mu and mu-1.  Their sum equals the twisted edge Laplacian."""
    m = g.num_edges
    nd_zeta = np.zeros((m, m), dtype=complex)
    zd_nabla = np.zeros((m, m), dtype=complex)
    zd_zeta = np.zeros((m, m), dtype=complex)
    for here, back, block in _vertex_blocks(g, c):
        nd_zeta[back, here] = block.T
        zd_nabla[here, back] = block.conj()
        zd_zeta[here, here] = block.conj() @ block.T
    return {
        "nabla0_dagger_nabla0": DenseOperator(np.eye(m, dtype=complex), Space.TOP, Space.TOP),
        "nabla0_dagger_zeta": DenseOperator(nd_zeta, Space.TOP, Space.TOP),
        "zeta_dagger_nabla0": DenseOperator(zd_nabla, Space.TOP, Space.TOP),
        "zeta_dagger_zeta": DenseOperator(zd_zeta, Space.TOP, Space.TOP),
    }


def laplacian_unit_int(g: DirectedCyclicGraph) -> np.ndarray:
    """Unit-potential Laplacian assembled in exact integer arithmetic."""
    a = np.eye(g.num_edges, dtype=np.int64)
    edge, partner = PotentialCoefficients.key_edges(g)
    a[partner, edge] += 1
    return a.T @ a
