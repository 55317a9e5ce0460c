"""Holomorphic connections on the edge module and the twisted edge Laplacian.

Every operator is a dense complex ndarray in the edge-indexed bases.  The
base connection pairs every edge with its twisted partner one edge back along
the cycle, so it is the identity there and dbar = I + zeta; the potential
zeta (a left-module map with scalar coefficients) shifts mass between edges
sourced at consecutive vertices.  The Laplacian is the square of the
resulting Dirac-type operator restricted to the edge block.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .graphs import DirectedCyclicGraph, EdgeFunction, GraphFormatError

__all__ = [
    "PotentialCoefficients",
    "parse_potential",
    "zeta_operator",
    "dbar",
    "laplacian",
    "apply_laplacian_unit",
    "composite_blocks",
    "zeta_dagger_closed_form",
]


class PotentialCoefficients:
    """Coefficients c[mu, nu, nu'] of a potential on a graph.

    A key (mu, nu, nu') is valid when mu->nu and (mu-1)->nu' are edges
    (vertex arithmetic mod n).  `values` holds one coefficient per valid key,
    in key order: by the edge of mu->nu, then by the edge of (mu-1)->nu'.
    Because edges are sorted by source, this order lays the blocks C_mu end
    to end, where C_mu[i, j] = c[mu, t(e_i), t(e'_j)] over the edges e_i
    leaving mu and e'_j leaving mu-1; `block_offsets` is where each starts.
    Absent valid keys default to 0; a non-finite value is a ValueError.
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
            value = complex(value)
            if not cmath.isfinite(value):
                raise ValueError(
                    f"potential key ({mu}, {nu}, {nup}) has a non-finite value {value!r}"
                )
            self.values[self._position(mu, nu, nup)] = value

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


def zeta_operator(g: DirectedCyclicGraph, c: PotentialCoefficients) -> np.ndarray:
    """Matrix of the potential: entry (e', e) = c[s(e), t(e), t(e')] when
    s(e') = s(e) - 1 mod n, else zero."""
    if c.graph != g:
        raise ValueError("potential defined on a different graph")
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    edge, partner = PotentialCoefficients.key_edges(g)
    mat[partner, edge] = c.values
    return mat


def dbar(g: DirectedCyclicGraph, c: PotentialCoefficients) -> np.ndarray:
    """The twisted (0,1)-connection: base connection plus potential.

    The base connection maps chi_e to xi[s(e)+1 -> s(e)] (x) chi_e: of the
    full cycle sum only the term supported at s(e) survives the module
    balancing.  So it is the identity in the edge-indexed bases, and
    dbar = I + zeta.
    """
    return np.eye(g.num_edges) + zeta_operator(g, c)


def laplacian(g: DirectedCyclicGraph, c: PotentialCoefficients) -> np.ndarray:
    """The twisted edge Laplacian dbar^dagger dbar on the edge block.

    The conjugate transpose is the Hilbert adjoint because both blocks carry
    the same uniform 1/n weight, so the basis Gram matrix is a multiple of
    the identity.
    """
    d = dbar(g, c)
    return d.conj().T @ d


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


def zeta_dagger_closed_form(g: DirectedCyclicGraph, c: PotentialCoefficients) -> np.ndarray:
    """Maps the bottom basis vector at edge mu->nu to
    sum over edges mu+1->nu' of conj(c[mu+1, nu', nu]) chi[mu+1->nu']:
    the block of rows leaving mu and columns leaving mu-1 is conj(C_mu)."""
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    for here, back, block in _vertex_blocks(g, c):
        mat[here, back] = block.conj()
    return mat


def composite_blocks(g: DirectedCyclicGraph, c: PotentialCoefficients) -> dict[str, np.ndarray]:
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
        "nabla0_dagger_nabla0": np.eye(m, dtype=complex),
        "nabla0_dagger_zeta": nd_zeta,
        "zeta_dagger_nabla0": zd_nabla,
        "zeta_dagger_zeta": zd_zeta,
    }


def laplacian_unit_int(g: DirectedCyclicGraph) -> np.ndarray:
    """Unit-potential Laplacian assembled in exact integer arithmetic."""
    a = np.eye(g.num_edges, dtype=np.int64)
    edge, partner = PotentialCoefficients.key_edges(g)
    a[partner, edge] += 1
    return a.T @ a
