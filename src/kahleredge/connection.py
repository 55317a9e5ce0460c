"""Holomorphic connections on the edge module and the twisted edge Laplacian.

The base connection pairs every edge with its twisted partner one edge back
along the cycle; a potential (a left-module map with scalar coefficients)
shifts mass between edges sourced at consecutive vertices.  The Laplacian is
the square of the resulting Dirac-type operator restricted to the edge block.
"""

from __future__ import annotations

import math

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
    """Sparse coefficients c[mu, nu, nu'] of a potential on a graph.

    A key (mu, nu, nu') is valid when mu->nu and (mu-1)->nu' are edges
    (vertex arithmetic mod n).  Absent valid keys default to 0.
    """

    def __init__(self, graph: DirectedCyclicGraph, entries=None):
        self.graph = graph
        self.entries: dict[tuple[int, int, int], complex] = {}
        for key, value in dict(entries or {}).items():
            mu, nu, nup = (int(k) for k in key)
            if not self.is_valid_key(graph, mu, nu, nup):
                raise ValueError(
                    f"invalid potential key ({mu}, {nu}, {nup}): needs edges "
                    f"{mu}->{nu} and {(mu - 1) % graph.n}->{nup}"
                )
            self.entries[(mu, nu, nup)] = complex(value)

    @staticmethod
    def is_valid_key(graph: DirectedCyclicGraph, mu: int, nu: int, nup: int) -> bool:
        return graph.has_edge(mu, nu) and graph.has_edge((mu - 1) % graph.n, nup)

    @classmethod
    def valid_keys(cls, graph: DirectedCyclicGraph):
        for mu, nu in graph.edges:
            prev = (mu - 1) % graph.n
            for mu2, nup in graph.edges:
                if mu2 == prev:
                    yield (mu, nu, nup)

    @classmethod
    def unit(cls, graph: DirectedCyclicGraph) -> "PotentialCoefficients":
        return cls(graph, {key: 1.0 for key in cls.valid_keys(graph)})

    @classmethod
    def zero(cls, graph: DirectedCyclicGraph) -> "PotentialCoefficients":
        return cls(graph, {})

    @classmethod
    def random(cls, graph: DirectedCyclicGraph, rng: np.random.Generator) -> "PotentialCoefficients":
        keys = list(cls.valid_keys(graph))
        vals = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
        return cls(graph, dict(zip(keys, vals)))

    def get(self, mu: int, nu: int, nup: int) -> complex:
        return self.entries.get((mu, nu, nup), 0.0 + 0.0j)


def parse_potential(text: str, graph: DirectedCyclicGraph) -> PotentialCoefficients:
    """Parse lines ``mu nu nuP re im``; ``#`` starts a comment."""
    entries: dict[tuple[int, int, int], complex] = {}
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
        if not PotentialCoefficients.is_valid_key(graph, mu, nu, nup):
            raise GraphFormatError(
                f"line {lineno}: invalid potential triple ({mu}, {nu}, {nup})"
            )
        entries[(mu, nu, nup)] = complex(re, im)
    return PotentialCoefficients(graph, entries)


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
    for (mu, nu, nup), value in c.entries.items():
        e = g.edge_index(mu, nu)
        ep = g.edge_index((mu - 1) % g.n, nup)
        mat[ep, e] = value
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
    out = np.zeros(g.num_edges, dtype=complex)
    source_sum = np.zeros(n, dtype=complex)
    np.add.at(source_sum, g.sources, f.values)
    for e in range(g.num_edges):
        mu = g.source(e)
        prev, nxt = (mu - 1) % n, (mu + 1) % n
        out[e] = (
            f.values[e]
            + g.out_degree(prev) * source_sum[mu]
            + source_sum[prev]
            + source_sum[nxt]
        )
    return EdgeFunction(g, out)


# ----------------------------------------------------------------- closed forms
# Independent assembly of the adjoint and composite operators from their
# displayed formulas; used as oracles against the conjugate-transpose route.

def nabla0_dagger_closed_form(g: DirectedCyclicGraph) -> DenseOperator:
    """Maps xi[s(e)+1 -> s(e)] (x) chi_e back to chi_e."""
    m = g.num_edges
    return DenseOperator(np.eye(m, dtype=complex), Space.BOTTOM, Space.TOP)


def zeta_dagger_closed_form(g: DirectedCyclicGraph, c: PotentialCoefficients) -> DenseOperator:
    """Maps the bottom basis vector at edge mu->nu to
    sum over edges mu+1->nu' of conj(c[mu+1, nu', nu]) chi[mu+1->nu']."""
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    for e in range(m):
        mu, nu = g.source(e), g.target(e)
        up = (mu + 1) % g.n
        for ep in g.edges_from(up):
            nup = g.target(ep)
            mat[ep, e] = np.conj(c.get(up, nup, nu))
    return DenseOperator(mat, Space.BOTTOM, Space.TOP)


def composite_blocks(g: DirectedCyclicGraph, c: PotentialCoefficients) -> dict[str, DenseOperator]:
    """The four composite operators on the edge block, from their formulas.

    Their sum equals the twisted edge Laplacian.
    """
    m = g.num_edges
    n = g.n

    nd_nabla = np.eye(m, dtype=complex)

    nd_zeta = np.zeros((m, m), dtype=complex)
    for e in range(m):
        mu, nu = g.source(e), g.target(e)
        prev = (mu - 1) % n
        for ep in g.edges_from(prev):
            nd_zeta[ep, e] = c.get(mu, nu, g.target(ep))

    zd_nabla = np.zeros((m, m), dtype=complex)
    for e in range(m):
        mu, nu = g.source(e), g.target(e)
        up = (mu + 1) % n
        for ep in g.edges_from(up):
            zd_nabla[ep, e] = np.conj(c.get(up, g.target(ep), nu))

    zd_zeta = np.zeros((m, m), dtype=complex)
    for e in range(m):
        mu, nu = g.source(e), g.target(e)
        prev = (mu - 1) % n
        for epp in g.edges_from(mu):
            total = 0.0 + 0.0j
            for emid in g.edges_from(prev):
                nup = g.target(emid)
                total += c.get(mu, nu, nup) * np.conj(c.get(mu, g.target(epp), nup))
            zd_zeta[epp, e] = total

    return {
        "nabla0_dagger_nabla0": DenseOperator(nd_nabla, Space.TOP, Space.TOP),
        "nabla0_dagger_zeta": DenseOperator(nd_zeta, Space.TOP, Space.TOP),
        "zeta_dagger_nabla0": DenseOperator(zd_nabla, Space.TOP, Space.TOP),
        "zeta_dagger_zeta": DenseOperator(zd_zeta, Space.TOP, Space.TOP),
    }


def laplacian_unit_int(g: DirectedCyclicGraph) -> np.ndarray:
    """Unit-potential Laplacian assembled in exact integer arithmetic."""
    m = g.num_edges
    a = np.eye(m, dtype=np.int64)
    for (mu, nu, nup) in PotentialCoefficients.valid_keys(g):
        e = g.edge_index(mu, nu)
        ep = g.edge_index((mu - 1) % g.n, nup)
        a[ep, e] += 1
    return a.T @ a
