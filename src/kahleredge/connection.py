"""Holomorphic connections on the edge module and the twisted edge Laplacian.

Every operator is a dense complex ndarray in the edge-indexed bases, and an
edge function a plain array of shape (..., m), any leading axes a stack.  The
base connection pairs every edge with its twisted partner one edge back along
the cycle, so it is the identity there and dbar = I + zeta; the potential
zeta (a left-module map with scalar coefficients) shifts mass between edges
sourced at consecutive vertices.  The Laplacian dbar^dagger dbar is the
square of the resulting Dirac-type operator restricted to the edge block; it
is written entry by entry from the potential's blocks C_mu, with no matrix
product over all edges (see `laplacian`; its diagonal blocks come from
`laplacian_blocks`, which the CLI reads to print L without the matrix), and
applied without a matrix, to one edge function or a stack of them, under
any potential (`apply_laplacian`).  Every route that places a coefficient
at its edges reads one index, the edge pair of each valid key, which depends
on the graph alone and is kept on it (`DirectedCyclicGraph.edge_pairs`).

A potential is a plain complex array of shape (k,), one coefficient per
valid key in key order (`potential`, `valid_keys`), k read from the
out-degrees alone.  Every function that takes one checks it first, through
one check (`_potential`): its shape must be (k,) and every value finite, or
it is a ValueError; the caller's array is never written into.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .graphs import (DirectedCyclicGraph, GraphFormatError, _first_bad, _integer_rows,
                     _last_axis, _read_rows, _row_lineno, _scatter_add)

__all__ = [
    "valid_keys",
    "potential",
    "parse_potential",
    "zeta_operator",
    "dbar",
    "laplacian",
    "laplacian_blocks",
    "apply_laplacian",
    "composite_blocks",
    "zeta_dagger_closed_form",
]


def valid_keys(g: DirectedCyclicGraph) -> np.ndarray:
    """The valid keys as rows (mu, nu, nu') of an integer array, in key order."""
    edge, partner = g.edge_pairs
    return np.stack([g.sources[edge], g.targets[edge], g.targets[partner]], axis=1)


def _block_offsets(g: DirectedCyclicGraph) -> np.ndarray:
    """Where each block C_mu starts in a potential, and its length k last."""
    deg = g.out_degrees
    sizes = deg * np.concatenate([deg[-1:], deg[:-1]])  # C_mu is deg(mu) x deg(mu - 1)
    return np.concatenate([[0], np.cumsum(sizes)])


def _key_positions(g: DirectedCyclicGraph, mu, nu, nup) -> np.ndarray:
    """The index in a potential of each key (mu, nu, nu') of the broadcast
    vertex arrays, -1 where the key is not valid."""
    mu = np.asarray(mu)
    prev = (mu - 1) % g.n
    edge, partner = g.find_edges([mu, prev], [nu, nup])
    mu = mu % g.n  # changes mu only where the key is invalid
    row, col = edge - g.offsets[mu], partner - g.offsets[prev]
    position = _block_offsets(g)[mu] + row * g.out_degrees[prev] + col
    return np.where((edge >= 0) & (partner >= 0), position, -1)


def potential(g: DirectedCyclicGraph, entries=None) -> np.ndarray:
    """The potential with the coefficients c[mu, nu, nu'] of `entries`, a
    mapping from keys to values, and 0 at every other valid key.

    A key (mu, nu, nu') is valid when mu->nu and (mu-1)->nu' are edges
    (vertex arithmetic mod n).  A potential is a complex array of shape (k,),
    one coefficient per valid key, in key order: by the edge of mu->nu, then
    by the edge of (mu-1)->nu'.  Because edges are sorted by source, this
    order lays the blocks C_mu end to end, where C_mu[i, j] =
    c[mu, t(e_i), t(e'_j)] over the edges e_i leaving mu and e'_j leaving
    mu-1.  Entries are checked together; a ValueError names the first key, in
    their order, that has a non-integer vertex, is not valid or has a
    non-finite value.
    """
    values = np.zeros(_block_offsets(g)[-1], dtype=complex)
    if not entries:
        return values
    entries = dict(entries)
    keys = list(entries)
    mu, nu, nup = _integer_rows(keys, 3, g.n).T
    coefficients = np.array(list(entries.values()), dtype=complex)[:len(mu)]
    positions = _key_positions(g, mu, nu, nup)
    _, bad, _ = _first_bad((positions >= 0) & np.isfinite(coefficients), positions)
    if bad is not None:
        mu, nu, nup = (operator.index(k) for k in keys[bad])
        if positions[bad] < 0:
            raise ValueError(
                f"invalid potential key ({mu}, {nu}, {nup}): needs edges "
                f"{mu}->{nu} and {(mu - 1) % g.n}->{nup}"
            )
        raise ValueError(
            f"potential key ({mu}, {nu}, {nup}) has a non-finite value {complex(coefficients[bad])!r}"
        )
    if len(mu) < len(keys):
        raise ValueError(f"potential key {keys[len(mu)]!r} has a non-integer vertex")
    values[positions] = coefficients
    return values


def _potential(g: DirectedCyclicGraph, c) -> np.ndarray:
    """`c` as a complex array (`c` itself if it is one: callers only read
    it), after checking that it is a potential on g: of shape (k,), every
    value finite."""
    arr = np.asarray(c, dtype=complex)
    k = _block_offsets(g)[-1]
    if arr.shape != (k,):
        raise ValueError(f"potential must have shape ({k},), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = np.flatnonzero(~np.isfinite(arr))[0]
        raise ValueError(f"potential has a non-finite value {complex(arr[bad])!r} at index {bad}")
    return arr


def parse_potential(text: str, graph: DirectedCyclicGraph) -> np.ndarray:
    """Parse lines ``mu nu nuP re im``; ``#`` starts a comment.  Each triple
    may appear at most once.  Errors carry the offending line number; of
    several, the earliest line's.  NumPy's C reader reads the lines, and an
    invalid or repeated triple in what it reads is the error of the line
    that holds it; the line loop reads what it refuses (every other bad
    file, and spellings such as ``1_0``), with the same result or error.
    Returns the potential, a complex (k,) array (see `potential`)."""
    lines = text.splitlines()
    rows = _read_rows(lines, [("key", np.int64, 3), ("value", np.float64, 2)])
    if rows is None or not np.isfinite(rows["value"]).all():
        return _potential_from_lines(lines, graph)
    positions = _key_positions(graph, *rows["key"].T)
    _, bad, repeat = _first_bad(positions >= 0, positions)
    if bad is not None:
        raise _triple_error(_row_lineno(lines, 0, bad), tuple(rows["key"][bad].tolist()), repeat)
    c = potential(graph)
    c[positions] = rows["value"].view(complex)[:, 0]
    return c


def _triple_error(lineno: int, key: tuple, repeat: bool) -> GraphFormatError:
    kind = "duplicate" if repeat else "invalid"
    return GraphFormatError(f"line {lineno}: {kind} potential triple {key}")


def _potential_from_lines(lines: list[str], graph: DirectedCyclicGraph) -> np.ndarray:
    """The potential of the lines, by a loop that only tokenises: keys are
    checked once, on the arrays."""
    linenos, keys, values = [], [], []
    error = None  # the first syntax error: it ends the scan
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 5:
            error = f"line {lineno}: expected 'mu nu nuP re im', got {raw!r}"
            break
        try:
            key = int(parts[0]), int(parts[1]), int(parts[2])
            re, im = float(parts[3]), float(parts[4])
        except ValueError:
            error = f"line {lineno}: malformed values in {raw!r}"
            break
        if not (math.isfinite(re) and math.isfinite(im)):
            error = f"line {lineno}: non-finite coefficient in {raw!r}"
            break
        linenos.append(lineno)
        keys.append(key)
        values.append(complex(re, im))
    positions = _key_positions(graph, *_integer_rows(keys, 3, graph.n).T)
    _, bad, repeat = _first_bad(positions >= 0, positions)
    if bad is not None:
        raise _triple_error(linenos[bad], keys[bad], repeat)
    if error is not None:
        raise GraphFormatError(error)
    c = potential(graph)
    c[positions] = values
    return c


def zeta_operator(g: DirectedCyclicGraph, c) -> np.ndarray:
    """Matrix of the potential: entry (e', e) = c[s(e), t(e), t(e')] when
    s(e') = s(e) - 1 mod n, else zero."""
    c = _potential(g, c)
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    edge, partner = g.edge_pairs
    mat[partner, edge] = c
    return mat


def dbar(g: DirectedCyclicGraph, c) -> np.ndarray:
    """The twisted (0,1)-connection: base connection plus potential.

    The base connection maps chi_e to xi[s(e)+1 -> s(e)] (x) chi_e: of the
    full cycle sum only the term supported at s(e) survives the module
    balancing.  So it is the identity in the edge-indexed bases, and
    dbar = I + zeta.
    """
    return np.eye(g.num_edges) + zeta_operator(g, c)


def laplacian(g: DirectedCyclicGraph, c) -> np.ndarray:
    """The twisted edge Laplacian dbar^dagger dbar on the edge block.

    The conjugate transpose is the Hilbert adjoint because both blocks carry
    the same uniform 1/n weight, so the basis Gram matrix is a multiple of
    the identity.

    L = I + zeta + zeta^dagger + zeta^dagger zeta, with no product over all
    edges: zeta and zeta^dagger place each coefficient c[key] at its edge
    pair (e', e) and conj(c[key]) at (e, e'), and zeta^dagger zeta + I is
    block diagonal by source (`laplacian_blocks`).  These supports, the
    entries (e', e) with s(e') equal to s(e) - 1, s(e) + 1 and s(e), are
    disjoint because n >= 3, so plain assignment places them.  Conjugating a
    coefficient gives -0 for an imaginary part of +0, and adding 0.0
    restores +0 (and turns a real part of -0 to +0), as in the product
    dbar^dagger dbar, so the unit and zero potentials give its entries bit
    for bit.  The CLI prints L row by row from the same parts, with no m x m
    array, and maps the texts of the conjugates as this sum maps their
    values.
    """
    c = _potential(g, c)
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    edge, partner = g.edge_pairs
    mat[partner, edge] = c  # zeta
    mat[edge, partner] = c.conj() + 0.0  # zeta^dagger, +0 parts: see above
    for mu, square in laplacian_blocks(g, c):
        e = (g.offsets[mu, None] + np.arange(square.shape[1]))[:, :, None]  # edges leaving mu
        mat[e, e.transpose(0, 2, 1)] = square
    return mat


def laplacian_blocks(g: DirectedCyclicGraph, c) -> list[tuple[np.ndarray, np.ndarray]]:
    """The diagonal blocks conj(C_mu) C_mu^T + I of the Laplacian under the
    potential c, a complex (k,) array, each on the edges leaving its vertex
    mu (C_mu: rows the edges leaving mu, columns those leaving mu-1, read
    from c where the out-degrees place it), as pairs (vertices, stack of
    their blocks) for every vertex with edges, one pair per distinct shape
    of C_mu.

    Vertices whose blocks C_mu share a shape share one batched matmul; the
    only loop is over the distinct shapes.  A vertex with no edge behind it
    has the identity block (its product is of empty factors, +0.0).  Only
    these entries of L can overflow (sum |c|^2 + 1 on the diagonal): a block
    not all finite raises the ValueError of an overflowing potential, with
    no floating-point warning.
    """
    c = _potential(g, c)
    starts = _block_offsets(g)
    n = g.n
    here = g.out_degrees
    back = here[(np.arange(n) - 1) % n]
    shapes = here * (n + 1) + back  # (d_mu, d_{mu-1}) as one integer
    out = []
    for shape in np.unique(shapes[here > 0]).tolist():
        d, dp = divmod(shape, n + 1)
        mu = np.flatnonzero(shapes == shape)
        block = c[starts[mu, None] + np.arange(d * dp)].reshape(len(mu), d, dp)
        with np.errstate(over="ignore", invalid="ignore"):
            square = np.matmul(block.conj() + 0.0, block.transpose(0, 2, 1))
        square.reshape(len(mu), -1)[:, :: d + 1] += 1.0  # the identity
        out.append((mu, _finite(square)))
    return out


def _finite(blocks: np.ndarray) -> np.ndarray:
    """`blocks`; the ValueError of an overflowing potential if one is not finite."""
    if not np.isfinite(blocks).all():
        raise ValueError("the Laplacian has non-finite entries: the potential overflows")
    return blocks


def apply_laplacian(g: DirectedCyclicGraph, c, f) -> np.ndarray:
    """Matrix-free twisted edge Laplacian, L f = dbar^dagger (dbar f), under
    the potential c, a complex (k,) array, on an edge function or a stack of
    them, an array of shape (..., m); returns a new complex array of the
    same shape.  Neither c nor f is written into.

    Each factor is one scatter over the valid keys, through their edge pairs
    (e, e'): dbar = I + zeta adds c[key] x(e) at e', and dbar^dagger adds
    conj(c[key]) y(e') at e.  The batch axes are folded into the scatter's
    flat index, so a stack costs one scatter per factor too.  A potential
    that overflows the Laplacian (`laplacian_blocks`) raises its ValueError,
    whatever f is.
    """
    c = _potential(g, c)
    laplacian_blocks(g, c)
    f = _last_axis(f, g.num_edges)
    edge, partner = g.edge_pairs
    y = f.copy()
    _scatter_add(y, partner, c * f[..., edge])
    out = y.copy()
    _scatter_add(out, edge, c.conj() * y[..., partner])
    return out


# ----------------------------------------------------------------- closed forms
# Independent assembly of the adjoint and composite operators from their
# displayed formulas, one vertex block C_mu at a time; used as oracles against
# the conjugate-transpose route, so they share none of its scatter indices.

def _vertex_blocks(g: DirectedCyclicGraph, c) -> list:
    """(edges leaving mu, edges leaving mu-1, C_mu) for every vertex mu."""
    start, end, deg = g.offsets[:-1], g.offsets[1:], g.out_degrees  # index mu - 1 wraps
    blocks = np.split(_potential(g, c), _block_offsets(g)[1:-1])
    return [(slice(start[mu], end[mu]), slice(start[mu - 1], end[mu - 1]),
             blocks[mu].reshape(deg[mu], deg[mu - 1])) for mu in range(g.n)]


def zeta_dagger_closed_form(g: DirectedCyclicGraph, c) -> np.ndarray:
    """Maps the bottom basis vector at edge mu->nu to
    sum over edges mu+1->nu' of conj(c[mu+1, nu', nu]) chi[mu+1->nu']:
    the block of rows leaving mu and columns leaving mu-1 is conj(C_mu)."""
    m = g.num_edges
    mat = np.zeros((m, m), dtype=complex)
    for here, back, block in _vertex_blocks(g, c):
        mat[here, back] = block.conj()
    return mat


def composite_blocks(g: DirectedCyclicGraph, c) -> dict[str, np.ndarray]:
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
    edge, partner = g.edge_pairs
    a[partner, edge] += 1
    return a.T @ a
