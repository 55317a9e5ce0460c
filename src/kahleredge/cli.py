"""Command-line interface.

Subcommands: ``spectrum``, ``laplacian``, ``distance``, ``verify`` and
``generate``.  ``spectrum`` solves by `spectra.laplacian_spectrum`, which
picks the route: the n Fourier blocks of a circulant graph under a
rotation-invariant potential (the unit and zero potentials among them), else
the dense eigensolver.  Data goes to standard output, warnings and
diagnostics to standard error.  Exit codes: 0 success, 1 usage error, 2 data
error (also the library's ValueError of a Laplacian with a non-finite entry,
and an input too large for memory), 3 check failure.  Floats print with 17
significant digits, unbounded distances as ``inf`` (``"inf"`` in JSON), a
block of rows at a time, each route giving the same bytes as formatting
every entry.  Neither the distances, exact or bracketed, nor the Laplacian
form a matrix: a distance row is a few slices of the texts of a window of
the matrix over the offsets along an arc (for the numeric bracket,
`dirac.bracket_windows`) and of runs of ``inf`` (`_distance_blocks`); a
Laplacian row is the texts of at most three column ranges, the edges leaving
the vertices around the row's source, between runs of zero cells, each
coefficient and diagonal-block entry formatted once (`_laplacian_blocks`).
The vectors of ``spectrum`` (the eigenvalues, the closed form and its
deviation, never ``inf``) print through `_vector`, by one ``%`` of the cell
format per block of values.  CSV: ``spectrum`` prints one eigenvalue per
line, ``laplacian`` one matrix row per line with ``re,im`` interleaved per
entry, ``distance`` the distances, then the lower and the upper bracket,
stacked.  An empty matrix prints no line.  ``distance`` reads and checks a
potential file, if one is given, then warns on standard error that some
distances are infinite when two or more vertices have no outgoing edge: each
such vertex cuts the cycle, and two cuts part it into pieces no constraint
links.  ``spectrum --closed-form`` refuses a graph that is not the directed
n-gon before any eigensolve.

`main` builds its argument parser on the first call and reuses it for every
later call in the same process; parsing does not change the parser, so the
output, usage errors and help text are those of a fresh parser.

Vertices are 0-based everywhere; vertex arithmetic is mod n.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
from collections.abc import Iterable

import numpy as np

from . import connection, graphs, spectra, verify
from .dirac import bracket_windows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def non_negative_int(text: str) -> int:
    """An argparse type: a bad value is "invalid non_negative_int value"."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


#: rows formatted together: bounds the index arrays of one block
ROW_BLOCK = 256


def _vector(values: np.ndarray, end: str = ","):
    """The text of each block of ROW_BLOCK values of the 1-D float array
    `values`: each with 17 significant digits (locale independent), followed
    by `end`, from one `%` of the cell format, repeated.  (The distances and
    the Laplacian do not come here: their cells follow from the graph,
    `_distance_blocks` and `_laplacian_blocks`.)"""
    for start in range(0, len(values), ROW_BLOCK):
        block = values[start:start + ROW_BLOCK]
        yield ("%.17g" + end) * len(block) % tuple(block.tolist())


def _distance_blocks(g: graphs.DirectedCyclicGraph, cells: list[str], json: bool = False):
    """The text of each block of ROW_BLOCK rows of a distance matrix of g
    given by its window (the exact distances, or a bound of the numeric
    bracket, `dirac.bracket_windows`), straight from the arcs (`g.arcs`).
    `cells` are the texts of the window W over the offsets 1-M..M-1, M the
    longest arc, each followed by a comma; off its arc a row's cells are
    "inf".  Each row is four slices, some empty, of the text of W and of a
    run of n off-arc cells, and the comma of the row's last cell gives way
    to the row end.

    With a cut, vertex mu at place p on an arc of L vertices from a0 reads
    the cell of the vertex at place q at offset q - p, so places 0..L-1 of
    the row read W from cell M-1-p.  In column order the row is the arc's
    part that wraps past n - 1 (at columns 0, 1, ...), the off-arc run up to
    a0, the arc's part from a0 on, and the off-arc run to the end.  With no
    cut the arc is the cycle opened at 0, M = n and the offset of column nu
    is nu - mu: row mu is W from cell n-1-mu, with no off-arc cell."""
    n = g.n
    end = "],[" if json else "\n"
    fill = '"inf",' if json else "inf,"
    run, w = fill * n, len(fill)
    _, _, start, place, length = g.arcs
    longest = int(length.max())
    text = "".join(cells)
    offsets = np.cumsum([0] + list(map(len, cells)))  # where each W cell starts
    for first in range(0, n, ROW_BLOCK):
        mu = slice(first, first + ROW_BLOCK)
        a0, size = start[mu], length[mu]
        w0 = longest - 1 - place[mu]  # W's cell of place 0
        head = np.minimum(size, n - a0)  # places from a0 on, before column n
        tail = size - head  # places past n - 1, at columns 0..tail-1
        after = (n - a0 - head) * w  # the off-arc run after the head, in chars
        # the row's last comma, dropped: that run's if it has one, else the head's
        last = after > 0
        bounds = np.stack([offsets[w0 + head], offsets[w0 + size], (a0 - tail) * w,
                           offsets[w0], offsets[w0 + head] - ~last, after - last], axis=1)
        parts = []
        for a, b, c, d, e, f in bounds.tolist():
            parts += text[a:b], run[:c], text[d:e], run[:f], end
        yield "".join(parts)


def _distance_texts(g: graphs.DirectedCyclicGraph, json: bool = False,
                    numeric: bool = False) -> dict:
    """The blocks of each matrix `distance` prints, by `_distance_blocks`:
    the exact distances, whose window is |o| (min(|o|, n - |o|) on the
    cycle), and if `numeric` the lower and the upper bound of the numeric
    bracket, from its windows (`dirac.bracket_windows`, solved before this
    returns)."""
    cuts, _, _, _, length = g.arcs
    longest = int(length.max())
    window = np.abs(np.arange(1 - longest, longest))
    if not len(cuts):  # the cycle: the shorter way round
        window = np.minimum(window, g.n - window)
    blocks = {"distances": _distance_blocks(g, [f"{d}," for d in window.tolist()], json)}
    if numeric:
        for name, window in zip(("lower", "upper"), bracket_windows(g)):
            cells = [t.replace("inf", '"inf"') for t in _texts(window)] if json else _texts(window)
            blocks[name] = _distance_blocks(g, cells, json)
    return blocks


def _texts(values: np.ndarray) -> list[str]:
    """The "%.17g" text of each float, followed by a comma."""
    texts = ("%.17g,\0" * len(values) % tuple(values.tolist())).split("\0")
    texts.pop()  # the empty text after the last separator
    return texts


def _laplacian_blocks(g: graphs.DirectedCyclicGraph, c: connection.PotentialCoefficients,
                      json: bool = False) -> list:
    """The text of each block of ROW_BLOCK rows of the Laplacian of g under
    c, each float of `connection.laplacian(g, c)` by "%.17g": in CSV one
    matrix, `re,im` interleaved per entry; in JSON the real matrix, then the
    imaginary one.  Returns one generator per matrix; the ValueError of
    `connection.laplacian_blocks`, before any text, if an entry is not
    finite.

    No m x m array is formed.  The row of an edge e leaving mu is non-zero
    only in three column ranges, each the edges leaving one vertex (so
    contiguous in edge order; they wrap at mu = 0 and n - 1): mu - 1 holds
    row i of conj(C_mu), mu the block conj(C_mu) C_mu^T + I
    (`connection.laplacian_blocks`) and mu + 1 column i of C_{mu+1} (row i
    of its transpose), i the place of e among the edges leaving mu.  Each
    coefficient and block entry is formatted once: the conjugate's imaginary
    text is its text negated, and "-0" and "0" map as `+ 0.0` maps them in
    `connection.laplacian`, as does a real text of "-0".  Runs of zero cells
    fill the gaps."""
    squares = connection.laplacian_blocks(g, c)
    # the blocks end to end, that of mu row-major from block_at[mu]
    block_at, at = np.zeros(g.n, dtype=int), 0
    for mu, square in squares:
        block_at[mu] = at + np.arange(0, square.size, square[0].size)
        at += square.size
    blocks = np.concatenate([np.empty(0, complex)] + [square.reshape(-1) for _, square in squares])
    re, im = _texts(c.values.real), _texts(c.values.imag)
    conj = ["0," if t == "-0," else t for t in re], [
        t[1:] if t[0] == "-" else t if t == "0," else "-" + t for t in im]
    diag = _texts(blocks.real), _texts(blocks.imag)
    rows = functools.partial(_laplacian_rows, g, c.block_offsets.tolist(), block_at.tolist())
    if json:
        return [rows("0,", "],[", *texts) for texts in zip((re, im), conj, diag)]
    pairs = [list(map(operator.add, *texts)) for texts in ((re, im), conj, diag)]
    return [rows("0,0,", "\n", *pairs)]


def _laplacian_rows(g, coef_at, block_at, zero, end, zeta, dagger, diag):
    """The rows of `_laplacian_blocks`, a block of ROW_BLOCK at a time, from
    the texts of the coefficients (`zeta`), of their conjugates (`dagger`),
    both in key order, and of the diagonal blocks (`diag`), all ending in a
    comma, and `zero`, the text of a zero cell."""
    n, m = g.n, g.num_edges
    off, deg = g.offsets.tolist(), g.out_degrees.tolist()
    zeros = zero * m
    parts, rows = [], 0
    for mu in range(n):
        if not deg[mu]:
            continue
        prev, nxt = (mu - 1) % n, (mu + 1) % n
        # (vertex, texts, first text of the row of place 0, step per place, span, stride)
        ranges = sorted([(prev, dagger, coef_at[mu], deg[prev], deg[prev], 1),
                         (mu, diag, block_at[mu], deg[mu], deg[mu], 1),
                         (nxt, zeta, coef_at[nxt], 1, deg[nxt] * deg[mu], deg[mu])],
                        key=lambda r: r[0])
        cursor, layout = 0, []  # the zero cells ahead of each range, and the range
        for v, texts, first, step, span, stride in ranges:
            if deg[v]:
                layout.append((zeros[:(off[v] - cursor) * len(zero)], texts, first, step, span, stride))
                cursor = off[v + 1]
        # the row's last comma gives way to the row end
        tail = zeros[:(m - cursor) * len(zero) - 1] + end if cursor < m else None
        for i in range(deg[mu]):
            for gap, texts, a, step, span, stride in layout:
                parts.append(gap)
                a += i * step
                parts += texts[a:a + span:stride]
            if tail is None:
                parts[-1] = parts[-1][:-1] + end
            else:
                parts.append(tail)
            rows += 1
            if rows % ROW_BLOCK == 0:
                yield "".join(parts)
                parts = []
    if parts:
        yield "".join(parts)


def _print_json(head: str, blocks: dict[str, Iterable[str]]) -> None:
    """Print one JSON object: the fields in `head`, then each named matrix as
    a list of row lists, from the texts of its blocks of rows, each row
    ending in "],[" (`_distance_blocks` and `_laplacian_blocks` with
    `json`)."""
    write = sys.stdout.write
    write("{" + head)
    for name, texts in blocks.items():
        write(',"%s":[' % name)
        text = "["  # opens the first row; every row ends in "],["
        for block in texts:
            write(text)
            text = block
        write(text[:-2] + "]")  # cuts the last row's ",[", or the "[" of no row
    write("}\n")


def _load_graph(path: str | None) -> graphs.DirectedCyclicGraph:
    if path is None:
        raise DataError("a graph file is required (--graph PATH)")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read graph file: {exc}") from exc
    try:
        return graphs.parse_graph(text)
    except ValueError as exc:
        raise DataError(f"bad graph file {path}: {exc}") from exc


def _load_potential(spec: str, g: graphs.DirectedCyclicGraph) -> connection.PotentialCoefficients:
    if spec == "unit":
        return connection.PotentialCoefficients.unit(g)
    if spec == "zero":
        return connection.PotentialCoefficients.zero(g)
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read potential file: {exc}") from exc
    try:
        return connection.parse_potential(text, g)
    except ValueError as exc:
        raise DataError(f"bad potential file {spec}: {exc}") from exc


def _is_directed_ngon(g: graphs.DirectedCyclicGraph) -> bool:
    mu = np.arange(g.n)
    return np.array_equal(g.keys, mu * g.n + (mu + 1) % g.n)


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    c = _load_potential(args.potential, g)
    if args.closed_form and not _is_directed_ngon(g):
        raise DataError("--closed-form applies only to the directed n-gon")
    eigs = spectra.laplacian_spectrum(g, c)
    if args.closed_form:  # the texts of the closed form and of the largest deviation
        closed = spectra.ngon_closed_form(g.n)
        texts = "".join(_vector(closed))[:-1], "%.17g" % np.abs(eigs - closed).max()
    if args.format == "json":
        out = '{"eigenvalues":[%s]' % "".join(_vector(eigs))[:-1]
        if args.closed_form:
            out += ',"closed_form":[%s],"max_deviation":%s' % texts
        print(out + "}")
    else:
        sys.stdout.writelines(_vector(eigs, "\n"))
        if args.closed_form:
            print(*texts, sep="\n")
    return EXIT_OK


def cmd_laplacian(args) -> int:
    g = _load_graph(args.graph)
    json = args.format == "json"
    texts = _laplacian_blocks(g, _load_potential(args.potential, g), json)
    if json:
        _print_json('"rows":%d,"cols":%d' % (g.num_edges, g.num_edges), dict(zip(("real", "imag"), texts)))
    else:
        sys.stdout.writelines(*texts)
    return EXIT_OK


def cmd_distance(args) -> int:
    if args.potential is not None and not args.numeric:
        raise UsageError("--potential applies only with --numeric")
    g = _load_graph(args.graph)
    if args.potential is not None:  # checked, though the distances do not depend on it
        _load_potential(args.potential, g)
    lonely = g.arcs.cuts.tolist()
    if len(lonely) >= 2:  # one cut leaves the cycle a path, two part it
        print(
            f"warning: vertices {lonely} have no outgoing edge; "
            "some distances are infinite",
            file=sys.stderr,
        )
    json = args.format == "json"
    blocks = _distance_texts(g, json, args.numeric)
    if json:
        _print_json('"n":%d' % g.n, blocks)
    else:
        for texts in blocks.values():
            sys.stdout.writelines(texts)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph) if args.graph else None
    results = verify.run_checks(g, seed=args.seed, corrupt_wedge_sign=args.corrupt_wedge_sign)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name} {status} residual={r.residual:.3e} tol={r.tol:.1e}")
        if not r.passed:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.d is not None and args.family != "circulant":
        raise DataError(f"{args.family} takes only n, got d = {args.d}")
    n = args.n
    if n < 3:
        raise DataError(f"need n >= 3, got {n}")
    try:
        if args.family == "ngon":
            g = spectra.make_circulant_regular(n, 1)
        elif args.family == "circulant":
            if args.d is None:
                raise DataError("circulant needs both n and d")
            g = spectra.make_circulant_regular(n, args.d)
        else:  # bidirected-ngon
            graphs._check_vertex_count(n)
            mu = np.arange(n)
            g = graphs.DirectedCyclicGraph(
                n, np.stack([np.tile(mu, 2), np.concatenate([mu + 1, mu - 1]) % n], axis=1))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    sys.stdout.write(graphs.format_graph(g))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kahleredge",
        description=(
            "Twisted edge Laplacians and vertex distances on finite directed "
            "graphs with cyclically ordered, 0-based vertices (arithmetic mod n)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", help="edge-list graph file")
        p.add_argument(
            "--potential",
            default="unit",
            help="'unit', 'zero', or a potential coefficients file",
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("spectrum", help="eigenvalues of the twisted edge Laplacian")
    common(p)
    p.add_argument(
        "--closed-form",
        action="store_true",
        help="on a directed n-gon, also emit the closed-form spectrum",
    )
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("laplacian", help="assembled Laplacian matrix")
    common(p)
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("distance", help="all-pairs vertex distance matrix")
    common(p)
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also emit the numeric optimization bracket for every pair",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="no effect: the numeric bracket is deterministic")
    p.set_defaults(func=cmd_distance, potential=None)

    p = sub.add_parser("verify", help="run the full consistency-check battery")
    p.add_argument("--graph", help="edge-list graph file")
    p.add_argument("--seed", type=non_negative_int, default=0, help="seed of the random samples")
    p.add_argument(
        "--corrupt-wedge-sign",
        action="store_true",
        help=argparse.SUPPRESS,  # negative-control test hook
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a graph of a built-in family")
    p.add_argument("family", choices=("ngon", "circulant", "bidirected-ngon"))
    p.add_argument("n", type=int)
    p.add_argument("d", type=int, nargs="?", help="out-degree, for circulant only")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}: the input is too large for memory",
              file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
