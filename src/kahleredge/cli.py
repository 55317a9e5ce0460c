"""Command-line interface.

Subcommands: ``spectrum``, ``laplacian``, ``distance``, ``verify`` and
``generate``.  ``spectrum`` solves a circulant graph under a
rotation-invariant potential (the unit and zero potentials among them) from
its n Fourier blocks (`spectra.circulant_spectrum`), every other input by
the dense self-adjoint eigensolver on the assembled Laplacian.  Data goes to
standard output, warnings and diagnostics to standard error.  Exit codes: 0
success, 1 usage error, 2 data error (also a Laplacian with a non-finite
entry, and an input too large for memory), 3 check failure.  Floats print
with 17 significant digits, unbounded distances as ``inf`` (``"inf"`` in
JSON); each distinct value of a block of rows is formatted once, with its
separator, and gathered per entry, which gives the same bytes as formatting
every entry: as bytes out of a padded table when every text of the block is
at most 16 bytes wide (hop counts, ``inf``, small integers), else as a join
of string objects (17-digit floats).  CSV: ``spectrum`` prints one
eigenvalue per line, ``laplacian`` one matrix row per line with ``re,im``
interleaved per entry, ``distance`` the distances, then the lower and the
upper bracket, stacked.  An empty matrix prints no line.  ``distance`` warns
on standard error that some distances are infinite when two or more vertices
have no outgoing edge: each such vertex cuts the cycle, and two cuts part it
into pieces no constraint links.

Vertices are 0-based everywhere; vertex arithmetic is mod n.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import connection, graphs, spectra, verify
from .dirac import all_pairs_distances, distance_bracket

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
#: the widest text, separator included, that a block gathers as bytes: a
#: padded copy costs with the width, and past it joining objects is faster
GATHER_WIDTH = 16


def _blocks(mat: np.ndarray, json: bool = False):
    """The text of each block of ROW_BLOCK rows of the real 2-D array `mat`:
    its entries with 17 significant digits (locale independent, `inf` for
    infinity, the string "inf" if `json`), each followed by a comma or, at
    the end of a row, by a newline, or by "],[" if `json`.

    Distances are hop counts and the Laplacian is mostly zero, so a block of
    rows holds few distinct values: one sort finds its distinct bit patterns
    (`-0.0` apart from `0.0`), and each is formatted once, into a table of
    its text with either separator that a `searchsorted` index gathers per
    cell.  When no text of the table is wider than GATHER_WIDTH bytes, the
    gather copies bytes out of a NUL-padded table and drops the padding;
    wider texts (17-digit floats) are gathered as objects and joined.
    """
    mat = np.asarray(mat, dtype=np.float64)
    end = "],[" if json else "\n"
    for start in range(0, mat.shape[0], ROW_BLOCK):
        block = mat[start:start + ROW_BLOCK].view(np.int64)
        if block.shape[1] == 0:
            yield end * len(block)
            continue
        bits = np.sort(block, axis=None)
        bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
        text = ["%.17g" % value for value in bits.view(np.float64).tolist()]
        if json:
            text = [s.replace("inf", '"inf"') for s in text]
        table = [s + "," for s in text] + [s + end for s in text]
        index = np.searchsorted(bits, block)
        index[:, -1] += len(text)  # the row ends
        width = max(map(len, table))
        if width <= GATHER_WIDTH:
            cells = np.array(table, dtype=f"S{width}").view(f"V{width}")[index]
            yield cells.tobytes().translate(None, b"\0").decode("ascii")
        else:
            yield "".join(np.array(table, dtype=object)[index].ravel().tolist())


def _print_rows(mat: np.ndarray) -> None:
    sys.stdout.writelines(_blocks(mat))


def _print_json(head: str, mats: dict[str, np.ndarray]) -> None:
    """Print one JSON object: the fields in `head`, then each named matrix as
    a list of row lists, written a block of rows at a time; `inf` is the
    string "inf"."""
    write = sys.stdout.write
    write("{" + head)
    for name, mat in mats.items():
        write(',"%s":[' % name)
        text = "["  # opens the first row; every row ends in "],["
        for block in _blocks(mat, json=True):
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


def _laplacian(g: graphs.DirectedCyclicGraph, c: connection.PotentialCoefficients) -> np.ndarray:
    """The matrix of the twisted edge Laplacian of g under c; a data error if
    an entry is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mat = connection.laplacian(g, c)
    if not np.isfinite(mat).all():
        raise DataError("the Laplacian has non-finite entries: the potential overflows")
    return mat


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    c = _load_potential(args.potential, g)
    eigs = spectra.circulant_spectrum(g, c)
    if eigs is None:
        eigs = spectra.eig_selfadjoint(_laplacian(g, c)).eigenvalues
    if args.closed_form:
        if not _is_directed_ngon(g):
            raise DataError("--closed-form applies only to the directed n-gon")
        closed = spectra.ngon_closed_form(g.n)[None]
        deviation = np.abs(eigs - closed).max(keepdims=True)
    if args.format == "json":
        out = '{"eigenvalues":[%s]' % next(_blocks(eigs[None]))[:-1]
        if args.closed_form:
            out += ',"closed_form":[%s],"max_deviation":%s' % (
                next(_blocks(closed))[:-1], next(_blocks(deviation))[:-1])
        print(out + "}")
    else:
        _print_rows(eigs[:, None])
        if args.closed_form:
            _print_rows(closed)
            _print_rows(deviation)
    return EXIT_OK


def cmd_laplacian(args) -> int:
    g = _load_graph(args.graph)
    mat = _laplacian(g, _load_potential(args.potential, g))
    if args.format == "json":
        _print_json('"rows":%d,"cols":%d' % mat.shape, {"real": mat.real, "imag": mat.imag})
    else:
        _print_rows(mat.view(float))
    return EXIT_OK


def cmd_distance(args) -> int:
    if args.potential is not None and not args.numeric:
        raise UsageError("--potential applies only with --numeric")
    g = _load_graph(args.graph)
    lonely = np.flatnonzero(g.out_degrees == 0).tolist()
    if len(lonely) >= 2:  # one cut leaves the cycle a path, two part it
        print(
            f"warning: vertices {lonely} have no outgoing edge; "
            "some distances are infinite",
            file=sys.stderr,
        )
    mats = {"distances": all_pairs_distances(g)}
    if args.numeric:
        c = _load_potential(args.potential or "unit", g)
        mats["lower"], mats["upper"] = distance_bracket(g, c)
    if args.format == "json":
        _print_json('"n":%d' % g.n, mats)
    else:
        for mat in mats.values():
            _print_rows(mat)
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
    try:
        if args.family == "ngon":
            g = spectra.make_circulant_regular(args.n, 1)
        elif args.family == "circulant":
            if args.d is None:
                raise DataError("circulant needs both n and d")
            g = spectra.make_circulant_regular(args.n, args.d)
        else:  # bidirected-ngon
            n = args.n
            if n < 3:
                raise DataError(f"need n >= 3, got {n}")
            graphs._check_vertex_count(n)
            mu = np.arange(n)
            g = graphs.DirectedCyclicGraph(
                n, np.stack([np.tile(mu, 2), np.concatenate([mu + 1, mu - 1]) % n], axis=1))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    sys.stdout.write(graphs.format_graph(g))
    return EXIT_OK


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
