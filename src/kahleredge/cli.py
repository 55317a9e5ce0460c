"""Command-line interface.

Subcommands: ``spectrum``, ``laplacian``, ``distance``, ``verify`` and
``generate``.  Data goes to standard output, warnings and diagnostics to
standard error.  Exit codes: 0 success, 1 usage error, 2 data error,
3 check failure.

Vertices are 0-based everywhere; vertex arithmetic is mod n.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import connection, graphs, spectra, verify
from .dirac import all_pairs_distances, connes_distance_numeric

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class DataError(Exception):
    pass


def _fmt(x: float) -> str:
    """17-significant-digit decimal rendering, locale independent."""
    if math.isinf(x):
        return "inf"
    return format(float(x), ".17g")


def _json_list(values) -> str:
    return "[" + ",".join(_fmt(v) for v in values) + "]"


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
    want = tuple(sorted((mu, (mu + 1) % g.n) for mu in range(g.n)))
    return g.edges == want


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    c = _load_potential(args.potential, g)
    eigs = spectra.eig_selfadjoint(connection.laplacian(g, c)).eigenvalues
    closed = None
    deviation = None
    if args.closed_form:
        if not _is_directed_ngon(g):
            raise DataError("--closed-form applies only to the directed n-gon")
        closed = spectra.ngon_closed_form(g.n)
        deviation = float(np.max(np.abs(eigs - closed)))
    if args.format == "json":
        parts = [f'"eigenvalues":{_json_list(eigs)}']
        if closed is not None:
            parts.append(f'"closed_form":{_json_list(closed)}')
            parts.append(f'"max_deviation":{_fmt(deviation)}')
        print("{" + ",".join(parts) + "}")
    else:
        for v in eigs:
            print(_fmt(v))
        if closed is not None:
            print(",".join(_fmt(v) for v in closed))
            print(_fmt(deviation))
    return EXIT_OK


def cmd_laplacian(args) -> int:
    g = _load_graph(args.graph)
    c = _load_potential(args.potential, g)
    mat = connection.laplacian(g, c).matrix
    if args.format == "json":
        real = "[" + ",".join(_json_list(row.real) for row in mat) + "]"
        imag = "[" + ",".join(_json_list(row.imag) for row in mat) + "]"
        print('{"rows":%d,"cols":%d,"real":%s,"imag":%s}' % (mat.shape[0], mat.shape[1], real, imag))
    else:
        for row in mat:
            print(",".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row))
    return EXIT_OK


def cmd_distance(args) -> int:
    g = _load_graph(args.graph)
    lonely = np.flatnonzero(g.out_degrees == 0).tolist()
    if lonely:
        print(
            f"warning: vertices {lonely} have no outgoing edge; "
            "some distances are infinite",
            file=sys.stderr,
        )
    dmat = all_pairs_distances(g)
    numeric = None
    if args.numeric:
        c = _load_potential(args.potential, g)
        lower = np.zeros_like(dmat)
        upper = np.zeros_like(dmat)
        for a in range(g.n):
            for b in range(g.n):
                lower[a, b], upper[a, b] = connes_distance_numeric(
                    g, c, a, b, seed=args.seed
                )
        numeric = (lower, upper)

    def cell(x: float) -> str:
        return '"inf"' if math.isinf(x) else _fmt(x)

    if args.format == "json":
        rows = "[" + ",".join(
            "[" + ",".join(cell(v) for v in row) + "]" for row in dmat
        ) + "]"
        parts = [f'"n":{g.n}', f'"distances":{rows}']
        if numeric is not None:
            for name, mat in zip(("lower", "upper"), numeric):
                rows = "[" + ",".join(
                    "[" + ",".join(cell(v) for v in row) + "]" for row in mat
                ) + "]"
                parts.append(f'"{name}":{rows}')
        print("{" + ",".join(parts) + "}")
    else:
        mats = [dmat] if numeric is None else [dmat, numeric[0], numeric[1]]
        for mat in mats:
            for row in mat:
                print(",".join("inf" if math.isinf(v) else _fmt(v) for v in row))
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
            edges = [(mu, (mu + 1) % n) for mu in range(n)]
            edges += [(mu, (mu - 1) % n) for mu in range(n)]
            g = graphs.DirectedCyclicGraph(n, edges)
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
    p.add_argument("--seed", type=int, default=0, help="seed of the numeric bracket's restarts")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="run the full consistency-check battery")
    p.add_argument("--graph", help="edge-list graph file")
    p.add_argument("--seed", type=int, default=0, help="seed of the random samples")
    p.add_argument(
        "--corrupt-wedge-sign",
        action="store_true",
        help=argparse.SUPPRESS,  # negative-control test hook
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a graph of a built-in family")
    p.add_argument("family", choices=("ngon", "circulant", "bidirected-ngon"))
    p.add_argument("n", type=int)
    p.add_argument("d", type=int, nargs="?")
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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
