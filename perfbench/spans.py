"""Spans around the public calls of each package module, installed from outside.

`Tracer.install` wraps every public function and public method defined in the
layer modules, plus the LP solver that `dirac` calls, and patches each wrapper
everywhere a package module looks the name up (`from .dirac import
operator_norm` copies the name into the importer, so patching only the
defining module would miss those calls).  `uninstall` restores the originals;
untraced runs never install anything.

Spans are aggregated as they close, to keep memory flat over the hundreds of
thousands of calls `verify` makes: per span name the call count, the summed
duration and the summed self time, which is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "graphs", "operators", "connection", "spectra", "dirac", "polygon", "verify")
PACKAGE = "kahleredge"

#: per-layer metric name -> unit, in the order they are reported
METRICS = {
    "spectra.self_s": "s",
    "spectra.eig_selfadjoint.calls": "count",
    "spectra.eig_selfadjoint.dim_max": "rows",
    "spectra.eig_selfadjoint.work": "m3",
    "spectra.eig_selfadjoint.work_per_s": "m3/s",
    "dirac.self_s": "s",
    "dirac.operator_norm.calls": "count",
    "dirac.dirac_operator.calls": "count",
    "dirac.linprog.calls": "count",
    "dirac.linprog.self_s": "s",
    "dirac.norms_per_pair": "norms/pair",
    "dirac.bracket_closed_frac": "frac",
    "dirac.all_pairs_distances.self_s": "s",
    "graphs.self_s": "s",
    "graphs.parse_graph.edges_per_s": "edges/s",
    "graphs.edges_from.calls": "count",
    "cli.self_s": "s",
    "connection.self_s": "s",
    "connection.laplacian.calls": "count",
    "connection.composite_blocks.self_s": "s",
    "operators.DenseOperator.calls": "count",
    "operators.DenseOperator.bytes": "B",
    "polygon.self_s": "s",
    "polygon.Calculus.wedge.calls": "count",
    "polygon.wedge_per_s": "1/s",
    "verify.polygon_checks.self_s": "s",
    "verify.edge_module_checks.self_s": "s",
    "verify.connection_checks.self_s": "s",
    "verify.spectral_checks.self_s": "s",
    "verify.distance_checks.self_s": "s",
    "verify.checks_failed": "count",
}


def _observe_eig(tracer, args, kwargs, result):
    m = len(getattr(args[0], "matrix", args[0]))
    tracer.counts["eig.work"] += m ** 3
    tracer.counts["eig.dim_max"] = max(tracer.counts["eig.dim_max"], m)


def _observe_bracket(tracer, args, kwargs, result):
    mu, nu = args[2:4]
    if mu != nu:
        lower, upper = result
        tracer.counts["bracket.pairs"] += 1
        tracer.counts["bracket.closed"] += upper == lower or upper - lower <= 1e-9


def _observe_parse(tracer, args, kwargs, result):
    tracer.counts["parse.edges"] += result.num_edges


def _observe_operator(tracer, args, kwargs, result):
    tracer.counts["operator.bytes"] += args[0].matrix.nbytes


def _observe_checks(tracer, args, kwargs, result):
    tracer.counts["checks.failed"] += sum(not r.passed for r in result)


OBSERVERS = {
    "spectra.eig_selfadjoint": _observe_eig,
    "dirac.connes_distance_numeric": _observe_bracket,
    "graphs.parse_graph": _observe_parse,
    "operators.DenseOperator": _observe_operator,
    "verify.run_checks": _observe_checks,
}


class Tracer:
    def __init__(self):
        #: span name -> [calls, duration_s, self_s]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {
            "eig.work": 0, "eig.dim_max": 0, "bracket.pairs": 0, "bracket.closed": 0,
            "parse.edges": 0, "operator.bytes": 0, "checks.failed": 0,
        }
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return span

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public callables of every layer; see the module docstring."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        dirac = modules["dirac"]
        wrapped[id(dirac.linprog)] = self.wrap("dirac.linprog", dirac.linprog)
        # every construction of an operator, whoever builds it
        operator = modules["operators"].DenseOperator
        self._patch(operator, "__post_init__",
                    self.wrap("operators.DenseOperator", operator.__post_init__))
        # every name bound to an original, wherever the package looks it up
        for modname, module in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        self._patch(module, attr, wrapped[id(obj)])

    def _wrap_methods(self, prefix: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(f"{prefix}.{attr}", raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- metrics

    def _sum(self, prefix: str, field: int, exclude=()) -> float:
        return sum(
            stats[field] for name, stats in self.spans.items()
            if name.startswith(prefix) and name not in exclude
        )

    def _get(self, name: str, field: int) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[field]

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of METRICS, from the spans of `passes` traced passes."""
        calls, total, self_s = 0, 1, 2
        c = self.counts
        pairs = c["bracket.pairs"]
        sums = {
            "spectra.self_s": self._sum("spectra.", self_s),
            "spectra.eig_selfadjoint.calls": self._get("spectra.eig_selfadjoint", calls),
            "spectra.eig_selfadjoint.work": c["eig.work"],
            "dirac.self_s": self._sum("dirac.", self_s, exclude={"dirac.linprog"}),
            "dirac.operator_norm.calls": self._get("dirac.operator_norm", calls),
            "dirac.dirac_operator.calls": self._get("dirac.dirac_operator", calls),
            "dirac.linprog.calls": self._get("dirac.linprog", calls),
            "dirac.linprog.self_s": self._get("dirac.linprog", self_s),
            "dirac.all_pairs_distances.self_s": self._get("dirac.all_pairs_distances", self_s),
            "graphs.self_s": self._sum("graphs.", self_s),
            "graphs.edges_from.calls": self._get("graphs.DirectedCyclicGraph.edges_from", calls),
            "cli.self_s": self._sum("cli.", self_s),
            "connection.self_s": self._sum("connection.", self_s),
            "connection.laplacian.calls": self._get("connection.laplacian", calls),
            "connection.composite_blocks.self_s": self._get("connection.composite_blocks", self_s),
            "operators.DenseOperator.calls": self._get("operators.DenseOperator", calls),
            "operators.DenseOperator.bytes": c["operator.bytes"],
            "polygon.self_s": self._sum("polygon.", self_s),
            "polygon.Calculus.wedge.calls": self._get("polygon.Calculus.wedge", calls),
            "verify.checks_failed": c["checks.failed"],
        }
        for suite in ("polygon", "edge_module", "connection", "spectral", "distance"):
            name = f"verify.{suite}_checks"
            sums[f"{name}.self_s"] = self._get(name, self_s)
        values = {name: value / passes for name, value in sums.items()}
        values.update({
            "spectra.eig_selfadjoint.dim_max": c["eig.dim_max"],
            "spectra.eig_selfadjoint.work_per_s":
                _ratio(c["eig.work"], self._get("spectra.eig_selfadjoint", total)),
            "dirac.norms_per_pair": _ratio(self._get("dirac.operator_norm", calls), pairs),
            "dirac.bracket_closed_frac": _ratio(c["bracket.closed"], pairs),
            "graphs.parse_graph.edges_per_s":
                _ratio(c["parse.edges"], self._get("graphs.parse_graph", total)),
            "polygon.wedge_per_s": _ratio(self._get("polygon.Calculus.wedge", calls),
                                          self._get("polygon.Calculus.wedge", total)),
        })
        return {name: values[name] for name in METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
