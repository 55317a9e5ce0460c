"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
        [--seconds S] [--out perfbench/results/NAME.json]

Runs `run.py` once per workload and seed, one run at a time, and reports for
every metric the median, the quartiles (`statistics.quantiles(n=4)`) and the
interquartile range as a share of the median, next to the metric's bound from
BENCHMARK.json.  With `--out` it writes every run's result and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"seed": seed, "environment": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    names = runs[0]["result"]["metrics"]
    summary = {}
    for name in names:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in seed_list(args.seeds)]
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        failed = sum(run["result"]["failed"] for run in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed jobs", flush=True)
        for name, s in summary.items():
            spread = "" if s["iqr_frac"] is None else f" iqr/median={s['iqr_frac']:.4f}"
            bound = "" if s["bound"] is None else f" bound={s['bound']}"
            print(f"  {name:40s} median={s['median']:.6g}{spread}{bound}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
