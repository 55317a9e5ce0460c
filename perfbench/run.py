"""End-to-end benchmark of the kahleredge command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from `src/`.
One client drives `kahleredge.cli.main(argv)` in this process, one job at a
time (a closed loop), with stdout and stderr captured and every output checked
against an independent oracle (`oracle.py`).  The workloads and their inputs,
generated from the seed, are in `workloads.py`.

Set-up (import, input generation and the first call of each subcommand the
workload uses) is timed apart from the passes, in this process and in
SETUP_REPEATS - 1 fresh child processes; `setup_s` is the median.  Then whole
passes over the workload's jobs run until `--seconds` have gone by and at
least MIN_PASSES passes are done, so that every job's median has more than
one sample even where one job takes most of `--seconds` (a `verify` call
takes 10-16 s on a 2-vCPU Xeon).

Times are reported at a reference host speed.  On a shared host the same
code runs up to 1.7 times slower for minutes at a time, which no number of
passes within one run averages out.  So a fixed pure-Python calibration loop
is timed after every set-up, before the first pass and after any job that ends
CALIBRATION_EVERY_S or more after the last calibration, for CALIBRATION_SHARE
of the time since the last calibration, and the run's pass times and each
set-up time are divided by a `slowdown`: the median time of the loop's chunks
over REF_CHUNK_S.  The loop runs none of the program's code, so
a change to the program moves the scaled times as it moves the raw ones.

With `--trace 0` the last stdout line reports the end-to-end metrics:
`wall_s`, the wall time of a pass taken as the sum over jobs of each CLI
call's median scaled time over the passes; the median scaled `setup_s`; and
the process's peak resident memory.  With `--trace 1` the first half of the
time runs untraced passes and the second half traced ones (`spans.py`); it
reports the per-layer metrics, the per-subcommand scaled times of the
untraced passes and the tracing overhead; span times are not scaled.  The
line before the result records the environment, every job's raw time in
every pass and the slowdowns.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_PASSES = 2
#: iterations of one calibration chunk, and the seconds such a chunk takes on
#: a quiet 2-vCPU Xeon host under CPython 3.11
CHUNK_ITERATIONS = 250_000
REF_CHUNK_S = 0.0135
#: least chunks timed at each calibration, the least time between two of
#: them within the passes, and the share of the time since the last one that
#: the next one takes; the host's speed swings within a second, so a short
#: calibration is a poor estimate of it
CALIBRATION_CHUNKS = 8
CALIBRATION_EVERY_S = 2.0
CALIBRATION_SHARE = 0.1
KINDS = ("spectrum", "laplacian", "distance", "distance_numeric", "verify")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    #: seconds of each job's CLI call, in job order
    job_s: list[float] = field(default_factory=list)
    failed: int = 0
    output_bytes: int = 0


def pin_blas_threads() -> int:
    """Pin BLAS and OpenMP pools to this process's CPUs; before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def calibrate(seconds: float = 0.0) -> list[float]:
    """Seconds of each run of a fixed integer loop, run at least
    CALIBRATION_CHUNKS times and for at least `seconds`."""
    chunks: list[float] = []
    end = time.perf_counter() + seconds
    while len(chunks) < CALIBRATION_CHUNKS or time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(CHUNK_ITERATIONS):
            total += i * i
        chunks.append(time.perf_counter() - start)
    return chunks


def slowdown(chunks: list[float]) -> float:
    return statistics.median(chunks) / REF_CHUNK_S


class Calibrations:
    """Calibration chunks timed between jobs, at most every CALIBRATION_EVERY_S."""

    def __init__(self):
        self.chunks: list[float] = []
        self.last = time.perf_counter()
        self.due = self.last

    def between_jobs(self) -> None:
        now = time.perf_counter()
        if now >= self.due:
            self.chunks += calibrate(CALIBRATION_SHARE * (now - self.last))
            self.last = time.perf_counter()
            self.due = self.last + CALIBRATION_EVERY_S


def run_job(cli, argv: list[str]) -> tuple[float, object, str]:
    """(seconds, exit code or error text, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


def job_error(check, code, stdout: str) -> str | None:
    if not isinstance(code, int):
        return f"raised {code}"
    try:
        return check(code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_pass(cli, jobs, checks, calibrations: Calibrations) -> Pass:
    result = Pass()
    for job, check in zip(jobs, checks):
        seconds, code, stdout = run_job(cli, job.argv)
        calibrations.between_jobs()
        result.job_s.append(seconds)
        result.output_bytes += len(stdout)
        error = job_error(check, code, stdout)
        if error:
            result.failed += 1
            print(f"FAIL {job.name}: {error}", file=sys.stderr)
    return result


def run_passes(cli, jobs, checks, seconds: float,
               min_passes: int) -> tuple[list[Pass], float]:
    """Whole passes until `seconds` have gone by and at least `min_passes`
    (at least 1) are done, and the host's slowdown over them."""
    calibrations = Calibrations()
    calibrations.between_jobs()
    deadline = time.perf_counter() + seconds
    passes: list[Pass] = []
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(cli, jobs, checks, calibrations))
    return passes, slowdown(calibrations.chunks)


def median_job_s(passes: list[Pass], slowdown: float) -> list[float]:
    """Each job's median time over the passes at the reference host speed;
    their sum is the robust wall time of one pass, since a slow spell of the
    machine hits only some jobs."""
    return [statistics.median(times) / slowdown for times in zip(*(p.job_s for p in passes))]


def set_up(cli, workload: str, seed: int, directory: str):
    """Generate inputs and make the first call of each subcommand kind.

    Returns (setup seconds without the import, jobs); exits with an error if a
    warm-up call fails.
    """
    import numpy as np

    import workloads

    start = time.perf_counter()
    jobs = workloads.WORKLOADS[workload](
        workloads.Inputs(directory, np.random.default_rng(seed)), seed)
    warm = workloads.warmup(
        workloads.Inputs(directory, np.random.default_rng(seed)), {job.kind for job in jobs})
    setup = time.perf_counter() - start
    for job in warm:
        seconds, code, stdout = run_job(cli, job.argv)
        setup += seconds
        error = job_error(job.oracle(), code, stdout)
        if error:
            raise SystemExit(f"error: warm-up {job.name} failed: {error}")
    return setup, jobs


def child_setup_s(workload: str, seed: int) -> float:
    """Scaled set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def environment(threads: int, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def untraced_metrics(cli, jobs, checks, args, setup: float):
    passes, slow = run_passes(cli, jobs, checks, args.seconds, MIN_PASSES)
    # after the passes, so that no pass follows an idle wait on a child
    setups = [setup] + [child_setup_s(args.workload, args.seed)
                        for _ in range(SETUP_REPEATS - 1)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(median_job_s(passes, slow)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, [slow], {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced_metrics(cli, jobs, checks, args):
    import spans

    # per-layer metrics have no bound, so the halves need no minimum of passes
    untraced, untraced_slow = run_passes(cli, jobs, checks, args.seconds / 2, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, traced_slow = run_passes(cli, jobs, checks, args.seconds / 2, 1)
    finally:
        tracer.uninstall()
    layer = tracer.metrics(len(traced))
    metrics = {name: (layer[name], unit) for name, unit in spans.METRICS.items()}
    metrics["cli.output_bytes"] = (statistics.median(p.output_bytes for p in traced), "B")
    untraced_s = median_job_s(untraced, untraced_slow)
    for kind in KINDS:
        kind_s = sum(t for job, t in zip(jobs, untraced_s) if job.kind == kind)
        metrics[f"{kind}_s"] = (kind_s, "s")
    passes = untraced + traced
    metrics["failed_frac"] = (
        sum(p.failed for p in passes) / sum(len(p.job_s) for p in passes), "frac")
    metrics["trace.overhead_frac"] = (
        sum(median_job_s(traced, traced_slow)) / sum(untraced_s) - 1.0, "frac")
    return passes, [untraced_slow, traced_slow], metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    if not (SRC / "kahleredge" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [path for path in (str(SRC), str(HERE)) if path not in sys.path]
    start = time.perf_counter()
    from kahleredge import cli
    import_s = time.perf_counter() - start

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as directory:
        setup, jobs = set_up(cli, args.workload, args.seed, directory)
        setup = (setup + import_s) / slowdown(calibrate())
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        checks = [job.oracle() for job in jobs]
        if args.trace:
            passes, slowdowns, metrics = traced_metrics(cli, jobs, checks, args)
        else:
            passes, slowdowns, metrics = untraced_metrics(cli, jobs, checks, args, setup)

    attempted = sum(len(p.job_s) for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"environment": environment(threads, args.seed),
                      "jobs": [job.name for job in jobs],
                      "job_s": [p.job_s for p in passes],
                      "slowdowns": slowdowns}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
