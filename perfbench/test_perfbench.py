"""The benchmark's own checks: a tiny smoke ladder reports every metric named
in BENCHMARK.json with its unit, and the negative controls are counted as
failed jobs.

    python3 -m pytest perfbench
"""

import functools
import json

import pytest

import oracle
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke_ladder(inputs, seed):
    n, d = 8, 2
    jobs = [workloads._spectrum(inputs, "smoke-ngon", n, 1, False),
            workloads._spectrum(inputs, "smoke-spectrum", n, d, True)]
    jobs += workloads._laplacian(inputs, "smoke-laplacian", n, d)
    jobs += workloads._distance_pair(inputs, "smoke-distance", n,
                                     workloads.circulant_edges(n, d), seed)
    return jobs


def perturbed(check):
    """The check of an output whose largest eigenvalue is off by 1e-6."""
    def check_perturbed(code, out):
        data = json.loads(out)
        data["eigenvalues"][-1] += 1e-6
        return check(code, json.dumps(data))
    return check_perturbed


def perturbed_spectrum(inputs, seed):
    good = workloads._spectrum(inputs, "good", 8, 2, True)
    bad = workloads._spectrum(inputs, "bad", 8, 2, True)
    build = bad.oracle
    bad.oracle = lambda: perturbed(build())
    return [good, bad]


def corrupt_verify(inputs, seed):
    graph = inputs.graph("ngon-5", 5, workloads.circulant_edges(5, 1))
    return [
        workloads._spectrum(inputs, "good", 8, 1, False),
        workloads.Job("corrupt", "verify", ["verify", "--graph", graph, "--corrupt-wedge-sign"],
                      oracle.verify),
    ]


def bench(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_ladder_emits_every_metric(monkeypatch, capsys, trace, section):
    monkeypatch.setitem(workloads.WORKLOADS, "smoke", smoke_ladder)
    result = bench(monkeypatch, capsys, "smoke", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("control", [perturbed_spectrum, corrupt_verify])
def test_negative_controls_are_failed_jobs(monkeypatch, capsys, control):
    monkeypatch.setitem(workloads.WORKLOADS, "negative", control)
    result = bench(monkeypatch, capsys, "negative", 0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert result["failed"] < result["attempted"]  # the good job still passes
