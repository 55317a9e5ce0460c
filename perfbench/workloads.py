"""Seeded inputs and job lists of the benchmark workloads.

A workload writes its graph and potential files, in the CLI's own formats,
into a directory and returns the jobs that run the CLI on them; the program
under test sees only these files.  The same seed gives the same files.  Each
job carries an oracle builder from `oracle`, called once outside the timed
region.

Why these workloads: each layer that a planned optimisation targets does most
of the work in one workload and almost none in another.

- spectrum-ladder: a few large dense eigensolves, on both the real and the
  complex eigensolver paths; parsing and formatting are trivial.
- distance-bracket: many tiny LP and Gram-matrix eigensolve calls, one per
  ordered vertex pair, so per-call overhead shows.
- verify-battery: the only workload that touches the polygon calculus.
- bulk-io: large inputs and outputs with no eigensolve, so graph parsing, BFS
  and output formatting dominate.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

Check = Callable[[int, str], "str | None"]


@dataclass
class Job:
    name: str
    #: spectrum, laplacian, distance, distance_numeric or verify
    kind: str
    argv: list[str]
    #: builds the check of this job's output; called once, untimed
    oracle: Callable[[], Check]


def circulant_edges(n: int, d: int) -> list[tuple[int, int]]:
    return [(mu, (mu + k) % n) for mu in range(n) for k in range(1, d + 1)]


class Inputs:
    """Writes input files into one directory under names it chooses."""

    def __init__(self, directory: str, rng: np.random.Generator):
        self.directory = directory
        self.rng = rng

    def graph(self, name: str, n: int, edges) -> str:
        path = os.path.join(self.directory, f"{name}.graph")
        lines = [f"n {n}"] + [f"{u} {v}" for u, v in edges]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return path

    def potential(self, name: str, n: int, edges) -> str:
        """Standard complex normal coefficients on every valid key
        (mu, nu, nu'): edges mu->nu and (mu-1)->nu' exist."""
        targets: dict[int, list[int]] = {}
        for u, v in sorted(edges):
            targets.setdefault(u, []).append(v)
        keys = [
            (mu, nu, nup)
            for mu, nus in targets.items()
            for nu in nus
            for nup in targets.get((mu - 1) % n, [])
        ]
        values = self.rng.standard_normal((len(keys), 2)).tolist()
        path = os.path.join(self.directory, f"{name}.pot")
        with open(path, "w", encoding="utf-8") as handle:
            for (mu, nu, nup), (re, im) in zip(keys, values):
                handle.write(f"{mu} {nu} {nup} {re!r} {im!r}\n")
        return path


def _spectrum(inputs: Inputs, name: str, n: int, d: int, random_potential: bool) -> Job:
    edges = circulant_edges(n, d)
    graph = inputs.graph(name, n, edges)
    argv = ["spectrum", "--graph", graph]
    if random_potential:
        potential = inputs.potential(name, n, edges)
        return Job(name, "spectrum", argv + ["--potential", potential],
                   functools.partial(oracle.spectrum, graph, potential))
    if d == 1:
        argv.append("--closed-form")
    return Job(name, "spectrum", argv,
               functools.partial(oracle.spectrum, graph, "unit", (n, d)))


def _distance_pair(inputs: Inputs, name: str, n: int, edges, seed: int) -> list[Job]:
    graph = inputs.graph(name, n, edges)
    potential = inputs.potential(name, n, edges)
    return [
        Job(f"{name} numeric", "distance_numeric",
            ["distance", "--graph", graph, "--numeric", "--potential", potential,
             "--seed", str(seed)],
            functools.partial(oracle.distance_numeric, graph)),
        Job(name, "distance", ["distance", "--graph", graph],
            functools.partial(oracle.distance, graph)),
    ]


def _laplacian(inputs: Inputs, name: str, n: int, d: int) -> list[Job]:
    edges = circulant_edges(n, d)
    graph = inputs.graph(name, n, edges)
    potential = inputs.potential(name, n, edges)
    return [
        Job(f"{name} {fmt}", "laplacian",
            ["laplacian", "--graph", graph, "--potential", potential, "--format", fmt],
            functools.partial(oracle.laplacian, graph, potential, fmt))
        for fmt in ("json", "csv")
    ]


def _sparse_graph(rng: np.random.Generator, n: int, sinks: int, degree: int):
    """Random out-neighbours for every vertex except `sinks` vertices that get
    no outgoing edge; about one vertex in ten also gets a self-loop."""
    no_out = set(rng.choice(n, size=sinks, replace=False).tolist())
    edges = []
    for u in range(n):
        if u in no_out:
            continue
        k = int(rng.integers(degree // 2, degree + degree // 2 + 1))
        targets = set(rng.choice(n, size=k, replace=False).tolist())
        if rng.random() < 0.1:
            targets.add(u)
        edges += [(u, v) for v in sorted(targets)]
    return edges


def spectrum_ladder(inputs: Inputs, seed: int) -> list[Job]:
    jobs = [_spectrum(inputs, f"ngon-{n}", n, 1, False) for n in (16, 64, 256)]
    jobs += [_spectrum(inputs, f"circulant-64-{d}", 64, d, False) for d in (2, 4)]
    jobs += [_spectrum(inputs, f"circulant-{n}-{d}-random", n, d, True)
             for n, d in ((64, 2), (32, 4))]
    return jobs


def distance_bracket(inputs: Inputs, seed: int) -> list[Job]:
    jobs = []
    for n, d in ((8, 1), (8, 2), (8, 3), (12, 3), (16, 2), (16, 4)):
        jobs += _distance_pair(inputs, f"circulant-{n}-{d}", n, circulant_edges(n, d), seed)
    # two vertices without an outgoing edge split the constraint cycle, so
    # some pairs take the unbounded-LP branch; one self-loop
    edges = _sparse_graph(inputs.rng, 8, sinks=2, degree=2)
    if not any(u == v for u, v in edges):
        edges.append((edges[0][0], edges[0][0]))
    jobs += _distance_pair(inputs, "sparse-8", 8, sorted(edges), seed)
    return jobs


def verify_battery(inputs: Inputs, seed: int) -> list[Job]:
    n = 8
    loop = int(inputs.rng.integers(n))
    edges = [(mu, (mu + 1) % n) for mu in range(n)] + [(mu, (mu - 1) % n) for mu in range(n)]
    graph = inputs.graph("bidirected-8-loop", n, sorted(edges + [(loop, loop)]))
    return [Job("bidirected-8-loop", "verify", ["verify", "--graph", graph, "--seed", str(seed)],
                oracle.verify)]


def bulk_io(inputs: Inputs, seed: int) -> list[Job]:
    n = 1024
    graph = inputs.graph("random-1024", n, _sparse_graph(inputs.rng, n, sinks=4, degree=16))
    jobs = [Job("random-1024", "distance", ["distance", "--graph", graph],
                functools.partial(oracle.distance, graph))]
    graph = inputs.graph("circulant-1024-4", n, circulant_edges(n, 4))
    jobs.append(Job("circulant-1024-4", "distance", ["distance", "--graph", graph],
                    functools.partial(oracle.distance, graph)))
    return jobs + _laplacian(inputs, "circulant-64-8", 64, 8)


WORKLOADS = {
    "spectrum-ladder": spectrum_ladder,
    "distance-bracket": distance_bracket,
    "verify-battery": verify_battery,
    "bulk-io": bulk_io,
}


def warmup(inputs: Inputs, kinds: set[str]) -> list[Job]:
    """The first call of each subcommand kind, on a tiny input.

    `verify` always runs its whole battery, so its warm-up is the numeric
    distance and spectrum calls that start the same solvers lazily.
    """
    n, d = 8, 2
    jobs = []
    if kinds & {"spectrum", "verify"}:
        jobs.append(_spectrum(inputs, "warm-ngon-8", n, 1, False))
        jobs.append(_spectrum(inputs, "warm-spectrum", n, d, True))
    if "laplacian" in kinds:
        jobs += _laplacian(inputs, "warm-laplacian", n, d)
    wanted = kinds | ({"distance_numeric"} if "verify" in kinds else set())
    pair = _distance_pair(inputs, "warm-distance", n, circulant_edges(n, d), 0)
    return jobs + [job for job in pair if job.kind in wanted]
