"""Independent oracles for the CLI jobs of the benchmark.

Nothing here imports the package under test.  Each builder reads the same
graph and potential files the CLI reads, computes the expected answer its own
way, and returns a check ``(exit_code, stdout) -> error message or None``.
Tolerances are the library's own: 1e-12 for assembly, 1e-9 for spectra and
1e-6 for the numeric distance bracket.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

ASSEMBLY_TOL = 1e-12
SPECTRUM_TOL = 1e-9
BRACKET_TOL = 1e-6


def read_graph(path: str) -> tuple[int, np.ndarray]:
    """Vertex count and the (m, 2) edge array in lexicographic order."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].split()
            if line:
                rows.append(line)
    n = int(rows[0][1])
    edges = np.array([[int(u), int(v)] for u, v in rows[1:]], dtype=np.int64).reshape(-1, 2)
    return n, edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def laplacian_matrix(graph_path: str, potential: str) -> np.ndarray:
    """L = A^dagger A with A = I + zeta, where zeta[e', e] = c[s(e), t(e), t(e')]
    whenever s(e') = s(e) - 1 mod n; assembled from index arrays."""
    n, edges = read_graph(graph_path)
    m = len(edges)
    src = edges[:, 0]
    if potential == "unit":
        zeta = ((src[:, None] - src[None, :] + 1) % n == 0).astype(complex)
    else:
        index = np.full((n, n), -1, dtype=np.int64)
        index[src, edges[:, 1]] = np.arange(m)
        table = np.loadtxt(potential, ndmin=2)
        mu, nu, nup = (table[:, k].astype(np.int64) for k in range(3))
        zeta = np.zeros((m, m), dtype=complex)
        zeta[index[(mu - 1) % n, nup], index[mu, nu]] = table[:, 3] + 1j * table[:, 4]
    a = np.eye(m, dtype=complex) + zeta
    return a.conj().T @ a


def unit_circulant_spectrum(n: int, d: int) -> np.ndarray:
    """{1 (x n(d-1))} u {1 + d^2 + 2d cos(2 pi j / n)}; the n-gon's
    {2 + 2cos(2 pi j / n)} at d = 1."""
    j = np.arange(n)
    top = 1.0 + d * d + 2.0 * d * np.cos(2.0 * np.pi * j / n)
    return np.sort(np.concatenate([np.ones(n * (d - 1)), top]))


def exact_distances(graph_path: str) -> np.ndarray:
    """Shortest paths on the cycle segments {lam, lam+1} of every vertex lam
    that has an outgoing edge; inf between components."""
    n, edges = read_graph(graph_path)
    lam = np.unique(edges[:, 0])
    adj = csr_matrix((np.ones(len(lam)), (lam, (lam + 1) % n)), shape=(n, n))
    return shortest_path(adj, directed=False, unweighted=True)


def _max_diff(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return np.inf
    return float(np.max(np.abs(got - want))) if got.size else 0.0


def _exit_zero(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}"


def spectrum(graph_path: str, potential: str, closed_form=None):
    """`closed_form` is (n, d) for a unit-potential circulant, else None."""
    want = np.linalg.eigvalsh(laplacian_matrix(graph_path, potential))
    closed = None if closed_form is None else unit_circulant_spectrum(*closed_form)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _exit_zero(code)
        data = json.loads(out)
        got = data["eigenvalues"]
        err = _max_diff(got, want)
        if err > SPECTRUM_TOL:
            return f"eigenvalues differ from eigvalsh by {err:.3e}"
        if closed is not None:
            err = _max_diff(got, closed)
            if err > SPECTRUM_TOL:
                return f"eigenvalues differ from the closed form by {err:.3e}"
            if "closed_form" in data and _max_diff(data["closed_form"], closed) > SPECTRUM_TOL:
                return "printed closed form is wrong"
        return None

    return check


def laplacian(graph_path: str, potential: str, fmt: str):
    want = laplacian_matrix(graph_path, potential)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _exit_zero(code)
        if fmt == "json":
            data = json.loads(out)
            got = np.array(data["real"]) + 1j * np.array(data["imag"])
        else:
            cells = np.array(list(csv.reader(io.StringIO(out))), dtype=float)
            got = cells[:, 0::2] + 1j * cells[:, 1::2]
        err = _max_diff(got, want)
        return None if err <= ASSEMBLY_TOL else f"Laplacian differs by {err:.3e}"

    return check


def _json_with_inf(out: str) -> dict:
    return json.loads(out.replace('"inf"', "Infinity"))


def _distance_error(got, want) -> str | None:
    got = np.array(got, dtype=float)
    if got.shape != want.shape or not np.array_equal(np.isinf(got), np.isinf(want)):
        return "unbounded pairs differ from shortest paths"
    finite = np.isfinite(want)
    err = _max_diff(got[finite], want[finite])
    return None if err <= ASSEMBLY_TOL else f"distances differ by {err:.3e}"


def distance(graph_path: str):
    want = exact_distances(graph_path)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _exit_zero(code)
        return _distance_error(_json_with_inf(out)["distances"], want)

    return check


def distance_numeric(graph_path: str):
    want = exact_distances(graph_path)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _exit_zero(code)
        data = _json_with_inf(out)
        error = _distance_error(data["distances"], want)
        if error:
            return error
        lower = np.array(data["lower"], dtype=float)
        upper = np.array(data["upper"], dtype=float)
        if lower.shape != want.shape or upper.shape != want.shape:
            return "numeric bracket has the wrong shape"
        if not np.all((lower <= want + BRACKET_TOL) & (upper >= want - BRACKET_TOL)):
            return "numeric bracket does not contain the exact distance"
        return None

    return check


def verify():
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _exit_zero(code)
        lines = out.splitlines()
        bad = [line for line in lines if line.split()[1:2] != ["PASS"]]
        if not lines or bad:
            return f"{len(bad)} check lines are not PASS"
        return None

    return check
