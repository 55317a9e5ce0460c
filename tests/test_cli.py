"""Command-line interface: formats, round trips and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kahleredge import cli, connection, dirac, graphs, spectra


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def ngon_text(n):
    return f"n {n}\n" + "".join(f"{mu} {(mu + 1) % n}\n" for mu in range(n))


# ------------------------------------------------------------------- generate

def test_generate_families(capsys):
    code, out, _ = run(capsys, "generate", "ngon", "5")
    assert code == 0
    g = graphs.parse_graph(out)
    assert g.edges == tuple(sorted((mu, (mu + 1) % 5) for mu in range(5)))

    code, out, _ = run(capsys, "generate", "bidirected-ngon", "3")
    assert code == 0
    assert graphs.parse_graph(out).num_edges == 6

    code, out, _ = run(capsys, "generate", "circulant", "6", "2")
    assert code == 0
    g = graphs.parse_graph(out)
    assert g.num_edges == 12 and all(g.out_degree(mu) == 2 for mu in range(6))


def test_generate_round_trip(capsys):
    from kahleredge import spectra

    for n in range(3, 9):
        for d in range(1, n):
            code, out, _ = run(capsys, "generate", "circulant", str(n), str(d))
            assert code == 0
            assert graphs.parse_graph(out) == spectra.make_circulant_regular(n, d)


def test_generate_errors(capsys):
    code, _, err = run(capsys, "generate", "circulant", "6")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "generate", "ngon", "2")
    assert code == 2
    code, _, _ = run(capsys, "generate", "square", "4")
    assert code == 1
    # only circulant takes a degree: a surplus one is an error, not ignored
    for family, n, d in (("ngon", "4", "3"), ("bidirected-ngon", "3", "7")):
        code, out, err = run(capsys, "generate", family, n, d)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "takes only n" in err


@pytest.mark.parametrize("n", [graphs.MAX_VERTICES + 1, 10**20])
def test_too_many_vertices_is_a_data_error(capsys, tmp_path, n):
    """Edge keys u*n + v must fit in int64: a larger n is refused with one
    message, before any array of length n is built."""
    message = f"vertex count {n} is too large: edge keys u*n + v need n <= 3037000499"
    path = write_graph(tmp_path, f"n {n}\n0 1\n")
    code, out, err = run(capsys, "distance", "--graph", path)
    assert (code, out, err) == (2, "", f"error: bad graph file {path}: line 1: {message}\n")
    for argv in (["ngon", str(n)], ["circulant", str(n), "2"], ["bidirected-ngon", str(n)]):
        assert run(capsys, "generate", *argv) == (2, "", f"error: {message}\n")


def test_out_of_memory_is_a_data_error(capsys, tmp_path, monkeypatch):
    """A graph that fits the int64 keys but not in memory is a one-line data
    error; the allocation is faked, never made."""
    message = ("Unable to allocate 22.6 GiB for an array with shape (3037000500,) "
               "and data type int64")

    def too_large(text):
        raise MemoryError(message)

    monkeypatch.setattr(graphs, "parse_graph", too_large)
    path = write_graph(tmp_path, "n 3037000499\n0 1\n")
    assert run(capsys, "distance", "--graph", path) == (
        2, "", f"error: {message}: the input is too large for memory\n")


# ------------------------------------------------------------------- spectrum

def test_spectrum_4gon_closed_form(capsys, tmp_path):
    path = write_graph(tmp_path, ngon_text(4))
    code, out, _ = run(capsys, "spectrum", "--graph", path, "--closed-form")
    assert code == 0
    data = json.loads(out)
    assert np.allclose(data["eigenvalues"], [0.0, 2.0, 2.0, 4.0], atol=1e-9)
    assert np.allclose(data["closed_form"], [0.0, 2.0, 2.0, 4.0])
    assert data["max_deviation"] <= 1e-9


def test_spectrum_circulant_top_eigenvalue(capsys, tmp_path):
    _, text, _ = run(capsys, "generate", "circulant", "4", "2")
    path = write_graph(tmp_path, text)
    code, out, _ = run(capsys, "spectrum", "--graph", path)
    assert code == 0
    assert max(json.loads(out)["eigenvalues"]) == pytest.approx(9.0, abs=1e-9)


def test_spectrum_csv_equals_json(capsys, tmp_path):
    path = write_graph(tmp_path, ngon_text(5))
    code, jout, _ = run(capsys, "spectrum", "--graph", path, "--format", "json")
    assert code == 0
    code, cout, _ = run(capsys, "spectrum", "--graph", path, "--format", "csv")
    assert code == 0
    from_json = json.loads(jout)["eigenvalues"]
    from_csv = [float(line) for line in cout.splitlines()]
    assert from_json == from_csv  # identical after parsing, not just close


def test_spectrum_closed_form_requires_ngon(capsys, tmp_path):
    path = write_graph(tmp_path, "n 3\n0 1\n")
    code, _, err = run(capsys, "spectrum", "--graph", path, "--closed-form")
    assert code == 2 and "n-gon" in err


# ------------------------------------------------------------------ laplacian

def test_laplacian_output_formats(capsys, tmp_path):
    path = write_graph(tmp_path, ngon_text(3))
    code, jout, _ = run(capsys, "laplacian", "--graph", path)
    assert code == 0
    data = json.loads(jout)
    mat = np.array(data["real"]) + 1j * np.array(data["imag"])
    assert np.allclose(mat, [[2, 1, 1], [1, 2, 1], [1, 1, 2]])

    code, cout, _ = run(capsys, "laplacian", "--graph", path, "--format", "csv")
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in cout.splitlines()]
    csv_mat = np.array(rows)[:, 0::2] + 1j * np.array(rows)[:, 1::2]
    assert np.array_equal(csv_mat, mat)


def test_laplacian_zero_potential(capsys, tmp_path):
    path = write_graph(tmp_path, ngon_text(3))
    code, out, _ = run(capsys, "laplacian", "--graph", path, "--potential", "zero")
    assert code == 0
    data = json.loads(out)
    assert np.allclose(np.array(data["real"]), np.eye(3))


def test_laplacian_potential_file(capsys, tmp_path):
    gpath = write_graph(tmp_path, ngon_text(3))
    ppath = tmp_path / "pot.txt"
    ppath.write_text("0 1 0 1.0 0.0\n")
    code, out, _ = run(capsys, "laplacian", "--graph", gpath, "--potential", str(ppath))
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("0 2 0 1.0 0.0\n")
    code, _, err = run(capsys, "laplacian", "--graph", gpath, "--potential", str(bad))
    assert code == 2 and "bad potential file" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_spectrum_rejects_non_finite_potential(capsys, tmp_path, value):
    gpath = write_graph(tmp_path, ngon_text(3))
    ppath = tmp_path / "pot.txt"
    ppath.write_text(f"0 1 0 1.0 0.0\n1 2 1 {value} 0.0\n")
    code, out, err = run(capsys, "spectrum", "--graph", gpath, "--potential", str(ppath))
    assert code == 2 and out == ""
    assert "bad potential file" in err and "line 2: non-finite" in err


def test_spectrum_rejects_duplicate_potential_triple(capsys, tmp_path):
    gpath = write_graph(tmp_path, ngon_text(3))
    ppath = tmp_path / "pot.txt"
    ppath.write_text("0 1 0 1.0 0.0\n0 1 0 5.0 0.0\n")
    code, out, err = run(capsys, "spectrum", "--graph", gpath, "--potential", str(ppath))
    assert code == 2 and out == ""
    assert "bad potential file" in err and "line 2: duplicate potential triple (0, 1, 0)" in err


@pytest.mark.parametrize("command", ["spectrum", "laplacian"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_overflowing_laplacian_is_a_data_error(capsys, tmp_path, command, fmt):
    # a finite potential whose square overflows: L gets inf and nan entries
    gpath = write_graph(tmp_path, ngon_text(3))
    ppath = tmp_path / "pot.txt"
    ppath.write_text("0 1 0 1e200 0\n")
    code, out, err = run(capsys, command, "--graph", gpath, "--potential", str(ppath),
                         "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "non-finite" in err


def test_spectrum_of_a_circulant_takes_the_fourier_route(capsys, tmp_path, monkeypatch):
    _, text, _ = run(capsys, "generate", "circulant", "64", "4")
    path = write_graph(tmp_path, text)
    g = graphs.parse_graph(text)
    dense = spectra.eig_selfadjoint(
        connection.laplacian(g, connection.PotentialCoefficients.unit(g))).eigenvalues

    def refuse(*args):
        raise AssertionError("the dense route ran")

    monkeypatch.setattr(spectra, "eig_selfadjoint", refuse)
    code, out, err = run(capsys, "spectrum", "--graph", path)
    assert code == 0 and err == ""
    eigs = np.array(json.loads(out)["eigenvalues"])
    assert eigs.shape == dense.shape
    assert np.abs(eigs - dense).max() <= 1e-12 * dense.max()


@pytest.mark.parametrize("change", ["ulp", "edge removed", "self-loop added"])
def test_spectrum_off_the_fourier_route_is_the_dense_solve(capsys, tmp_path, change):
    """One coefficient one ulp off a rotation-invariant potential, one edge
    removed or one self-loop added: the dense route, bit for bit."""
    n, offsets = 9, (2, 7)
    edges = [(mu, (mu + o) % n) for mu in range(n) for o in offsets]
    if change == "edge removed":
        edges.remove((4, 6))
    elif change == "self-loop added":
        edges.append((4, 4))
    g = graphs.DirectedCyclicGraph(n, edges)
    # Z[a, b] = 0.25 a - 0.5 b + (0.5 + ab) i on the keys the graph has
    keys = [(mu, (mu + oa) % n, (mu - 1 + ob) % n, a, b)
            for mu in range(n) for a, oa in enumerate(offsets) for b, ob in enumerate(offsets)]
    lines = [f"{mu} {nu} {nup} {0.25 * a - 0.5 * b!r} {0.5 + a * b!r}"
             for mu, nu, nup, a, b in keys
             if connection.PotentialCoefficients.is_valid_key(g, mu, nu, nup)]
    if change == "ulp":  # off a potential that takes the route
        unnudged = connection.parse_potential("\n".join(lines), g)
        assert spectra.circulant_spectrum(g, unnudged) is not None
        head, im = lines[5].rsplit(" ", 1)
        lines[5] = f"{head} {float(np.nextafter(float(im), np.inf))!r}"
    gpath = write_graph(tmp_path, graphs.format_graph(g))
    ppath = tmp_path / "pot.txt"
    ppath.write_text("\n".join(lines) + "\n")
    c = connection.parse_potential(ppath.read_text(), g)
    assert spectra.circulant_spectrum(g, c) is None
    code, out, err = run(capsys, "spectrum", "--graph", gpath, "--potential", str(ppath))
    assert code == 0 and err == ""
    dense = spectra.eig_selfadjoint(connection.laplacian(g, c)).eigenvalues
    assert json.loads(out)["eigenvalues"] == dense.tolist()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_overflowing_rotation_invariant_potential_is_a_data_error(
        capsys, tmp_path, monkeypatch, fmt):
    # every block of the 3-gon is 1e200: the Fourier route takes it and
    # checks the entries of L, conj(Z) Z^T + I among them, as the dense route does
    gpath = write_graph(tmp_path, ngon_text(3))
    ppath = tmp_path / "pot.txt"
    ppath.write_text("0 1 0 1e200 0\n1 2 1 1e200 0\n2 0 2 1e200 0\n")
    def refuse(*args):
        raise AssertionError("the dense route ran")

    monkeypatch.setattr(cli, "_laplacian", refuse)
    code, out, err = run(capsys, "spectrum", "--graph", gpath, "--potential", str(ppath),
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: the Laplacian has non-finite entries: the potential overflows\n"


# ------------------------------------------------------------------- distance

def test_distance_5gon(capsys, tmp_path):
    path = write_graph(tmp_path, ngon_text(5))
    code, out, err = run(capsys, "distance", "--graph", path)
    assert code == 0 and err == ""
    data = json.loads(out)
    mat = np.array(data["distances"], dtype=float)
    expect = [[min((a - b) % 5, (b - a) % 5) for b in range(5)] for a in range(5)]
    assert np.array_equal(mat, np.array(expect, dtype=float))
    assert mat.max() == 2.0


def test_distance_infinite_and_warning(capsys, tmp_path):
    path = write_graph(tmp_path, "n 3\n0 1\n")
    code, out, err = run(capsys, "distance", "--graph", path)
    assert code == 0
    assert "warning" in err and "infinite" in err
    data = json.loads(out)
    assert data["distances"][1][2] == "inf"
    code, cout, _ = run(capsys, "distance", "--graph", path, "--format", "csv")
    assert code == 0
    assert "inf" in cout


def test_one_sink_does_not_warn(capsys, tmp_path):
    # vertex 3 has no out-edge: it cuts the cycle into a path, so every
    # distance stays finite
    path = write_graph(tmp_path, "n 6\n0 1\n1 2\n2 3\n4 5\n5 0\n")
    for extra in ((), ("--numeric",)):
        code, out, err = run(capsys, "distance", "--graph", path, *extra)
        assert code == 0 and err == ""
        assert "inf" not in out


def test_distance_numeric_bracket(capsys, tmp_path):
    path = write_graph(tmp_path, ngon_text(4))
    code, out, _ = run(capsys, "distance", "--graph", path, "--numeric")
    assert code == 0
    data = json.loads(out)
    dist = np.array(data["distances"], dtype=float)
    lower = np.array(data["lower"], dtype=float)
    upper = np.array(data["upper"], dtype=float)
    assert np.max(np.abs(lower - dist)) <= 1e-6
    assert np.max(np.abs(upper - dist)) <= 1e-6


def test_distance_lp_failure_is_a_data_error(monkeypatch, capsys, tmp_path):
    failed = SimpleNamespace(status=2, message="The problem is infeasible.", x=None)
    monkeypatch.setattr(dirac, "linprog", lambda *args, **kwargs: failed)
    g = graphs.parse_graph(ngon_text(5))
    with pytest.raises(RuntimeError, match="distance LP failed with status 2"):
        dirac.distance_bracket(g, connection.PotentialCoefficients.unit(g))
    code, out, err = run(capsys, "distance", "--graph", write_graph(tmp_path, ngon_text(5)),
                         "--numeric")
    assert code == 2 and out == ""
    assert "distance LP failed with status 2: The problem is infeasible." in err


def test_distance_seed_has_no_effect(capsys, tmp_path):
    # the argv of the benchmark's numeric jobs: --seed is parsed and ignored
    path = write_graph(tmp_path, "n 8\n0 0\n0 1\n1 2\n2 3\n5 6\n6 7\n7 0\n")
    outs = set()
    for seed in ("0", "12345"):
        code, out, _ = run(capsys, "distance", "--graph", path, "--numeric",
                           "--potential", "zero", "--seed", seed)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_potential_without_numeric_is_a_usage_error(capsys, tmp_path):
    # plain distances never read the potential, so naming one is a mistake
    path = write_graph(tmp_path, ngon_text(3))
    missing = str(tmp_path / "nonexistent.txt")
    code, out, err = run(capsys, "distance", "--graph", path, "--potential", missing)
    assert code == 1 and out == ""
    assert "--numeric" in err


COLD_START = """
import contextlib, io, sys
from kahleredge import cli

def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

graph = sys.argv[1]
with open(graph, "w", encoding="utf-8") as handle:
    handle.write(call("generate", "circulant", "16", "2"))
for command in ("spectrum", "laplacian", "distance"):
    call(command, "--graph", graph)
assert not scipy_modules(), scipy_modules()[:5]
call("distance", "--numeric", "--graph", graph)
assert "scipy.optimize" in sys.modules
call("verify", "--graph", graph)
# operators are plain ndarrays: no command loads the old wrapper module
assert "kahleredge.operators" not in sys.modules
"""


def test_scipy_loads_only_for_the_numeric_bracket(tmp_path):
    # a fresh interpreter: this one already holds SciPy through other tests
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", COLD_START, str(tmp_path / "c.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------- verify

def test_verify_passes_and_reports(capsys, tmp_path):
    path = write_graph(tmp_path, ngon_text(4))
    code, out, err = run(capsys, "verify", "--graph", path)
    assert code == 0 and err == ""
    lines = [line for line in out.splitlines() if line]
    assert all(" PASS " in line for line in lines)
    assert len(lines) > 50


def test_verify_negative_control(capsys):
    code, out, err = run(capsys, "verify", "--corrupt-wedge-sign")
    assert code == 3
    failing = [line.split()[0] for line in out.splitlines() if " FAIL " in line]
    # the flipped sign breaks exactly the checks that pin it
    assert failing == [
        f"{name}[n={n}]"
        for n in (3, 4, 5, 8, 12)
        for name in ("hodge-consistency", "metric-positive")
    ]
    assert "failed" in err


# ------------------------------------------------------------------ exit codes

def test_usage_errors(capsys):
    assert run(capsys, "spectrum", "--bogus")[0] == 1
    assert run(capsys, "nosuchcommand")[0] == 1
    # a seed that is not a non-negative integer is a usage error naming --seed
    for seed in ("-1", "abc"):
        code, out, err = run(capsys, "verify", "--seed", seed)
        assert code == 1 and out == "" and "--seed" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--tol", "1e-9"],
    ["laplacian", "--tol", "1e-9"],
    ["distance", "--tol", "1e-9"],
    ["verify", "--tol", "1e-9"],
    ["spectrum", "--seed", "1"],
    ["laplacian", "--seed", "1"],
    ["verify", "--format", "json"],
    ["verify", "--spectral-max-n", "8"],
])
def test_flags_that_did_nothing_are_usage_errors(capsys, tmp_path, argv):
    path = write_graph(tmp_path, ngon_text(3))
    code, out, err = run(capsys, *argv, "--graph", path)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def test_data_errors(capsys, tmp_path):
    assert run(capsys, "spectrum")[0] == 2  # graph required
    assert run(capsys, "spectrum", "--graph", str(tmp_path / "missing.txt"))[0] == 2
    bad = write_graph(tmp_path, "n 2\n0 1\n", "bad.txt")
    code, _, err = run(capsys, "spectrum", "--graph", bad)
    assert code == 2 and "bad graph file" in err


# ------------------------------------------------------------- golden stdout
# The exact bytes each subcommand prints.  The inputs keep every printed
# float free of rounding (zero potential, a potential whose products are
# exact in binary, integer distances), so the digits do not depend on the
# BLAS/LAPACK build.  The zero signs are those of the assembly: zeta^dagger
# holds the potential's own 0.0 real parts, so real[1][0] prints `0`.

GOLDEN_FILES = {
    "ngon4": ngon_text(4),
    "tri": ngon_text(3),
    # the entries of L need 17 digits: 1 + 2**-25 and its square
    "exact": "0 1 0 -0.5 -1.0000000298023224\n1 2 1 0.0 -0.5\n2 0 2 0.25 0.0\n",
    # vertices 2 and 3 have no out-edge, so some distances are infinite
    "sinks": "n 5\n0 1\n0 3\n1 2\n4 0\n",
    "empty": "n 3\n",
}

GOLDEN = [
    (("spectrum", "--graph", "ngon4", "--potential", "zero"),
     '{"eigenvalues":[1,1,1,1]}\n'),
    (("spectrum", "--graph", "ngon4", "--potential", "zero", "--format", "csv"),
     "1\n1\n1\n1\n"),
    (("spectrum", "--graph", "ngon4", "--potential", "zero", "--closed-form"),
     '{"eigenvalues":[1,1,1,1],"closed_form":[0,1.9999999999999996,2,4],"max_deviation":3}\n'),
    (("spectrum", "--graph", "ngon4", "--potential", "zero", "--closed-form", "--format", "csv"),
     "1\n1\n1\n1\n0,1.9999999999999996,2,4\n3\n"),
    (("laplacian", "--graph", "tri", "--potential", "exact"),
     '{"rows":3,"cols":3,'
     '"real":[[2.2500000596046457,0,-0.5],[0,1.25,0.25],[-0.5,0.25,1.0625]],'
     '"imag":[[0,-0.5,1.0000000298023224],[0.5,0,0],[-1.0000000298023224,0,0]]}\n'),
    (("laplacian", "--graph", "tri", "--potential", "exact", "--format", "csv"),
     "2.2500000596046457,0,0,-0.5,-0.5,1.0000000298023224\n"
     "0,0.5,1.25,0,0.25,0\n"
     "-0.5,-1.0000000298023224,0.25,0,1.0625,0\n"),
    (("distance", "--graph", "sinks"),
     '{"n":5,"distances":[[0,1,2,"inf",1],[1,0,1,"inf",2],[2,1,0,"inf",3],'
     '["inf","inf","inf",0,"inf"],[1,2,3,"inf",0]]}\n'),
    (("distance", "--graph", "sinks", "--format", "csv"),
     "0,1,2,inf,1\n1,0,1,inf,2\n2,1,0,inf,3\ninf,inf,inf,0,inf\n1,2,3,inf,0\n"),
    (("distance", "--graph", "sinks", "--numeric"),
     '{"n":5,"distances":[[0,1,2,"inf",1],[1,0,1,"inf",2],[2,1,0,"inf",3],'
     '["inf","inf","inf",0,"inf"],[1,2,3,"inf",0]],'
     '"lower":[[0,1,2,"inf",1],[1,0,1,"inf",2],[2,1,0,"inf",3],'
     '["inf","inf","inf",0,"inf"],[1,2,3,"inf",0]],'
     '"upper":[[0,1,2,"inf",1],[1,0,1,"inf",2],[2,1,0,"inf",3],'
     '["inf","inf","inf",0,"inf"],[1,2,3,"inf",0]]}\n'),
    (("distance", "--graph", "sinks", "--numeric", "--format", "csv"),
     "0,1,2,inf,1\n1,0,1,inf,2\n2,1,0,inf,3\ninf,inf,inf,0,inf\n1,2,3,inf,0\n" * 3),
    # an empty matrix prints no line at all, and empty lists in JSON
    (("laplacian", "--graph", "empty", "--format", "csv"), ""),
    (("spectrum", "--graph", "empty", "--format", "csv"), ""),
    (("laplacian", "--graph", "empty"), '{"rows":0,"cols":0,"real":[],"imag":[]}\n'),
    (("spectrum", "--graph", "empty"), '{"eigenvalues":[]}\n'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(capsys, tmp_path, argv, expected):
    paths = {name: write_graph(tmp_path, text, name) for name, text in GOLDEN_FILES.items()}
    code, out, _ = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 0
    assert out == expected


# ------------------------------------------------------ golden large outputs
# Outputs of several row blocks against a reference formatted cell by cell.

def per_cell(mat, json=False):
    cell = lambda x: '"inf"' if json and x == math.inf else "%.17g" % x
    return [",".join(cell(x) for x in row) for row in mat.tolist()]


def test_large_outputs_match_the_per_cell_format(capsys, tmp_path):
    n = 600
    code, text, _ = run(capsys, "generate", "circulant", str(n), "3")
    assert code == 0
    # vertices 100 and 400 lose their out-edges: two cuts, so "inf" cells
    sinks = "".join(line + "\n" for line in text.splitlines()
                    if line.split()[0] not in ("100", "400"))
    for graph_text in (text, sinks):
        g = graphs.parse_graph(graph_text)
        dist = dirac.all_pairs_distances(g)
        assert dist.shape[0] > 2 * cli.ROW_BLOCK
        assert (graph_text == sinks) == bool(np.isinf(dist).any())
        path = write_graph(tmp_path, graph_text)
        code, out, _ = run(capsys, "distance", "--graph", path, "--format", "csv")
        assert code == 0 and out == "".join(row + "\n" for row in per_cell(dist))
        code, out, _ = run(capsys, "distance", "--graph", path)
        rows = ",".join("[" + row + "]" for row in per_cell(dist, json=True))
        assert code == 0 and out == '{"n":%d,"distances":[%s]}\n' % (n, rows)

    g = graphs.parse_graph(run(capsys, "generate", "circulant", "150", "2")[1])
    rng = np.random.default_rng(5)
    keys = connection.PotentialCoefficients.valid_keys(g).tolist()
    pot = tmp_path / "pot.txt"
    pot.write_text("".join(f"{mu} {nu} {nup} {rng.standard_normal()!r} {rng.standard_normal()!r}\n"
                           for mu, nu, nup in keys))
    lap = connection.laplacian(g, connection.parse_potential(pot.read_text(), g))
    assert lap.shape[0] > cli.ROW_BLOCK
    path = write_graph(tmp_path, graphs.format_graph(g))
    code, out, _ = run(capsys, "laplacian", "--graph", path, "--potential", str(pot),
                       "--format", "csv")
    assert code == 0 and out == "".join(row + "\n" for row in per_cell(lap.view(float)))
