"""Command-line interface: formats, round trips and exit codes."""

import json
import math

import numpy as np
import pytest

from kahleredge import cli, graphs


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
