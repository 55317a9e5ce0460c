"""Acceptance gate: the eight headline guarantees, one pass/fail line each."""

import math
import time

import numpy as np
import pytest

from kahleredge import connection, dirac, graphs, spectra
from kahleredge.connection import PotentialCoefficients
from kahleredge.polygon import Calculus

from conftest import random_graph, random_edge_values


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{(' ' + detail) if detail else ''}"


def max_abs(x):
    return float(np.max(np.abs(x), initial=0.0))


def unit_laplacian(g):
    return connection.laplacian(g, PotentialCoefficients.unit(g))


def test_criterion_1_ngon_spectrum(capsys):
    start = time.monotonic()
    worst = 0.0
    for n in range(3, 65):
        g = spectra.make_circulant_regular(n, 1)
        eigs = spectra.eig_selfadjoint(unit_laplacian(g)).eigenvalues
        worst = max(worst, float(np.max(np.abs(eigs - spectra.ngon_closed_form(n)))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(
        capsys, 1, "n-gon spectrum matches closed form for n=3..64", ok,
        f"max |delta|={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_kernel_parity(capsys):
    worst = 0.0
    parity_ok = True
    for n in range(3, 65):
        g = spectra.make_circulant_regular(n, 1)
        lap = unit_laplacian(g)
        eigs = spectra.eig_selfadjoint(lap).eigenvalues
        has_zero = float(np.min(np.abs(eigs))) <= 1e-9
        parity_ok = parity_ok and (has_zero == (n % 2 == 0))
        if n % 2 == 0:
            alt = np.array([(-1.0) ** k for k in range(n)])
            worst = max(worst, float(np.max(np.abs(lap @ alt))))
    ok = parity_ok and worst <= 1e-9
    report(
        capsys, 2, "kernel present iff n even, alternating vector in kernel", ok,
        f"max kernel residual={worst:.2e}",
    )


def test_criterion_3_regular_extremes(capsys):
    res_range, res_top, ok_sums = 0.0, 0.0, True
    for n in range(3, 13):
        for d in range(1, n):
            g = spectra.make_circulant_regular(n, d)
            lap = unit_laplacian(g)
            eigs = spectra.eig_selfadjoint(lap).eigenvalues
            bound = float((d + 1) ** 2)
            res_range = max(res_range, float(-eigs[0]), float(eigs[-1]) - bound)
            res_top = max(res_top, abs(float(eigs[-1]) - bound))
            ones = np.ones(g.num_edges)
            res_top = max(res_top, float(np.max(np.abs(lap @ ones - bound * ones))))
            exact = connection.laplacian_unit_int(g)
            want = (d + 1) ** 2
            ok_sums = ok_sums and bool(
                np.all(exact.sum(axis=0) == want) and np.all(exact.sum(axis=1) == want)
            )
    ok = res_range <= 1e-9 and res_top <= 1e-9 and ok_sums
    report(
        capsys, 3,
        "d-regular spectrum in [0,(d+1)^2], top eigenpair and exact integer sums",
        ok, f"range residual={res_range:.2e}, top residual={res_top:.2e}",
    )


def test_criterion_4_closed_form_adjoints(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        g = random_graph(rng, max_n=8)
        c = PotentialCoefficients.random(g, rng)
        if not g.num_edges:
            continue
        nabla = np.eye(g.num_edges)
        zeta = connection.zeta_operator(g, c)
        blocks = connection.composite_blocks(g, c)
        pairs = [
            (connection.zeta_dagger_closed_form(g, c), zeta.conj().T),
            (blocks["nabla0_dagger_nabla0"], nabla.conj().T @ nabla),
            (blocks["nabla0_dagger_zeta"], nabla.conj().T @ zeta),
            (blocks["zeta_dagger_nabla0"], zeta.conj().T @ nabla),
            (blocks["zeta_dagger_zeta"], zeta.conj().T @ zeta),
        ]
        for closed, assembled in pairs:
            worst = max(worst, float(np.max(np.abs(closed - assembled))))
    ok = worst <= 1e-12
    report(
        capsys, 4,
        "closed-form adjoints and composites match conjugate transposes",
        ok, f"max residual={worst:.2e}",
    )


def test_criterion_5_matrix_free_unit_action(capsys):
    rng = np.random.default_rng(103)
    worst = 0.0
    count = 0
    while count < 1000:
        g = random_graph(rng, max_n=8)
        if not g.num_edges:
            continue
        unit = PotentialCoefficients.unit(g)
        lap = connection.laplacian(g, unit)
        for _ in range(25):
            f = random_edge_values(rng, g.num_edges)
            direct = connection.apply_laplacian(g, unit, f)
            worst = max(worst, float(np.max(np.abs(direct - lap @ f))))
            count += 1
    ok = worst <= 1e-12
    report(
        capsys, 5,
        "matrix-free unit Laplacian matches assembly on 1000 random edge functions",
        ok, f"max residual={worst:.2e}",
    )


def test_criterion_6_hodge_kahler_suite(capsys):
    rng = np.random.default_rng(107)
    res_star, res_kappa, res_metric = 0.0, 0.0, 0.0
    rank_ok = True
    forms = 0
    sizes = list(range(3, 11))
    for n in sizes:
        cal = Calculus(n)
        degree = [0] * n + [1] * (2 * n) + [2] * n
        for k, b in zip(degree, cal.basis_forms()):
            sign = -1.0 if k == 1 else 1.0
            res_star = max(
                res_star, max_abs(cal.hodge_star(cal.hodge_star(b)) - sign * b)
            )
        kappa = cal.kahler_form()
        res_kappa = max(res_kappa, max_abs(cal.star_involution(kappa) - kappa))
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res_kappa = max(
            res_kappa,
            max_abs(cal.bimodule_act(f, kappa, "left") - cal.bimodule_act(f, kappa, "right")),
        )
        mat = np.column_stack(
            [cal.lefschetz(cal.from_vertex(cal.delta(m)))[3] for m in range(n)]
        )
        rank_ok = rank_ok and np.linalg.matrix_rank(mat, tol=1e-9) == n
        for _ in range(125):
            z = lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = cal.form(deg0=z(), deg1_fwd=z(), deg1_bwd=z(), deg2=z())
            gww = cal.metric_g(w, w)
            res_metric = max(
                res_metric, float(np.max(np.abs(gww.imag))), float(np.max(-gww.real))
            )
            # definiteness: a generic nonzero form has strictly positive mass
            if float(np.sum(gww.real)) <= 0.0:
                res_metric = max(res_metric, 1.0)
            forms += 1
    ok = res_star <= 1e-9 and res_kappa <= 1e-9 and res_metric <= 1e-9 and rank_ok
    report(
        capsys, 6,
        "Hodge star squares, metric positivity, central real form, full-rank pairing",
        ok,
        f"star={res_star:.2e}, form={res_kappa:.2e}, metric={res_metric:.2e}, "
        f"{forms} forms",
    )


def test_criterion_7_distances(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(109)
    res_unit, res_diam, res_oracle = 0.0, 0.0, 0.0
    invariance_ok = True
    test_graphs = [random_graph(rng, max_n=8, full_out_degree=True) for _ in range(10)]
    for g in test_graphs:
        n = g.n
        dmat = dirac.all_pairs_distances(g)
        res_unit = max(
            res_unit, max(abs(dmat[mu, (mu + 1) % n] - 1.0) for mu in range(n))
        )
        res_diam = max(res_diam, float(np.max(dmat)) - math.floor(n / 2))
        lower, upper = dirac.distance_bracket(g)
        res_oracle = max(
            res_oracle, np.max(np.abs(lower - dmat)), np.max(np.abs(upper - dmat))
        )
    # potential independence: the commutator with a real and a complex
    # function is equal, entry for entry, across 10 potentials, so the
    # distances, which see only it, do not depend on the potential
    g = test_graphs[0]
    f = rng.standard_normal(g.n) + np.array([[0.0], [1j]]) * rng.standard_normal(g.n)
    base = dirac.commutator_with_function(
        dirac.dirac_operator(g, PotentialCoefficients.zero(g)), f, g)
    for _ in range(10):
        c = PotentialCoefficients.random(g, rng)
        got = dirac.commutator_with_function(dirac.dirac_operator(g, c), f, g)
        invariance_ok = invariance_ok and np.array_equal(got, base)
    elapsed = time.monotonic() - start
    ok = (
        res_unit <= 1e-12
        and res_diam <= 1e-12
        and res_oracle <= 1e-6
        and invariance_ok
        and elapsed < 60.0
    )
    report(
        capsys, 7,
        "unit steps, diameter bound, oracle agreement, potential independence",
        ok,
        f"unit={res_unit:.1e}, diam={res_diam:.1e}, oracle={res_oracle:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_hermitian_module_suite(capsys):
    rng = np.random.default_rng(113)
    res_pos, res_sym, res_proj, res_gram = 0.0, 0.0, 0.0, 0.0
    count = 0
    while count < 1000:
        g = random_graph(rng, max_n=8)
        m = g.num_edges
        if not m:
            continue
        for _ in range(25):
            x = random_edge_values(rng, m)
            y = random_edge_values(rng, m)
            hxx = graphs.hermitian_pairing(g, x, x)
            res_pos = max(
                res_pos, float(np.max(np.abs(hxx.imag))), float(np.max(-hxx.real))
            )
            diff = graphs.hermitian_pairing(g, x, y) - np.conj(
                graphs.hermitian_pairing(g, y, x)
            )
            res_sym = max(res_sym, float(np.max(np.abs(diff))))
            count += 1
        if not g.has_self_loop():
            proj = graphs.complete_graph_projector(g)
            res_proj = max(res_proj, float(np.max(np.abs((proj @ proj - proj).data), initial=0.0)))
        basis = graphs.orthonormal_basis(g)
        gram = np.array(
            [[graphs.inner_product(g, u, v) for v in basis] for u in basis]
        )
        res_gram = max(res_gram, float(np.max(np.abs(gram - np.eye(2 * m)))))
    ok = max(res_pos, res_sym, res_proj, res_gram) <= 1e-12
    report(
        capsys, 8,
        "Hermitian pairing positive and symmetric, projector idempotent, basis orthonormal",
        ok,
        f"pos={res_pos:.1e}, sym={res_sym:.1e}, proj={res_proj:.1e}, gram={res_gram:.1e}",
    )
