"""Executable consistency checks, one per structural fact the package relies on.

Each check measures a residual and passes when it is below its tolerance.
The CLI `verify` command runs the whole battery on a given graph plus
built-in polygon and circulant families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import connection, graphs, spectra
from .dirac import (
    all_pairs_distances,
    commutator_with_function,
    dirac_operator,
    distance_bracket,
    operator_norm,
)
from .polygon import Calculus

__all__ = ["CheckResult", "run_checks"]

#: vertex counts of the polygon calculus suites
POLYGON_NS = (3, 4, 5, 8, 12)
#: n-range for the spectral golden checks on the n-gon
SPECTRAL_MAX_N = 64
#: n-range for the checks on the unit circulants of every out-degree
REGULAR_MAX_N = 8
#: complex entries in one stack of commutators (16 MB): bounds the memory of
#: `commutator-norm-formula` on large graphs, whose commutators are 2m x 2m
COMMUTATOR_CELLS = 2**20
#: unit-potential circulants (n, d) on which the Fourier route is pinned
FOURIER_ROUTE_CASES = ((8, 1), (8, 3), (7, 6))


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex standard normals of `shape`, drawn row by row along the last
    axis as the real parts followed by the imaginary parts, in C order."""
    x = rng.standard_normal((*shape[:-1], 2, shape[-1]))
    return x[..., 0, :] + 1j * x[..., 1, :]


def _max_abs(x: np.ndarray) -> float:
    """Largest modulus of the entries of `x`, 0.0 when it has none."""
    return float(np.max(np.abs(x), initial=0.0))


# ------------------------------------------------------------ polygon calculus

def wedge_associativity_check(m: int, wedge_sign: float = -1.0) -> CheckResult:
    """Associativity of the wedge product on all triples of basis forms of
    the m-gon, degree truncation respected on both associations: the first
    two factors as one (4m, 4m) stack of forms, a (4m, 4m, 4, m) array, the
    third one basis form at a time."""
    cal = Calculus(m, wedge_sign=wedge_sign)
    basis = cal.basis_forms()
    a, b = basis[:, None], basis[None, :]
    ab = cal.wedge(a, b)
    res = 0.0
    for c in basis:
        lhs = cal.wedge(ab, c)
        rhs = cal.wedge(a, cal.wedge(b, c))
        res = max(res, _max_abs(lhs - rhs))
    return CheckResult(f"wedge-associativity[n={m}]", res, 1e-12)


def polygon_checks(n: int, rng: np.random.Generator,
                   wedge_sign: float = -1.0) -> list[CheckResult]:
    """The Kahler structure on the n-gon, wedge associativity aside (see
    `wedge_associativity_check`).  The basis is one (4n, 4, n) array.  The
    sweeps over basis pairs take one call per degree row of the first
    factor, n basis forms against the whole basis as an (n, 4n) stack, and
    the involution and J sweeps share that row's multiplication table; the
    random samples are batched over their leading axes, and the three metric
    checks are one `metric_g` call.  Form arithmetic is numpy's, with a sign
    per form broadcast over its (4, n) axes."""
    cal = Calculus(n, wedge_sign=wedge_sign)
    out = []
    basis = cal.basis_forms()
    degree = np.repeat([0, 1, 1, 2], n)
    rows = [slice(k * n, (k + 1) * n) for k in range(4)]

    # graded involution rule and J as a derivation on basis pairs
    res_star, res_j = 0.0, 0.0
    star_basis = cal.star_involution(basis)
    j_basis = cal.apply_J(basis)
    for row in rows:
        a, ja = basis[row, None], j_basis[row, None]
        table = cal.wedge(a, basis)
        sign = (-1.0) ** (degree[row, None] * degree)
        lhs = cal.star_involution(table)
        rhs = sign[..., None, None] * cal.wedge(star_basis, star_basis[row, None])
        res_star = max(res_star, _max_abs(lhs - rhs))
        lhs = cal.apply_J(table)
        rhs = cal.wedge(ja, basis) + cal.wedge(a, j_basis)
        res_j = max(res_j, _max_abs(lhs - rhs))
    out.append(CheckResult(f"star-graded-antihomomorphism[n={n}]", res_star, 1e-12))

    # involution squares to the identity
    res = _max_abs(cal.star_involution(star_basis) - basis)
    out.append(CheckResult(f"star-involution[n={n}]", res, 1e-12))

    # J: derivation, square -1 on one-forms, compatible with the involution
    out.append(CheckResult(f"J-derivation[n={n}]", res_j, 1e-12))
    one_forms = basis[n:3 * n]
    res = _max_abs(cal.apply_J(cal.apply_J(one_forms)) + one_forms)
    out.append(CheckResult(f"J-squared[n={n}]", res, 1e-12))
    res = _max_abs(
        cal.star_involution(cal.apply_J(one_forms)) - cal.apply_J(cal.star_involution(one_forms))
    )
    out.append(CheckResult(f"J-star-compatible[n={n}]", res, 1e-12))

    # differential: unit and Leibniz
    res = _max_abs(cal.exterior_d(cal.one()))
    out.append(CheckResult(f"d-of-unit[n={n}]", res, 1e-12))
    pairs = _complex_normal(rng, (20, 2, n))
    f, h = pairs[:, 0], pairs[:, 1]
    lhs = cal.exterior_d(f * h)
    rhs = cal.bimodule_act(h, cal.exterior_d(f), "right") + cal.bimodule_act(
        f, cal.exterior_d(h), "left"
    )
    out.append(CheckResult(f"leibniz[n={n}]", _max_abs(lhs - rhs), 1e-9))

    # Kahler form: real and central
    kappa = cal.kahler_form()
    res = _max_abs(cal.star_involution(kappa) - kappa)
    out.append(CheckResult(f"kappa-real[n={n}]", res, 1e-12))
    f = _complex_normal(rng, (10, n))
    res = _max_abs(cal.bimodule_act(f, kappa, "left") - cal.bimodule_act(f, kappa, "right"))
    out.append(CheckResult(f"kappa-central[n={n}]", res, 1e-12))

    # Lefschetz map is a bijection of functions onto two-forms
    mat = cal.lefschetz(basis[:n])[..., 3, :].T
    rank = np.linalg.matrix_rank(mat, tol=1e-9)
    out.append(CheckResult(f"lefschetz-rank[n={n}]", float(n - rank), 0.5))

    # Hodge star squares to +1 on even degrees and -1 on one-forms
    sign = np.where(degree == 1, -1.0, 1.0)
    res = _max_abs(cal.hodge_star(cal.hodge_star(basis)) - sign[:, None, None] * basis)
    out.append(CheckResult(f"hodge-star-squared[n={n}]", res, 1e-12))

    # the metric in one call: g(xi_fwd, xi_fwd), then on 60 random pairs
    # (w, e) g(w, w), g(w, e) and g(e, w)
    fwd = basis[n:2 * n]
    pairs = _complex_normal(rng, (60, 2, 4, n))
    w, e = pairs[:, 0], pairs[:, 1]
    g = cal.metric_g(np.concatenate([fwd, w, w, e]), np.concatenate([fwd, w, e, w]))
    g_fwd, gww, gwe, gew = g[:n], g[n:n + 60], g[n + 60:n + 120], g[n + 120:]

    # consistency pin of the wedge sign: g(xi_fwd, xi_fwd) = delta at the source
    res = float(np.max(np.abs(g_fwd - np.eye(n))))
    out.append(CheckResult(f"hodge-consistency[n={n}]", res, 1e-12))

    # metric: positive, conjugate symmetric, zero across degrees
    res_pos = max(0.0, float(np.max(np.abs(gww.imag))), float(np.max(-gww.real)))
    res_sym = float(np.max(np.abs(gwe - np.conj(gew))))
    out.append(CheckResult(f"metric-positive[n={n}]", res_pos, 1e-9))
    out.append(CheckResult(f"metric-conjugate-symmetric[n={n}]", res_sym, 1e-9))

    # faithfulness of the state
    f = _complex_normal(rng, (20, n))
    val = cal.state_tau(f.conj() * f)
    bad = (np.abs(val) > 0) & (val.real <= 0)
    res = float(np.max(1.0 - val.real[bad], initial=0.0))
    out.append(CheckResult(f"tau-faithful[n={n}]", res, 1e-12))
    return out


# --------------------------------------------------------------- edge module

def edge_module_checks(g: graphs.DirectedCyclicGraph,
                       rng: np.random.Generator) -> list[CheckResult]:
    out = []
    m = g.num_edges
    tag = f"|V|={g.n},|E|={m}"

    # 60 sample pairs (x, y) as one stack
    pairs = _complex_normal(rng, (60, 2, m))
    x, y = pairs[:, 0], pairs[:, 1]
    hxx = graphs.hermitian_pairing(g, x, x)
    res_pos = max(0.0, float(np.max(np.abs(hxx.imag))), float(np.max(-hxx.real)))
    diff = graphs.hermitian_pairing(g, x, y) - np.conj(graphs.hermitian_pairing(g, y, x))
    res_sym = float(np.max(np.abs(diff)))
    out.append(CheckResult(f"hermitian-positive[{tag}]", res_pos, 1e-12))
    out.append(CheckResult(f"hermitian-symmetric[{tag}]", res_sym, 1e-12))

    # dual functionals span a space of dimension |E|: evaluated on the probe
    # sum_j z_j chi_j with distinct weights z, the functional of edge i gives z_i
    edges = g.edges
    z = np.arange(1.0, m + 1)
    probe = np.zeros(m)
    for w, e in zip(z, edges):
        probe[g.edge_index(*e)] += w
    got = np.array([np.sum(graphs.apply_dual(g, e, probe)) for e in edges])
    res = float(np.max(np.abs(got - z), initial=0.0))
    out.append(CheckResult(f"dual-basis-identity[{tag}]", res, 1e-12))

    if not g.has_self_loop():
        # diagonal and idempotent: p - diag(p)^2 has no nonzero entry
        proj = graphs.complete_graph_projector(g).tocoo()
        p = proj.data
        res = float(np.abs(np.where(proj.row == proj.col, p * (1 - p), p)).max(initial=0.0))
        out.append(CheckResult(f"projector-idempotent[{tag}]", res, 1e-12))

    # <b_i, b_i> = 1, and <b_i, sum_j w_j b_j> = <b_i, w_i b_i> for distinct
    # weights w, so each b_i is orthogonal to the others
    basis = graphs.orthonormal_basis(g)  # one b_i per row
    w = np.arange(1.0, 2 * m + 1)
    norms = graphs.inner_product(g, basis, basis)
    gaps = (graphs.inner_product(g, basis, w @ basis)  # the probe sum_j w_j b_j
            - graphs.inner_product(g, basis, w[:, None] * basis))
    res = float(np.max(np.abs(np.concatenate([norms - 1.0, gaps])), initial=0.0))
    out.append(CheckResult(f"onb-gram[{tag}]", res, 1e-12))
    return out


# ---------------------------------------------------------------- connection

def connection_checks(g: graphs.DirectedCyclicGraph,
                      rng: np.random.Generator) -> list[CheckResult]:
    out = []
    m = g.num_edges
    tag = f"|V|={g.n},|E|={m}"
    c = _complex_normal(rng, connection.potential(g).shape)

    # Laplacian equals the sum of the four composite closed forms
    lap = connection.laplacian(g, c)
    total = sum(connection.composite_blocks(g, c).values())
    res = float(np.max(np.abs(lap - total))) if m else 0.0
    out.append(CheckResult(f"laplacian-composite[{tag}]", res, 1e-12))

    # closed-form adjoints against the conjugate-transpose route
    zeta_dagger = connection.zeta_operator(g, c).conj().T
    res = float(np.max(np.abs(connection.zeta_dagger_closed_form(g, c) - zeta_dagger), initial=0.0))
    out.append(CheckResult(f"zeta-dagger-closed-form[{tag}]", res, 1e-12))

    # adjoint really is the inner-product adjoint
    d = connection.dbar(g, c)
    dd = d.conj().T
    u, v = _complex_normal(rng, (25, 2, m)).transpose(1, 0, 2)  # 25 samples as one stack
    zero = np.zeros_like(u)
    # <dbar u, v> on the bottom block against <u, dbar^dagger v> on the top
    lhs = graphs.inner_product(g, np.concatenate([zero, u @ d.T], -1),
                               np.concatenate([zero, v], -1))
    rhs = graphs.inner_product(g, np.concatenate([u, zero], -1),
                               np.concatenate([v @ dd.T, zero], -1))
    res = float(np.max(np.abs(lhs - rhs)))
    out.append(CheckResult(f"adjoint-inner-product[{tag}]", res, 1e-9))

    # self-adjoint positive semidefinite
    if m:
        eigs = spectra.eig_selfadjoint(lap).eigenvalues
        res = max(0.0, float(-eigs[0]))
    else:
        res = 0.0
    out.append(CheckResult(f"laplacian-psd[{tag}]", res, 1e-9))

    # matrix-free unit action agrees with the assembled matrix
    unit = connection.potential(g) + 1.0
    lap_unit = connection.laplacian(g, unit)
    f = _complex_normal(rng, (25, m))  # 25 samples as one stack
    direct = connection.apply_laplacian(g, unit, f)
    res = float(np.max(np.abs(direct - f @ lap_unit.T), initial=0.0))
    out.append(CheckResult(f"unit-action-agreement[{tag}]", res, 1e-12))

    # the squared Dirac operator is block diagonal with the Laplacian on top
    D = dirac_operator(g, c)
    sq = D @ D
    res = float(np.max(np.abs(sq[:m, :m] - lap))) if m else 0.0
    res = max(res, float(np.max(np.abs(sq[:m, m:]))) if m else 0.0)
    out.append(CheckResult(f"dirac-squared-block[{tag}]", res, 1e-12))
    return out


# ------------------------------------------------------------------- spectra

def spectral_checks() -> list[CheckResult]:
    res_gon, res_parity, res_kernel = 0.0, 0.0, 0.0
    res_bound, res_top, res_sum, res_trace, res_route = 0.0, 0.0, 0.0, 0.0, 0.0
    # one pass over the n-gons (d = 1) and the circulants of every out-degree
    pairs = ((n, d) for n in range(3, SPECTRAL_MAX_N + 1)
             for d in range(1, n if n <= REGULAR_MAX_N else 2))
    for n, d in pairs:
        g = spectra.make_circulant_regular(n, d)
        unit = connection.potential(g) + 1.0
        lap = connection.laplacian(g, unit)
        eigs = spectra.eig_selfadjoint(lap).eigenvalues
        if d == 1:
            res_gon = max(res_gon, float(np.max(np.abs(eigs - spectra.ngon_closed_form(n)))))
            has_zero = float(np.min(np.abs(eigs))) <= 1e-9
            if has_zero != (n % 2 == 0):
                res_parity = max(res_parity, 1.0)
            if n % 2 == 0:
                alt = np.array([(-1.0) ** k for k in range(n)], dtype=complex)
                res_kernel = max(res_kernel, float(np.max(np.abs(lap @ alt))))
        if n > REGULAR_MAX_N:
            continue
        if (n, d) in FOURIER_ROUTE_CASES:
            res_route = max(res_route, _route_gap(g, unit, eigs))
        bound = float((d + 1) ** 2)
        res_bound = max(res_bound, float(-eigs[0]), float(eigs[-1]) - bound)
        res_top = max(res_top, abs(float(eigs[-1]) - bound))
        res_top = max(
            res_top,
            float(np.max(np.abs(lap @ np.ones(g.num_edges) - bound * np.ones(g.num_edges)))),
        )
        res_bound = max(res_bound, abs(spectra.gershgorin_radius(lap) - bound))
        sums = np.concatenate([lap.real.sum(axis=0), lap.real.sum(axis=1)])
        res_sum = max(res_sum, float(np.max(np.abs(sums - bound))))
        res_trace = max(res_trace, abs(float(np.sum(eigs)) - float(np.trace(lap).real)))
    out = [
        CheckResult(f"regulargon-closed-form[n<={SPECTRAL_MAX_N}]", res_gon, 1e-9),
        CheckResult(f"kernel-parity[n<={SPECTRAL_MAX_N}]", res_parity, 0.5),
        CheckResult(f"alternating-kernel[n<={SPECTRAL_MAX_N}]", res_kernel, 1e-9),
        CheckResult("regular-gershgorin-top", res_bound, 1e-9),
        CheckResult("regular-top-eigenvector", res_top, 1e-9),
        CheckResult("regular-row-col-sums", res_sum, 1e-9),
        CheckResult("trace-conservation", res_trace, 1e-9),
    ]

    # the Fourier route under a complex rotation-invariant potential on
    # circulant 8 3, written key by key: c[mu, mu + o, mu - 1 + o'] is
    # Z[o - 1, o' - 1] for the offsets o, o' in 1..3
    g = spectra.make_circulant_regular(8, 3)
    z = np.array([[1.0, 2j, -0.5], [0.25 + 1j, -1.0, 0.5j], [2.0, -1j, 0.75 - 0.5j]])
    c = connection.potential(g, {
        (mu, (mu + a + 1) % 8, (mu + b) % 8): z[a, b]
        for mu in range(8) for a in range(3) for b in range(3)})
    eigs = spectra.eig_selfadjoint(connection.laplacian(g, c)).eigenvalues
    res_route = max(res_route, _route_gap(g, c, eigs))
    out.append(CheckResult("circulant-fourier-route", res_route, 1e-9))
    return out


def _route_gap(g: graphs.DirectedCyclicGraph, c: np.ndarray, eigs: np.ndarray) -> float:
    """Largest gap between the Fourier route's eigenvalues and the dense
    `eigs`; inf when the route does not take the input."""
    route = spectra.circulant_spectrum(g, c)
    return math.inf if route is None else float(np.max(np.abs(route - eigs)))


# ----------------------------------------------------------------- distances

def distance_checks(g: graphs.DirectedCyclicGraph,
                    rng: np.random.Generator) -> list[CheckResult]:
    out = []
    n = g.n
    tag = f"|V|={n},|E|={g.num_edges}"
    full_degree = bool(np.all(g.out_degrees))

    # commutator does not depend on the potential
    D = dirac_operator(g, connection.potential(g))
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    base = commutator_with_function(D, f, g)
    res = 0.0
    for _ in range(5):
        c = _complex_normal(rng, connection.potential(g).shape)
        other = commutator_with_function(dirac_operator(g, c), f, g)
        res = max(res, float(np.max(np.abs(other - base))) if base.size else 0.0)
    out.append(CheckResult(f"commutator-potential-free[{tag}]", res, 1e-12))

    # operator norm of the commutator equals the largest adjacent difference:
    # 25 samples, their commutators stacked COMMUTATOR_CELLS cells at a time
    f = _complex_normal(rng, (25, n))
    step = max(1, COMMUTATOR_CELLS // max(1, 4 * g.num_edges**2))
    nrm = np.concatenate([operator_norm(commutator_with_function(D, f[k:k + step], g))
                          for k in range(0, len(f), step)])
    # hypot, as abs of a complex scalar: np.abs of an array can round the last bit apart
    diffs = f[:, g.sources] - f[:, (g.sources + 1) % n]
    expect = np.max(np.hypot(diffs.real, diffs.imag), axis=1, initial=0.0)
    res = float(np.max(np.abs(nrm - expect)))
    out.append(CheckResult(f"commutator-norm-formula[{tag}]", res, 1e-9))

    dmat = all_pairs_distances(g)
    if full_degree:
        res = max(
            abs(dmat[mu, (mu + 1) % n] - 1.0) for mu in range(n)
        )
        out.append(CheckResult(f"unit-distance[{tag}]", res, 1e-12))
        res = max(0.0, float(np.max(dmat)) - math.floor(n / 2))
        out.append(CheckResult(f"diameter-bound[{tag}]", res, 1e-12))

    # metric axioms on the finite part: symmetry, a symmetric pattern of
    # infinite entries, and the triangle inequality through every vertex c
    finite = np.isfinite(dmat)
    res = float(np.any(finite != finite.T))
    with np.errstate(invalid="ignore"):  # inf - inf off the finite part
        res = max(res, float(np.max(np.abs(dmat - dmat.T), where=finite & finite.T, initial=0.0)))
        for cth in range(n):
            via = finite[:, cth, None] & finite[None, cth, :]
            excess = dmat - dmat[:, cth, None] - dmat[None, cth, :]
            res = max(res, float(np.max(excess, where=via, initial=0.0)))
    out.append(CheckResult(f"metric-axioms[{tag}]", res, 1e-12))

    if n <= 8:
        bracket = np.stack(distance_bracket(g))
        res = float(np.any(np.isfinite(bracket) != finite))
        res = max(res, float(np.max(np.abs(bracket[:, finite] - dmat[finite]), initial=0.0)))
        out.append(CheckResult(f"numeric-oracle-agreement[{tag}]", res, 1e-6))
    return out


def run_checks(graph: graphs.DirectedCyclicGraph | None = None, seed: int = 0,
               corrupt_wedge_sign: bool = False) -> list[CheckResult]:
    """Full battery: polygon suites on a range of n, module/connection and
    distance suites on the given graph plus built-in families.

    Each n's polygon block opens with the wedge associativity check on the
    min(n, 6)-gon, computed once per distinct size and repeated at the head
    of every block that shares it."""
    rng = np.random.default_rng(seed)
    sign = 1.0 if corrupt_wedge_sign else -1.0
    assoc = {m: wedge_associativity_check(m, sign) for m in {min(n, 6) for n in POLYGON_NS}}
    results: list[CheckResult] = []
    for n in POLYGON_NS:
        results.append(assoc[min(n, 6)])
        results.extend(polygon_checks(n, rng, wedge_sign=sign))
    family = [spectra.make_circulant_regular(5, 1), spectra.make_circulant_regular(4, 2)]
    if graph is not None:
        family.insert(0, graph)
    for g in family:
        results.extend(edge_module_checks(g, rng))
        results.extend(connection_checks(g, rng))
        results.extend(distance_checks(g, rng))
    results.extend(spectral_checks())
    return results
