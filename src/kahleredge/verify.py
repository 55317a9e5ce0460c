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
    connes_distance_numeric,
    dirac_operator,
    operator_norm,
)
from .operators import adjoint
from .polygon import Calculus, GradedForm

__all__ = ["CheckResult", "run_checks"]

#: vertex counts of the polygon calculus suites
POLYGON_NS = (3, 4, 5, 8, 12)
#: n-range for the spectral golden checks
SPECTRAL_MAX_N = 64


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


# ------------------------------------------------------------ polygon calculus

def polygon_checks(n: int, rng: np.random.Generator,
                   wedge_sign: float = -1.0) -> list[CheckResult]:
    """The Kahler structure on the n-gon, each sweep over basis pairs and
    random samples batched over its leading axes, one factor at a time."""
    cal = Calculus(n, wedge_sign=wedge_sign)
    out = []
    basis = cal.basis_forms()
    degree = np.repeat([0, 1, 1, 2], n)

    # wedge associativity, degree truncation respected on both associations
    res = 0.0
    small = Calculus(min(n, 6), wedge_sign=wedge_sign)
    sb = small.basis_forms()
    a, b = sb[:, None], sb[None, :]
    ab = small.wedge(a, b)
    for c in sb:
        lhs = small.wedge(ab, c)
        rhs = small.wedge(a, small.wedge(b, c))
        res = max(res, (lhs - rhs).max_abs())
    out.append(CheckResult(f"wedge-associativity[n={small.n}]", res, 1e-12))

    # graded involution rule on basis pairs
    res = 0.0
    star_basis = cal.star_involution(basis)
    for i, a in enumerate(basis):
        sign = (-1.0) ** (degree[i] * degree)
        lhs = cal.star_involution(cal.wedge(a, basis))
        rhs = sign * cal.wedge(star_basis, star_basis[i])
        res = max(res, (lhs - rhs).max_abs())
    out.append(CheckResult(f"star-graded-antihomomorphism[n={n}]", res, 1e-12))

    # involution squares to the identity
    res = (cal.star_involution(star_basis) - basis).max_abs()
    out.append(CheckResult(f"star-involution[n={n}]", res, 1e-12))

    # J: derivation, square -1 on one-forms, compatible with the involution
    res = 0.0
    j_basis = cal.apply_J(basis)
    for a, ja in zip(basis, j_basis):
        lhs = cal.apply_J(cal.wedge(a, basis))
        rhs = cal.wedge(ja, basis) + cal.wedge(a, j_basis)
        res = max(res, (lhs - rhs).max_abs())
    out.append(CheckResult(f"J-derivation[n={n}]", res, 1e-12))
    one_forms = basis[n:3 * n]
    res = (cal.apply_J(cal.apply_J(one_forms)) + one_forms).max_abs()
    out.append(CheckResult(f"J-squared[n={n}]", res, 1e-12))
    res = (
        cal.star_involution(cal.apply_J(one_forms)) - cal.apply_J(cal.star_involution(one_forms))
    ).max_abs()
    out.append(CheckResult(f"J-star-compatible[n={n}]", res, 1e-12))

    # differential: unit and Leibniz
    res = cal.exterior_d(cal.one()).max_abs()
    out.append(CheckResult(f"d-of-unit[n={n}]", res, 1e-12))
    pairs = _complex_normal(rng, (20, 2, n))
    f, h = cal.vertex_function(pairs[:, 0]), cal.vertex_function(pairs[:, 1])
    lhs = cal.exterior_d(f * h)
    rhs = cal.bimodule_act(h, cal.exterior_d(f), "right") + cal.bimodule_act(
        f, cal.exterior_d(h), "left"
    )
    out.append(CheckResult(f"leibniz[n={n}]", (lhs - rhs).max_abs(), 1e-9))

    # Kahler form: real and central
    kappa = cal.kahler_form()
    res = (cal.star_involution(kappa) - kappa).max_abs()
    out.append(CheckResult(f"kappa-real[n={n}]", res, 1e-12))
    f = cal.vertex_function(_complex_normal(rng, (10, n)))
    res = (cal.bimodule_act(f, kappa, "left") - cal.bimodule_act(f, kappa, "right")).max_abs()
    out.append(CheckResult(f"kappa-central[n={n}]", res, 1e-12))

    # Lefschetz map is a bijection of functions onto two-forms
    mat = cal.lefschetz(basis[:n]).deg2.T
    rank = np.linalg.matrix_rank(mat, tol=1e-9)
    out.append(CheckResult(f"lefschetz-rank[n={n}]", float(n - rank), 0.5))

    # Hodge star squares to +1 on even degrees and -1 on one-forms
    sign = np.where(degree == 1, -1.0, 1.0)
    res = (cal.hodge_star(cal.hodge_star(basis)) - sign * basis).max_abs()
    out.append(CheckResult(f"hodge-star-squared[n={n}]", res, 1e-12))

    # consistency pin of the wedge sign: g(xi_fwd, xi_fwd) = delta at the source
    fwd = basis[n:2 * n]
    res = float(np.max(np.abs(cal.metric_g(fwd, fwd).values - np.eye(n))))
    out.append(CheckResult(f"hodge-consistency[n={n}]", res, 1e-12))

    # metric: positive, conjugate symmetric, zero across degrees
    pairs = _complex_normal(rng, (60, 2, 4, n))
    w, e = GradedForm(pairs[:, 0]), GradedForm(pairs[:, 1])
    gww = cal.metric_g(w, w).values
    res_pos = max(0.0, float(np.max(np.abs(gww.imag))), float(np.max(-gww.real)))
    diff = cal.metric_g(w, e).values - np.conj(cal.metric_g(e, w).values)
    res_sym = float(np.max(np.abs(diff)))
    out.append(CheckResult(f"metric-positive[n={n}]", res_pos, 1e-9))
    out.append(CheckResult(f"metric-conjugate-symmetric[n={n}]", res_sym, 1e-9))

    # faithfulness of the state
    f = cal.vertex_function(_complex_normal(rng, (20, n)))
    val = cal.state_tau(f.conjugate() * f)
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

    res_pos, res_sym = 0.0, 0.0
    for _ in range(60):
        x = graphs.EdgeFunction(g, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        y = graphs.EdgeFunction(g, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        hxx = graphs.hermitian_pairing(x, x).values
        res_pos = max(res_pos, float(np.max(np.abs(hxx.imag))), float(np.max(-hxx.real)))
        diff = graphs.hermitian_pairing(x, y).values - np.conj(
            graphs.hermitian_pairing(y, x).values
        )
        res_sym = max(res_sym, float(np.max(np.abs(diff))))
    out.append(CheckResult(f"hermitian-positive[{tag}]", res_pos, 1e-12))
    out.append(CheckResult(f"hermitian-symmetric[{tag}]", res_sym, 1e-12))

    # dual functionals span a space of dimension |E|
    eval_mat = np.zeros((m, m), dtype=complex)
    for i, e in enumerate(g.edges):
        for j, f in enumerate(g.edges):
            chi = graphs.EdgeFunction.chi(g, *f)
            eval_mat[i, j] = np.sum(graphs.apply_dual(g, e, chi).values)
    res = float(np.max(np.abs(eval_mat - np.eye(m))))
    out.append(CheckResult(f"dual-basis-identity[{tag}]", res, 1e-12))

    if not g.has_self_loop():
        proj = graphs.complete_graph_projector(g).matrix
        res = float(np.max(np.abs(proj @ proj - proj))) if proj.size else 0.0
        out.append(CheckResult(f"projector-idempotent[{tag}]", res, 1e-12))

    basis = graphs.orthonormal_basis(g)
    gram = np.array(
        [[graphs.inner_product(u, v) for v in basis] for u in basis], dtype=complex
    )
    res = float(np.max(np.abs(gram - np.eye(2 * m)))) if m else 0.0
    out.append(CheckResult(f"onb-gram[{tag}]", res, 1e-12))
    return out


# ---------------------------------------------------------------- connection

def connection_checks(g: graphs.DirectedCyclicGraph,
                      rng: np.random.Generator) -> list[CheckResult]:
    out = []
    m = g.num_edges
    tag = f"|V|={g.n},|E|={m}"
    c = connection.PotentialCoefficients.random(g, rng)

    # Laplacian equals the sum of the four composite closed forms
    lap = connection.laplacian(g, c).matrix
    blocks = connection.composite_blocks(g, c)
    total = sum(b.matrix for b in blocks.values())
    res = float(np.max(np.abs(lap - total))) if m else 0.0
    out.append(CheckResult(f"laplacian-composite[{tag}]", res, 1e-12))

    # closed-form adjoints against the conjugate-transpose route
    res = float(
        np.max(
            np.abs(
                connection.zeta_dagger_closed_form(g, c).matrix
                - adjoint(connection.zeta_operator(g, c)).matrix
            )
        )
    ) if m else 0.0
    out.append(CheckResult(f"zeta-dagger-closed-form[{tag}]", res, 1e-12))

    # adjoint really is the inner-product adjoint
    d = connection.dbar(g, c)
    dd = adjoint(d)
    res = 0.0
    for _ in range(25):
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        uvec = graphs.HilbertVector.from_blocks(g, top=u)
        dv = graphs.HilbertVector.from_blocks(g, bottom=v)
        lhs = graphs.inner_product(
            graphs.HilbertVector.from_blocks(g, bottom=d.apply(u)), dv
        )
        rhs = graphs.inner_product(
            uvec, graphs.HilbertVector.from_blocks(g, top=dd.apply(v))
        )
        res = max(res, abs(lhs - rhs))
    out.append(CheckResult(f"adjoint-inner-product[{tag}]", res, 1e-9))

    # self-adjoint positive semidefinite
    if m:
        eigs = spectra.eig_selfadjoint(connection.laplacian(g, c)).eigenvalues
        res = max(0.0, float(-eigs[0]))
    else:
        res = 0.0
    out.append(CheckResult(f"laplacian-psd[{tag}]", res, 1e-9))

    # matrix-free unit action agrees with the assembled matrix
    unit = connection.PotentialCoefficients.unit(g)
    lap_unit = connection.laplacian(g, unit).matrix
    res = 0.0
    for _ in range(25):
        f = graphs.EdgeFunction(g, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        direct = connection.apply_laplacian_unit(g, f).values
        res = max(res, float(np.max(np.abs(direct - lap_unit @ f.values))) if m else 0.0)
    out.append(CheckResult(f"unit-action-agreement[{tag}]", res, 1e-12))

    # the squared Dirac operator is block diagonal with the Laplacian on top
    D = dirac_operator(g, c).matrix
    sq = D @ D
    res = float(np.max(np.abs(sq[:m, :m] - lap))) if m else 0.0
    res = max(res, float(np.max(np.abs(sq[:m, m:]))) if m else 0.0)
    out.append(CheckResult(f"dirac-squared-block[{tag}]", res, 1e-12))
    return out


# ------------------------------------------------------------------- spectra

def spectral_checks(max_n: int = SPECTRAL_MAX_N) -> list[CheckResult]:
    out = []
    res_gon, res_parity, res_kernel = 0.0, 0.0, 0.0
    for n in range(3, max_n + 1):
        g = spectra.make_circulant_regular(n, 1)
        lap = connection.laplacian(g, connection.PotentialCoefficients.unit(g))
        eigs = spectra.eig_selfadjoint(lap).eigenvalues
        res_gon = max(res_gon, float(np.max(np.abs(eigs - spectra.ngon_closed_form(n)))))
        has_zero = float(np.min(np.abs(eigs))) <= 1e-9
        if has_zero != (n % 2 == 0):
            res_parity = max(res_parity, 1.0)
        if n % 2 == 0:
            alt = np.array([(-1.0) ** k for k in range(n)], dtype=complex)
            res_kernel = max(res_kernel, float(np.max(np.abs(lap.matrix @ alt))))
    out.append(CheckResult(f"regulargon-closed-form[n<={max_n}]", res_gon, 1e-9))
    out.append(CheckResult(f"kernel-parity[n<={max_n}]", res_parity, 0.5))
    out.append(CheckResult(f"alternating-kernel[n<={max_n}]", res_kernel, 1e-9))

    res_bound, res_top, res_sum, res_trace = 0.0, 0.0, 0.0, 0.0
    for n in range(3, 9):
        for d in range(1, n):
            g = spectra.make_circulant_regular(n, d)
            lap = connection.laplacian(g, connection.PotentialCoefficients.unit(g))
            eigs = spectra.eig_selfadjoint(lap).eigenvalues
            bound = float((d + 1) ** 2)
            res_bound = max(res_bound, float(-eigs[0]), float(eigs[-1]) - bound)
            res_top = max(res_top, abs(float(eigs[-1]) - bound))
            res_top = max(
                res_top,
                float(np.max(np.abs(lap.matrix @ np.ones(g.num_edges) - bound * np.ones(g.num_edges)))),
            )
            res_bound = max(res_bound, abs(spectra.gershgorin_radius(lap) - bound))
            sums = np.concatenate(
                [lap.matrix.real.sum(axis=0), lap.matrix.real.sum(axis=1)]
            )
            res_sum = max(res_sum, float(np.max(np.abs(sums - bound))))
            res_trace = max(
                res_trace, abs(float(np.sum(eigs)) - float(np.trace(lap.matrix).real))
            )
    out.append(CheckResult("regular-gershgorin-top", res_bound, 1e-9))
    out.append(CheckResult("regular-top-eigenvector", res_top, 1e-9))
    out.append(CheckResult("regular-row-col-sums", res_sum, 1e-9))
    out.append(CheckResult("trace-conservation", res_trace, 1e-9))
    return out


# ----------------------------------------------------------------- distances

def distance_checks(g: graphs.DirectedCyclicGraph,
                    rng: np.random.Generator) -> list[CheckResult]:
    out = []
    n = g.n
    tag = f"|V|={n},|E|={g.num_edges}"
    full_degree = bool(np.all(g.out_degrees))

    # commutator does not depend on the potential
    f = graphs.VertexFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    base = commutator_with_function(
        dirac_operator(g, connection.PotentialCoefficients.zero(g)), f, g
    ).matrix
    res = 0.0
    for _ in range(5):
        c = connection.PotentialCoefficients.random(g, rng)
        other = commutator_with_function(dirac_operator(g, c), f, g).matrix
        res = max(res, float(np.max(np.abs(other - base))) if base.size else 0.0)
    out.append(CheckResult(f"commutator-potential-free[{tag}]", res, 1e-12))

    # operator norm of the commutator equals the largest adjacent difference
    D = dirac_operator(g, connection.PotentialCoefficients.zero(g))
    res = 0.0
    for _ in range(25):
        f = graphs.VertexFunction(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        nrm = operator_norm(commutator_with_function(D, f, g))
        diffs = [
            abs(f.values[s] - f.values[(s + 1) % n]) for s in g.sources
        ]
        expect = max(diffs) if diffs else 0.0
        res = max(res, abs(nrm - expect))
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

    if full_degree and n <= 8:
        c = connection.PotentialCoefficients.random(g, rng)
        res = 0.0
        for b in range(n):
            lower, upper = connes_distance_numeric(g, c, 0, b, seed=7)
            exact = dmat[0, b]
            res = max(res, abs(lower - exact), abs(upper - exact))
        out.append(CheckResult(f"numeric-oracle-agreement[{tag}]", res, 1e-6))
    return out


def run_checks(graph: graphs.DirectedCyclicGraph | None = None, seed: int = 0,
               corrupt_wedge_sign: bool = False) -> list[CheckResult]:
    """Full battery: polygon suites on a range of n, module/connection and
    distance suites on the given graph plus built-in families."""
    rng = np.random.default_rng(seed)
    sign = 1.0 if corrupt_wedge_sign else -1.0
    results: list[CheckResult] = []
    for n in POLYGON_NS:
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
