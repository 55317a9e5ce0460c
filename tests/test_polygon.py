"""Polygon calculus: wedge, involution, J, differential, Hodge star, metric."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kahleredge.polygon import Calculus


def max_abs(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def close(a, b, tol: float = 1e-12) -> bool:
    return max_abs(np.subtract(a, b)) <= tol


def test_calculus_validates_n():
    assert Calculus(3).n == 3
    assert Calculus(4).n == 4
    with pytest.raises(ValueError):
        Calculus(2)


def test_operations_take_plain_arrays_of_length_n():
    """Every operation refuses a vertex function of the wrong length and a
    form whose last two axes are not (4, n), reads a Python list as the
    complex array of its values, and returns a fresh read-only array that
    shares no memory with its inputs; so do the builders."""
    cal = Calculus(4)
    omega = np.array(cal.form(deg0=[1, 2, 3, 4], deg1_fwd=[5, 6, 7, 8],
                              deg1_bwd=[1j, 2, 3, 4], deg2=[1, 1, 1, 1j]))
    eta = np.arange(16.0).reshape(4, 4) - 2j
    values = [1.0, -2.0, 0.5, 3.0]
    v = np.array(values, dtype=complex)
    ops = [
        lambda f: cal.bimodule_act(f, omega, "left"),
        lambda f: cal.bimodule_act(f, omega, "right"),
        cal.exterior_d,
        cal.state_tau,
        cal.from_vertex,
    ]
    for op in ops:
        with pytest.raises(ValueError) as err:
            op([1.0, 2.0])
        assert str(err.value) == "vertex function must have last axis of length 4, got shape (2,)"
        np.testing.assert_array_equal(op(values), op(v))
    form_ops = [
        lambda w: cal.bimodule_act(v, w, "left"),
        lambda w: cal.bimodule_act(v, w, "right"),
        lambda w: cal.wedge(w, eta),
        lambda w: cal.wedge(eta, w),
        cal.star_involution,
        cal.apply_J,
        cal.lefschetz,
        cal.hodge_star,
        lambda w: cal.metric_g(w, eta),
        lambda w: cal.metric_g(eta, w),
        lambda w: cal.degree_part(w, 0),
        lambda w: cal.degree_part(w, 1),
        lambda w: cal.degree_part(w, 2),
    ]
    rows = [[1, 2, 3, 4], [0.5, 0, -1, 2], [3, 3, 0, 1], [-1, 0, 0, 7]]  # real, nested
    for op in form_ops:
        for shape in [(2, 4, 5), (2, 3, 4), (4,)]:
            with pytest.raises(ValueError) as err:
                op(np.zeros(shape))
            assert str(err.value) == (
                f"form must have last two axes of shape (4, 4), got shape {shape}")
        np.testing.assert_array_equal(op(rows), op(np.array(rows, dtype=complex)))
        got = op(omega)
        assert not got.flags.writeable
        assert not any(np.shares_memory(got, x) for x in (omega, eta, v))
    builds = [cal.one, lambda: cal.delta(1), cal.zero_form, lambda: cal.xi(1, 0),
              lambda: cal.vol(2), cal.kahler_form, cal.basis_forms,
              lambda: cal.form(deg0=v), lambda: cal.exterior_d(v)]
    for build in builds:
        a, b = build(), build()
        assert not a.flags.writeable and not np.shares_memory(a, b)
        assert not np.shares_memory(a, v)


def test_builders_refuse_a_vertex_that_is_not_an_integer():
    cal = Calculus(4)
    builders = [cal.delta, cal.xi_fwd, cal.xi_bwd, cal.vol,
                lambda mu: cal.xi(mu, 2), lambda mu: cal.xi(1, mu)]
    for build in builders:
        for mu in (1.5, 2.0, np.float64(2), True, np.bool_(True), "1", None):
            with pytest.raises(ValueError) as err:
                build(mu)
            assert str(err.value) == f"vertex must be an integer, got {mu!r}"
    # integers of every kind are read mod n
    np.testing.assert_array_equal(cal.delta(np.int64(5)), cal.delta(1))
    np.testing.assert_array_equal(cal.xi(np.int32(-3), 2), cal.xi_fwd(1))
    np.testing.assert_array_equal(cal.vol(-1), cal.vol(3))


def test_bimodule_action_on_edge_supports():
    cal = Calculus(3)
    xi01 = cal.xi(0, 1)
    assert close(cal.bimodule_act(cal.delta(0), xi01, "left"), xi01)
    assert close(cal.bimodule_act(cal.delta(1), xi01, "left"), cal.zero_form())
    assert close(cal.bimodule_act(cal.delta(1), xi01, "right"), xi01)
    assert close(cal.bimodule_act(cal.delta(0), xi01, "right"), cal.zero_form())


def test_wedge_edge_products():
    cal = Calculus(5)
    # only head-to-tail edge pairs survive; the two orientations differ in sign
    assert close(cal.wedge(cal.xi_bwd(2), cal.xi_fwd(1)), cal.vol(2))
    assert close(cal.wedge(cal.xi_fwd(2), cal.xi_bwd(3)), -1.0 * cal.vol(2))
    assert close(cal.wedge(cal.xi_fwd(2), cal.xi_fwd(3)), cal.zero_form())
    assert close(cal.wedge(cal.xi_bwd(2), cal.xi_bwd(1)), cal.zero_form())
    assert close(cal.wedge(cal.xi_fwd(0), cal.xi_fwd(0)), cal.zero_form())
    # mismatched endpoints annihilate
    assert close(cal.wedge(cal.xi_fwd(0), cal.xi_bwd(0)), cal.zero_form())


def test_wedge_degree_truncation():
    cal = Calculus(4)
    v = cal.vol(1)
    assert close(cal.wedge(v, cal.xi_fwd(1)), cal.zero_form())
    assert close(cal.wedge(v, v), cal.zero_form())


def test_involution_on_edges_and_volumes():
    cal = Calculus(3)
    assert close(cal.star_involution(cal.xi(0, 1)), -1.0 * cal.xi(1, 0))
    assert close(cal.star_involution(cal.xi(1, 0)), -1.0 * cal.xi(0, 1))
    assert close(cal.star_involution(cal.vol(2)), -1.0 * cal.vol(2))
    for b in cal.basis_forms():
        assert close(cal.star_involution(cal.star_involution(b)), b)


def test_involution_is_antilinear():
    cal = Calculus(4)
    w = cal.xi_fwd(0)
    assert close(cal.star_involution((2 + 3j) * w), (2 - 3j) * cal.star_involution(w))


def test_complex_structure_eigenvalues():
    cal = Calculus(3)
    assert close(cal.apply_J(cal.xi(0, 1)), 1j * cal.xi(0, 1))
    assert close(cal.apply_J(cal.xi(1, 0)), -1j * cal.xi(1, 0))
    assert close(cal.apply_J(cal.from_vertex(cal.delta(0))), cal.zero_form())
    assert close(cal.apply_J(cal.vol(1)), cal.zero_form())


def test_differential_of_indicator():
    cal = Calculus(3)
    d = cal.exterior_d(cal.delta(0))
    expected = (
        -1.0 * cal.xi(0, 1) - cal.xi(0, 2) + cal.xi(1, 0) + cal.xi(2, 0)
    )
    assert close(d, expected)


def test_differential_of_linear_ramp():
    cal = Calculus(3)
    d = cal.exterior_d([0.0, 1.0, 2.0])
    expected = (
        cal.xi(0, 1)
        + 2.0 * cal.xi(0, 2)
        - cal.xi(1, 0)
        + cal.xi(1, 2)
        - 2.0 * cal.xi(2, 0)
        - cal.xi(2, 1)
    )
    assert close(d, expected)


def test_differential_unit_and_leibniz():
    cal = Calculus(6)
    assert max_abs(cal.exterior_d(cal.one())) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = cal.exterior_d(f * h)
        rhs = cal.bimodule_act(h, cal.exterior_d(f), "right") + cal.bimodule_act(
            f, cal.exterior_d(h), "left"
        )
        assert close(lhs, rhs, 1e-9)


def test_kahler_form_real_and_central():
    for n in (3, 4, 7):
        cal = Calculus(n)
        kappa = cal.kahler_form()
        assert np.allclose(kappa[3], 1j * np.ones(n))
        assert close(cal.star_involution(kappa), kappa)
        f = np.arange(n, dtype=float)
        assert close(
            cal.bimodule_act(f, kappa, "left"), cal.bimodule_act(f, kappa, "right")
        )


def test_lefschetz_indicator_and_rank():
    cal = Calculus(3)
    assert close(cal.lefschetz(cal.from_vertex(cal.delta(1))), 1j * cal.vol(1))
    for n in (3, 5, 8):
        cal = Calculus(n)
        mat = np.column_stack(
            [cal.lefschetz(cal.from_vertex(cal.delta(m)))[3] for m in range(n)]
        )
        assert np.linalg.matrix_rank(mat, tol=1e-9) == n


def test_hodge_star_closed_form_values():
    cal = Calculus(3)
    assert close(cal.hodge_star(cal.from_vertex(cal.delta(2))), 1j * cal.vol(2))
    assert close(cal.hodge_star(cal.xi(0, 1)), -1j * cal.xi(0, 1))
    assert close(cal.hodge_star(cal.xi(1, 0)), 1j * cal.xi(1, 0))
    assert close(cal.hodge_star(1j * cal.vol(1)), cal.from_vertex(cal.delta(1)))


def test_hodge_star_squares_to_graded_sign():
    cal = Calculus(5)
    degree = [0] * 5 + [1] * 10 + [2] * 5
    for k, b in zip(degree, cal.basis_forms()):
        sign = -1.0 if k == 1 else 1.0
        assert close(cal.hodge_star(cal.hodge_star(b)), sign * b)


def test_metric_values_on_basis():
    cal = Calculus(3)
    d1 = cal.delta(1)
    assert np.allclose(cal.metric_g(cal.from_vertex(d1), cal.from_vertex(d1)), d1)
    assert np.allclose(cal.metric_g(cal.xi(1, 2), cal.xi(1, 2)), d1)
    assert np.allclose(cal.metric_g(cal.xi(1, 2), cal.xi(2, 1)), 0.0)
    # volumes pair to the indicator at their index as well
    assert np.allclose(cal.metric_g(cal.vol(2), cal.vol(2)), cal.delta(2))


def test_metric_positive_and_conjugate_symmetric():
    cal = Calculus(4)
    rng = np.random.default_rng(11)

    def rand_form():
        z = lambda: rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return cal.form(deg0=z(), deg1_fwd=z(), deg1_bwd=z(), deg2=z())

    for _ in range(50):
        w, e = rand_form(), rand_form()
        gww = cal.metric_g(w, w)
        assert np.max(np.abs(gww.imag)) <= 1e-9
        assert np.min(gww.real) >= -1e-9
        assert np.max(
            np.abs(cal.metric_g(w, e) - np.conj(cal.metric_g(e, w)))
        ) <= 1e-9


def test_state_is_the_mean():
    cal = Calculus(4)
    assert cal.state_tau(cal.delta(0)) == pytest.approx(0.25)
    assert cal.state_tau(cal.one()) == pytest.approx(1.0)


def test_degree_part_splits_the_form():
    cal = Calculus(3)
    w = cal.form(
        deg0=[1, 0, 0], deg1_fwd=[0, 2, 0], deg1_bwd=[0, 0, 3], deg2=[4, 0, 0]
    )
    parts = [cal.degree_part(w, k) for k in (0, 1, 2)]
    assert close(parts[0] + parts[1] + parts[2], w, 0.0)
    np.testing.assert_array_equal(parts[1], cal.form(deg1_fwd=[0, 2, 0], deg1_bwd=[0, 0, 3]))
    np.testing.assert_array_equal(cal.degree_part(w, np.int64(1)), parts[1])
    # a bool, a float equal to a degree and a list are refused, not read as 1 or 2
    for k, text in ((3, "3"), (True, "True"), (1.0, "1.0"), (2.0, "2.0"), ([1], "[1]")):
        with pytest.raises(ValueError) as err:
            cal.degree_part(w, k)
        assert str(err.value) == f"degree must be 0, 1 or 2, got {text}"


def test_basis_forms_stack_iterates_and_slices_as_single_forms():
    cal = Calculus(4)
    basis = cal.basis_forms()
    assert basis.shape == (16, 4, 4) and len(basis) == 16
    singles = [cal.from_vertex(cal.delta(mu)) for mu in range(4)]
    singles += [cal.xi_fwd(mu) for mu in range(4)] + [cal.xi_bwd(mu) for mu in range(4)]
    singles += [cal.vol(mu) for mu in range(4)]
    for b, want in zip(basis, singles, strict=True):
        assert b.shape == (4, 4) and close(b, want, 0.0)
    np.testing.assert_array_equal(basis[4:12], np.stack(singles[4:12]))
    assert not basis[4:12].flags.writeable  # a slice of the stack is read-only too


_batch_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 9),
    shape=_batch_shapes,
    wedge_sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_batched_operations_equal_stacked_single_ones(n, shape, wedge_sign, seed):
    cal = Calculus(n, wedge_sign=wedge_sign)
    rng = np.random.default_rng(seed)

    def rand(*dims):
        return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)

    omega, eta = rand(*shape, 4, n), rand(*shape, 4, n)
    f = rand(*shape, n)
    single = rand(4, n)  # broadcasts against every batch shape
    ops = [
        lambda w, e, h: cal.wedge(w, e),
        lambda w, e, h: cal.wedge(w, single),
        lambda w, e, h: cal.wedge(single, e),
        lambda w, e, h: cal.star_involution(w),
        lambda w, e, h: cal.apply_J(w),
        lambda w, e, h: cal.hodge_star(w),
        lambda w, e, h: cal.metric_g(w, e),
        lambda w, e, h: cal.bimodule_act(h, w, "left"),
        lambda w, e, h: cal.bimodule_act(h, w, "right"),
        lambda w, e, h: cal.exterior_d(h),
        lambda w, e, h: cal.degree_part(w, 0),
        lambda w, e, h: cal.degree_part(w, 1),
        lambda w, e, h: cal.degree_part(w, 2),
        lambda w, e, h: cal.state_tau(h),
    ]
    for op in ops:
        batched = np.asarray(op(omega, eta, f))
        stacked = [op(omega[i], eta[i], f[i]) for i in np.ndindex(shape)]
        np.testing.assert_array_equal(batched, np.reshape(stacked, batched.shape))
        assert batched.shape[:len(shape)] == shape
    assert max_abs(omega) == max(max_abs(omega[i]) for i in np.ndindex(shape))


# Oracles: the row-by-row wedge, involution, Hodge star, differential and
# metric, each row its own array and the rows stacked at the end.

def _roll(x, shift):
    return np.concatenate((x[..., -shift:], x[..., :-shift]), axis=-1)


def oracle_wedge(sign, o, e):
    o0, o1, o2, o3 = (o[..., k, :] for k in range(4))
    e0, e1, e2, e3 = (e[..., k, :] for k in range(4))
    deg0 = o0 * e0
    fwd = o0 * e1 + o1 * _roll(e0, -1)
    bwd = o0 * e2 + o2 * _roll(e0, 1)
    deg2 = o0 * e3 + o3 * e0
    deg2 = deg2 + o2 * _roll(e1, 1)
    deg2 = deg2 + sign * o1 * _roll(e2, -1)
    return np.stack([deg0, fwd, bwd, deg2], axis=-2)


def oracle_star_involution(o):
    deg0 = np.conj(o[..., 0, :])
    bwd = -_roll(np.conj(o[..., 1, :]), 1)
    fwd = -_roll(np.conj(o[..., 2, :]), -1)
    deg2 = -np.conj(o[..., 3, :])
    return np.stack([deg0, fwd, bwd, deg2], axis=-2)


def oracle_hodge_star(o):
    return np.array([-1j, -1j, 1j, 1j])[:, None] * o[..., [3, 1, 2, 0], :]


def oracle_exterior_d(v):
    zero = np.zeros_like(v)
    return np.stack([zero, _roll(v, -1) - v, _roll(v, 1) - v, zero], axis=-2)


def oracle_metric_g(sign, o, e):
    total = 0.0
    for rows in ([0], [1, 2], [3]):
        w, h = np.zeros_like(o), np.zeros_like(e)
        w[..., rows, :], h[..., rows, :] = o[..., rows, :], e[..., rows, :]
        dual = oracle_hodge_star(oracle_star_involution(h))
        total = total + oracle_hodge_star(oracle_wedge(sign, w, dual))[..., 0, :]
    return total


def _layout(x, kind):
    """`x` (batch axes first, then (4, n)) with the same values in another
    memory layout: C order, the batch axes innermost, reversed, or a strided
    slice of a larger array."""
    batch = list(range(x.ndim - 2))
    if kind == "stack-innermost":
        last = [a - len(batch) for a in batch]
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, batch, last)), last, batch)
    if kind == "transposed":
        return np.asfortranarray(x)
    if kind == "sliced":
        big = np.zeros((*x.shape[:-2], 8, 2 * x.shape[-1]), dtype=complex)
        big[..., 1::2, ::2] = x
        return big[..., 1::2, ::2]
    return np.ascontiguousarray(x)


_layouts = st.sampled_from(["C", "stack-innermost", "transposed", "sliced"])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 8),
    shape=_batch_shapes,
    single_eta=st.booleans(),
    wedge_sign=st.sampled_from([-1.0, 1.0]),
    layouts=st.tuples(_layouts, _layouts),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_operations_equal_the_row_by_row_oracle(n, shape, single_eta, wedge_sign,
                                                         layouts, seed):
    """Every operation equals the row-by-row formulae bit for bit, whatever
    the memory layout of its inputs, and returns a fresh read-only array."""
    cal = Calculus(n, wedge_sign=wedge_sign)
    rng = np.random.default_rng(seed)

    def rand(*dims):
        return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)

    o = _layout(rand(*shape, 4, n), layouts[0])
    e = _layout(rand(*(() if single_eta else shape), 4, n), layouts[1])
    v = rand(*shape, n)
    checks = [
        (cal.wedge(o, e), oracle_wedge(wedge_sign, o, e)),
        (cal.wedge(e, o), oracle_wedge(wedge_sign, e, o)),
        (cal.star_involution(o), oracle_star_involution(o)),
        (cal.hodge_star(o), oracle_hodge_star(o)),
        (cal.metric_g(o, e), oracle_metric_g(wedge_sign, o, e)),
        (cal.metric_g(e, o), oracle_metric_g(wedge_sign, e, o)),
        (cal.exterior_d(v), oracle_exterior_d(v)),
        (cal.apply_J(o), np.array([0, 1j, -1j, 0])[:, None] * o),
        (cal.bimodule_act(v, o, "left"), v[..., None, :] * o),
        (cal.bimodule_act(v, o, "right"), None),
        (cal.degree_part(o, 1), np.where(np.array([0, 1, 1, 0])[:, None], o, 0)),
    ]
    for got, want in checks:
        if want is not None:
            assert np.array_equal(got, want)
        assert not got.flags.writeable
        for given_array in (o, e, v):
            assert not np.shares_memory(got, given_array)

