"""Eigensolver and closed-form spectral facts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kahleredge import connection, spectra
from kahleredge.connection import PotentialCoefficients
from kahleredge.graphs import DirectedCyclicGraph


def ngon(n):
    return spectra.make_circulant_regular(n, 1)


# ----------------------------------------------------------------- eigensolver

def test_diagonal_matrix():
    s = spectra.eig_selfadjoint(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(s.eigenvalues, [1.0, 2.0, 3.0])


def test_empty_and_scalar():
    assert spectra.eig_selfadjoint(np.zeros((0, 0))).eigenvalues.shape == (0,)
    assert np.allclose(spectra.eig_selfadjoint([[5.0]]).eigenvalues, [5.0])


def test_rejects_non_square_and_non_selfadjoint():
    with pytest.raises(ValueError, match="square"):
        spectra.eig_selfadjoint(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="not self-adjoint"):
        spectra.eig_selfadjoint([[0.0, 1.0], [0.0, 0.0]])


def test_non_matrix_input_is_not_square():
    # one message for every shape that is not n x n, not an unpacking error
    for bad in (np.zeros(3), np.zeros((2, 2, 2)), 1.0):
        for helper in (spectra.eig_selfadjoint, spectra.gershgorin_radius):
            with pytest.raises(ValueError, match=r"^matrix must be square, got \("):
                helper(bad)
    with pytest.raises(ValueError, match=r"^matrix must be square, got \(3,\)$"):
        spectra.gershgorin_radius(np.zeros(3))


def test_rejects_non_finite_before_asymmetry():
    # a NaN defeats the asymmetry comparison, so it must be caught first
    for bad in ([[np.nan]], [[1.0, np.inf], [np.inf, 1.0]], [[0.0, np.nan], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            spectra.eig_selfadjoint(bad)


def test_matches_reference_solver_on_random_hermitian():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(2, 25))
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = a + a.conj().T
        got = spectra.eig_selfadjoint(a).eigenvalues
        assert np.max(np.abs(got - np.linalg.eigvalsh(a))) <= 1e-9


def test_matches_reference_solver_on_large_hermitian():
    rng = np.random.default_rng(2)
    for m in (50, 100, 200):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = a + a.conj().T
        got = spectra.eig_selfadjoint(a).eigenvalues
        assert np.max(np.abs(got - np.linalg.eigvalsh(a))) <= 1e-9


def test_residual_reported_with_vectors():
    rng = np.random.default_rng(3)
    for m in (1, 7, 40, 200):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = a + a.conj().T
        s = spectra.eig_selfadjoint(a, want_vectors=True)
        assert s.residual <= 1e-9 * np.linalg.norm(a)
        assert s.residual == pytest.approx(
            np.max(np.abs(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues)), abs=1e-12
        )
        assert spectra.eig_selfadjoint(a).residual is None


_hermitian_halves = hnp.arrays(
    np.complex128, st.integers(1, 12).map(lambda m: (m, m)),
    elements=st.complex_numbers(max_magnitude=100.0, allow_subnormal=False),
)


@settings(max_examples=60, deadline=None)
@given(half=_hermitian_halves)
def test_property_matches_eigvalsh_with_orthonormal_vectors(half):
    a = half + half.conj().T
    m = a.shape[0]
    want = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.linalg.norm(a)))
    assert np.max(np.abs(spectra.eig_selfadjoint(a).eigenvalues - want)) <= 1e-12 * scale
    s = spectra.eig_selfadjoint(a, want_vectors=True)
    v = s.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(m))) <= 1e-9
    # with V orthonormal, each eigenvalue lies within ||AV - V diag(w)||_2 of
    # the spectrum of a; eigvalsh is no reference here, since on badly scaled
    # input it can be off by 1e-11 where eigh is exact
    assert np.linalg.norm(a @ v - v * s.eigenvalues, 2) <= 1e-12 * scale


def test_eigenvectors_orthonormal_and_diagonalizing():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = int(rng.integers(2, 15))
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = a + a.conj().T
        s = spectra.eig_selfadjoint(a, want_vectors=True)
        v = s.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(m))) <= 1e-9
        assert np.max(np.abs(a @ v - v * s.eigenvalues)) <= 1e-8


def test_real_symmetric_input_gives_real_vectors():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = spectra.eig_selfadjoint(a, want_vectors=True)
    assert np.allclose(s.eigenvalues, [1.0, 3.0])
    assert not np.iscomplexobj(s.eigenvectors)


def test_real_valued_complex_input_takes_the_real_route():
    # unit-potential Laplacians and real matrices within the asymmetry
    # tolerance, all stored complex: the eigenvalues are bitwise those of the
    # real solver on the real symmetrised matrix
    rng = np.random.default_rng(6)
    loops_and_sinks = DirectedCyclicGraph(5, [(0, 0), (0, 3), (1, 2), (1, 1), (3, 4), (3, 0)])
    mats = [connection.laplacian(g, PotentialCoefficients.unit(g))
            for g in (ngon(7), spectra.make_circulant_regular(6, 3), loops_and_sinks)]
    for m in (1, 5, 30):
        b = rng.standard_normal((m, m))
        mats.append(b + b.T + 1e-12 * rng.standard_normal((m, m)))
    for a in mats:
        a = np.asarray(a, dtype=complex)
        assert a.dtype == complex and not a.imag.any()
        sym = (a.real + a.real.T) / 2.0
        got = spectra.eig_selfadjoint(a).eigenvalues
        assert got.tobytes() == np.linalg.eigvalsh(sym).tobytes()
        s = spectra.eig_selfadjoint(a, want_vectors=True)
        w, v = np.linalg.eigh(sym)
        assert s.eigenvalues.tobytes() == w.tobytes()
        assert s.eigenvectors.dtype == np.float64 and s.eigenvectors.tobytes() == v.tobytes()


def test_real_valued_complex_input_is_rejected_as_before():
    with pytest.raises(ValueError) as err:
        spectra.eig_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert str(err.value) == ("matrix is not self-adjoint: ||M - M^dagger|| = 1.414e+00 "
                              "exceeds 1e-09 * ||M|| = 1.000e-09")
    # the message of the checks in complex arithmetic, as they read before
    # real-valued input was checked in real arithmetic
    rng = np.random.default_rng(8)
    for m in (3, 17, 64):
        a = (rng.standard_normal((m, m)) * 1e3).astype(complex)
        norm, asym = np.linalg.norm(a), np.linalg.norm(a - a.conj().T)
        with pytest.raises(ValueError) as err:
            spectra.eig_selfadjoint(a)
        assert str(err.value) == (f"matrix is not self-adjoint: ||M - M^dagger|| = {asym:.3e} "
                                  f"exceeds 1e-09 * ||M|| = {1e-9 * norm:.3e}")
    for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(ValueError) as err:
            spectra.eig_selfadjoint(np.array(bad, dtype=complex))
        assert str(err.value) == "matrix has non-finite entries"


# ---------------------------------------------------------------- closed forms

def test_ngon_closed_form_values():
    assert np.allclose(spectra.ngon_closed_form(3), [1.0, 1.0, 4.0])
    assert np.allclose(spectra.ngon_closed_form(4), [0.0, 2.0, 2.0, 4.0])
    five = spectra.ngon_closed_form(5)
    assert five[0] == pytest.approx(2.0 + 2.0 * np.cos(4.0 * np.pi / 5.0))
    assert five[0] == pytest.approx(0.381966, abs=1e-6)
    assert five[0] > 0.0
    with pytest.raises(ValueError):
        spectra.ngon_closed_form(2)


def test_ngon_laplacian_spectrum():
    for n in (3, 4, 5, 7, 12, 128, 256):
        g = ngon(n)
        lap = connection.laplacian(g, PotentialCoefficients.unit(g))
        eigs = spectra.eig_selfadjoint(lap).eigenvalues
        assert np.max(np.abs(eigs - spectra.ngon_closed_form(n))) <= 1e-9


def test_gershgorin():
    assert spectra.gershgorin_radius(np.eye(4)) == pytest.approx(1.0)
    assert spectra.gershgorin_radius(np.zeros((3, 3))) == pytest.approx(0.0)
    assert spectra.gershgorin_radius(np.zeros((0, 0))) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        spectra.gershgorin_radius(np.zeros((2, 3)))
    for n, d in ((5, 2), (6, 3)):
        g = spectra.make_circulant_regular(n, d)
        lap = connection.laplacian(g, PotentialCoefficients.unit(g))
        assert spectra.gershgorin_radius(lap) == pytest.approx((d + 1) ** 2)


def test_make_circulant_regular():
    assert ngon(5) == DirectedCyclicGraph(5, [(m, (m + 1) % 5) for m in range(5)])
    g = spectra.make_circulant_regular(4, 2)
    assert g.num_edges == 8
    assert all(g.out_degree(mu) == 2 for mu in range(4))
    with pytest.raises(ValueError):
        spectra.make_circulant_regular(4, 4)
    with pytest.raises(ValueError):
        spectra.make_circulant_regular(4, 0)


def test_regular_top_eigenvalue():
    g = spectra.make_circulant_regular(4, 2)
    lap = connection.laplacian(g, PotentialCoefficients.unit(g))
    eigs = spectra.eig_selfadjoint(lap).eigenvalues
    assert eigs[-1] == pytest.approx(9.0)
    assert np.max(np.abs(lap @ np.ones(8) - 9.0 * np.ones(8))) <= 1e-9


def test_kernel_parity_on_ngons():
    for n in range(3, 13):
        g = ngon(n)
        lap = connection.laplacian(g, PotentialCoefficients.unit(g))
        eigs = spectra.eig_selfadjoint(lap).eigenvalues
        has_zero = abs(eigs[0]) <= 1e-9
        assert has_zero == (n % 2 == 0)
        if n % 2 == 0:
            alt = np.array([(-1.0) ** k for k in range(n)])
            assert np.max(np.abs(lap @ alt)) <= 1e-9
