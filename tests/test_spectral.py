import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from fracgelfand import checks, spectral

from test_specfun import bisect_zero


@pytest.fixture(scope="module")
def basis3():
    return spectral.build_basis(3, 0.5, 16)


class TestBuildBasis:
    def test_n3_eigenvalues_are_pi_squares(self, basis3):
        k = np.arange(1, 17)
        np.testing.assert_allclose(basis3.mu, (k * math.pi) ** 2, rtol=1e-12)

    def test_n2_first_eigenvalue_bisection_oracle(self):
        b = spectral.build_basis(2, 0.5, 1, quad_order=8)
        oracle = bisect_zero(lambda x: special.jv(0.0, x), 2.0, 3.0) ** 2
        assert b.mu[0] == pytest.approx(oracle, rel=1e-12)
        assert b.mu[0] == pytest.approx(5.783185962947, rel=1e-11)

    @pytest.mark.parametrize("n,s", [(2, 0.3), (3, 0.5), (5, 0.7), (4, 1.0)])
    def test_gram_matrix_is_identity(self, n, s):
        assert checks.gram_error(spectral.build_basis(n, s, 12)) < 1e-8

    def test_eigenvalues_strictly_increasing(self, basis3):
        assert np.all(np.diff(basis3.mu) > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            spectral.build_basis(1, 0.5, 4)
        with pytest.raises(ValueError):
            spectral.build_basis(3, 1.5, 4)
        with pytest.raises(ValueError):
            spectral.build_basis(3, 0.5, 4, quad_order=4)


class TestEval:
    def test_dirichlet_condition(self, basis3):
        for k in (1, 5, 16):
            assert abs(spectral.evaluate(spectral.unit(basis3, k), 1.0)) < 1e-10

    def test_n3_closed_form_first_mode(self, basis3):
        rho = np.linspace(0.05, 0.95, 40)
        ref = np.sin(math.pi * rho) / (rho * math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(
            spectral.evaluate(spectral.unit(basis3, 1), rho), ref, rtol=1e-12
        )

    def test_zero_function(self, basis3):
        assert spectral.evaluate(spectral.zero(basis3), 0.37) == 0.0

    def test_near_axis_limit(self, basis3):
        u = spectral.unit(basis3, 2)
        assert spectral.evaluate(u, 0.0) == pytest.approx(
            spectral.evaluate(u, 1e-9), rel=1e-6
        )


class TestAnalyze:
    def test_recovers_basis_vector(self, basis3):
        c = spectral.analyze(basis3, lambda r: basis3.phi_matrix(r)[1])
        ref = np.zeros(16)
        ref[1] = 1.0
        assert np.max(np.abs(c.c - ref)) < 1e-8

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_random_coeffs(self, seed):
        b = spectral.build_basis(3, 0.5, 16)
        rng = np.random.default_rng(seed)
        c = rng.normal(size=16) * 0.7 ** np.arange(16)
        u = spectral.coeffs(b, c)
        back = spectral.analyze(b, lambda r: spectral.evaluate(u, r))
        assert np.max(np.abs(back.c - c)) < 1e-8

    def test_constant_against_direct_quadrature(self, basis3):
        c = spectral.analyze(basis3, lambda r: np.ones_like(r))
        # 1D oracle: c_k = 4 pi N_k int_0^1 rho sin(k pi rho) drho
        x, w = np.polynomial.legendre.leggauss(200)
        rho = 0.5 * (x + 1)
        for k in (1, 2, 5):
            oracle = (
                4.0 * math.pi / math.sqrt(2.0 * math.pi)
                * float(np.sum(0.5 * w * rho * np.sin(k * math.pi * rho)))
            )
            assert c.c[k - 1] == pytest.approx(oracle, abs=1e-12)


class TestFractionalLaplacian:
    def test_eigenvector(self, basis3):
        out = spectral.frac_laplacian(spectral.unit(basis3, 1))
        assert out.c[0] == pytest.approx(basis3.mu[0] ** 0.5, rel=1e-14)
        assert np.all(out.c[1:] == 0)

    def test_classical_limit_eigenvalue(self):
        b = spectral.build_basis(3, 1.0, 4)
        out = spectral.frac_laplacian(spectral.unit(b, 2))
        assert out.c[1] == pytest.approx(4.0 * math.pi ** 2, rel=1e-10)

    def test_linearity(self, basis3):
        rng = np.random.default_rng(3)
        u = spectral.coeffs(basis3, rng.normal(size=16))
        w = spectral.coeffs(basis3, rng.normal(size=16))
        lhs = spectral.frac_laplacian(
            spectral.coeffs(basis3, 2.0 * u.c - 3.0 * w.c)
        ).c
        rhs = 2.0 * spectral.frac_laplacian(u).c - 3.0 * spectral.frac_laplacian(w).c
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_inverse_roundtrip(self, basis3):
        rng = np.random.default_rng(4)
        u = spectral.coeffs(basis3, rng.normal(size=16))
        back = spectral.frac_laplacian(spectral.inv_frac_laplacian(u))
        np.testing.assert_allclose(back.c, u.c, rtol=1e-13)


class TestMaxPrinciple:
    def test_zeta0_positive(self, basis3):
        h = spectral.analyze(basis3, lambda r: np.ones_like(r))
        zeta0 = spectral.inv_frac_laplacian(h)
        rho = np.linspace(0.0, 0.999, 200)
        assert np.all(spectral.evaluate(zeta0, rho) > 0)

    def test_nonnegative_rhs_gives_nonnegative_solution(self):
        b = spectral.build_basis(3, 0.5, 64)
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 1.0, 200)
        for _ in range(20):
            coef = rng.uniform(0.0, 1.0, size=4)
            h = spectral.analyze(b, lambda r: np.polyval(coef, r ** 2))
            u = spectral.inv_frac_laplacian(h)
            assert np.min(spectral.evaluate(u, grid)) >= -1e-8

    def test_phi1_positive(self, basis3):
        rho = np.linspace(0.01, 0.99, 200)
        assert np.all(basis3.phi_matrix(rho)[0] > 0)


class TestHNorm:
    def test_basis_vector(self, basis3):
        assert spectral.h_norm(spectral.unit(basis3, 1)) == pytest.approx(
            basis3.mu[0] ** 0.25, rel=1e-14
        )

    def test_zero(self, basis3):
        assert spectral.h_norm(spectral.zero(basis3)) == 0.0

    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_scaling(self, a):
        b = spectral.build_basis(3, 0.5, 8)
        u = spectral.coeffs(b, np.ones(8))
        assert spectral.h_norm(spectral.coeffs(b, a * u.c)) == pytest.approx(
            abs(a) * spectral.h_norm(u), rel=1e-12, abs=1e-12
        )
