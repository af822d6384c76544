import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from fracgelfand import checks, specfun, spectral

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

    def test_n66_keeps_its_first_mode(self):
        # order 32: a basis on j_(32,2), j_(32,3), ... passes the Gram check
        b = spectral.build_basis(66, 0.5, 16)
        assert b.mu[0] == pytest.approx(special.jn_zeros(32, 1)[0] ** 2, rel=1e-13)

    @pytest.mark.parametrize("n,s", [(2, 0.3), (3, 0.5), (5, 0.7), (4, 1.0)])
    def test_gram_matrix_is_identity(self, n, s):
        assert checks.gram_error(spectral.build_basis(n, s, 12)) < 1e-8

    @pytest.mark.parametrize("n,K", [(2, 32), (3, 64), (7, 128), (20, 512)])
    def test_phi_table_is_column_major_and_unchanged(self, n, K):
        # built node-major and transposed: each node's K values are
        # contiguous, and every value is the mode-major build's, bit for bit
        b = spectral.build_basis(n, 0.5, K)
        want = spectral._radial_kernel(b.nu, np.sqrt(b.mu)[:, None], b.quad_nodes[None, :])
        want *= b.norm_consts[:, None]
        assert b.phi_table.flags.f_contiguous
        assert np.array_equal(b.phi_table, want)

    def test_eigenvalues_strictly_increasing(self, basis3):
        assert np.all(np.diff(basis3.mu) > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            spectral.build_basis(1, 0.5, 4)
        with pytest.raises(ValueError):
            spectral.build_basis(3, 1.5, 4)
        with pytest.raises(ValueError):
            spectral.build_basis(3, 0.5, 4, quad_order=4)


class TestGaussRule:
    def test_one_rule_per_interval(self):
        # order 4 integrates x^7 exactly on each of the broadcast intervals
        a, b = np.array([0.0, 1.0, -2.0]), np.array([1.0, 3.0, 0.5])
        x, w = spectral._gauss_rule(4, a, b)
        assert x.shape == w.shape == (3, 4)
        assert np.all((a[:, None] < x) & (x < b[:, None]))
        np.testing.assert_allclose(
            np.sum(w * x ** 7, axis=1), (b ** 8 - a ** 8) / 8, rtol=1e-13
        )

    def test_scalar_interval(self):
        x, w = spectral._gauss_rule(6, 0.0, 1.0)
        assert x.shape == w.shape == (6,)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-15)

    def test_basis_order_on_unit_interval(self):
        # Q = 4K at K = 1024, the largest rule the n = 20 bases build
        x, w = spectral._gauss_rule(4096, 0.0, 1.0)
        assert np.all(np.diff(x) > 0) and 0.0 < x[0] and x[-1] < 1.0
        assert np.all(w > 0)
        np.testing.assert_array_equal(w, w[::-1])
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        for omega in (10.0, 1000.0, 3000.0):
            exact = math.sin(omega) / omega
            assert abs(np.sum(w * np.cos(omega * x)) - exact) < 1e-12

    @pytest.mark.parametrize("order", [8, 64, 512])
    def test_matches_numpy_leggauss(self, order):
        x, w = spectral._gauss_rule(order, -1.0, 1.0)
        x_ref, w_ref = np.polynomial.legendre.leggauss(order)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)

    def test_newton_rule_matches_leggauss_at_every_order(self):
        for order in [*range(1, 201), 512, 1024, 2048]:
            x, w = spectral._legendre_rule(order)
            x_ref, w_ref = np.polynomial.legendre.leggauss(order)
            np.testing.assert_allclose(x, x_ref, rtol=0, atol=2.2e-16, err_msg=str(order))
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-13, err_msg=str(order))

    def test_newton_rule_matches_roots_legendre_at_4096(self):
        x, w = spectral._legendre_rule(4096)
        x_ref, w_ref = special.roots_legendre(4096)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=2.2e-16)
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)

    def test_newton_rule_stops_at_its_cap(self, monkeypatch):
        # with P_n = P_{n-1} = 1 every step moves each node by (x + 1) / n;
        # a cached order 64 would never reach the patched eval_legendre
        spectral._legendre_rule.cache_clear()
        monkeypatch.setattr(spectral.special, "eval_legendre",
                            lambda n, x: np.ones_like(x))
        with pytest.raises(RuntimeError, match="order 64 did not converge in 10 steps"):
            spectral._gauss_rule(64, 0.0, 1.0)

    def test_rule_is_built_once_per_order(self):
        x, w = spectral._legendre_rule(37)
        assert spectral._legendre_rule(37)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        x_ref, w_ref = spectral._legendre_rule.__wrapped__(37)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(w, w_ref)
        # _gauss_rule hands out its own arrays: writing them leaves the cache
        t, tw = spectral._gauss_rule(37, -1.0, 1.0)
        assert t.flags.writeable and tw.flags.writeable
        np.testing.assert_allclose(t, x_ref, rtol=0, atol=2.2e-16)
        np.testing.assert_array_equal(tw, w_ref)
        t[:], tw[:] = 0.0, 0.0
        np.testing.assert_array_equal(spectral._legendre_rule(37)[0], x_ref)
        np.testing.assert_array_equal(spectral._legendre_rule(37)[1], w_ref)


class TestEval:
    def test_dirichlet_condition(self, basis3):
        for k in (1, 5, 16):
            assert abs(spectral.evaluate(spectral.unit(basis3, k), 1.0)) < 1e-10

    def test_n3_closed_form_every_mode(self):
        # phi_k(rho) = sin(k pi rho) / (rho sqrt(2 pi)), largest value 8.0
        b = spectral.build_basis(3, 0.5, 256)
        rho = np.linspace(0.05, 0.95, 40)
        k = np.arange(1, 257)[:, None]
        ref = np.sin(k * math.pi * rho) / (rho * math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(b.phi_matrix(rho), ref, rtol=0, atol=1e-12)

    def test_zero_function(self, basis3):
        zero = spectral.RadialCoeffs(basis3, np.zeros(basis3.K))
        assert spectral.evaluate(zero, 0.37) == 0.0

    def test_near_axis_limit(self, basis3):
        u = spectral.unit(basis3, 2)
        assert spectral.evaluate(u, 0.0) == pytest.approx(
            spectral.evaluate(u, 1e-9), rel=1e-6
        )


@pytest.fixture(scope="module")
def table_nodes():
    # every 16th node of the Q = 4096 rule of a K = 1024 basis, and the last
    x, _ = spectral._gauss_rule(4096, 0.0, 1.0)
    return np.append(x[::16], x[-1])


class TestBesselKernel:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_jv(self, n, table_nodes):
        nu = n / 2.0 - 1.0
        roots = specfun.bessel_j_zeros(nu, 1024)
        for order in (nu, nu + 1.0):
            z = np.concatenate([
                (roots[:, None] * table_nodes).ravel(),
                order * (1.0 + np.array([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3])),
                [0.0],
            ])
            err = np.abs(spectral._bessel_j(order, z) - special.jv(order, z))
            assert np.max(err) <= 1e-14

    def test_zero_argument_is_exact(self):
        for order in (0.0, 0.5, 1.0, 1.5, 9.0, 10.0):
            out = spectral._bessel_j(order, np.zeros(3))
            np.testing.assert_array_equal(out, 1.0 if order == 0 else 0.0)

    @pytest.mark.parametrize("n", [19, 20])
    def test_blocks_equal_rows(self, n, table_nodes):
        nu = n / 2.0 - 1.0
        z = specfun.bessel_j_zeros(nu, 1024)[:, None] * table_nodes
        assert z.size > 2 * spectral._BESSEL_BLOCK
        table = spectral._bessel_j(nu, z)
        rows = np.stack([spectral._bessel_j(nu, row) for row in z])
        np.testing.assert_array_equal(table, rows)
        spectral._bessel_j(nu, z, out=z)
        np.testing.assert_array_equal(z, table)

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5, 2.5, 9.0])
    def test_unmasked_block_matches_masked(self, order):
        # a block whose entries all take the recurrence skips the masks; one
        # z = 0 entry (below nu for nu > 1) sends the same values through them
        z = np.random.default_rng(1).uniform(order + 1e-3, 200.0, size=5000)
        masked = spectral._bessel_j(order, np.append(z, 0.0))
        np.testing.assert_array_equal(spectral._bessel_j(order, z), masked[:-1])

    def test_rejects_other_orders(self):
        for order in (-0.5, 0.3):
            with pytest.raises(ValueError):
                spectral._bessel_j(order, 1.0)


class TestPhiPrime:
    @pytest.mark.parametrize("n", [2, 3, 10, 20])
    def test_finite_near_the_axis(self, n):
        b = spectral.build_basis(n, 0.5, 64)
        rho = np.array([0.0, 1e-300, 1e-40, 1e-9])
        out = b.phi_prime_matrix(rho)
        assert np.all(np.isfinite(out))
        roots = np.sqrt(b.mu)[:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ref = -b.norm_consts[:, None] * roots * rho ** (-b.nu) * special.jv(
                b.nu + 1.0, roots * rho
            )
        finite = np.isfinite(ref)
        np.testing.assert_allclose(out[finite], ref[finite], rtol=1e-12, atol=1e-280)

    def test_matches_difference_quotient(self):
        b = spectral.build_basis(5, 0.5, 16)
        rho, h = np.linspace(0.1, 0.9, 9), 1e-6
        diff = (b.phi_matrix(rho + h) - b.phi_matrix(rho - h)) / (2.0 * h)
        np.testing.assert_allclose(b.phi_prime_matrix(rho), diff, rtol=1e-7, atol=1e-6)


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
        u = spectral.RadialCoeffs(b, c)
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
        u = spectral.RadialCoeffs(basis3, rng.normal(size=16))
        w = spectral.RadialCoeffs(basis3, rng.normal(size=16))
        lhs = spectral.frac_laplacian(
            spectral.RadialCoeffs(basis3, 2.0 * u.c - 3.0 * w.c)
        ).c
        rhs = 2.0 * spectral.frac_laplacian(u).c - 3.0 * spectral.frac_laplacian(w).c
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_inverse_roundtrip(self, basis3):
        rng = np.random.default_rng(4)
        u = spectral.RadialCoeffs(basis3, rng.normal(size=16))
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
        zero = spectral.RadialCoeffs(basis3, np.zeros(basis3.K))
        assert spectral.h_norm(zero) == 0.0

    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_scaling(self, a):
        b = spectral.build_basis(3, 0.5, 8)
        u = spectral.RadialCoeffs(b, np.ones(8))
        assert spectral.h_norm(spectral.RadialCoeffs(b, a * u.c)) == pytest.approx(
            abs(a) * spectral.h_norm(u), rel=1e-12, abs=1e-12
        )
