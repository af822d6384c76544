import functools
import math

import numpy as np
import pytest
from scipy import integrate, optimize

from fracgelfand import branchsolve, checks, config, extension, spectral


@pytest.fixture(scope="module")
def basis3():
    return spectral.build_basis(3, 0.5, 8)


def _profile(basis, k, y, deriv=False):
    """g_k(y), or g_k'(y), at heights y > 0 from the extension's profile tables."""
    y = np.asarray(y, dtype=float)
    table = extension._profile_deriv_table if deriv else extension._profile_table
    return table(basis, np.atleast_1d(y))[k - 1].reshape(y.shape)


class TestProfile:
    def test_half_s_closed_form(self, basis3):
        # s = 1/2 collapses to g_k(y) = exp(-sqrt(mu_k) y)
        y = np.geomspace(1e-3, 5.0, 50)
        for k in (1, 3):
            ref = np.exp(-math.sqrt(basis3.mu[k - 1]) * y)
            np.testing.assert_allclose(_profile(basis3, k, y), ref,
                                       rtol=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_normalization_at_origin(self, s):
        # correction term is O(y^{2s}); y = 1e-16 puts it below 1e-7
        b = spectral.build_basis(3, s, 4)
        assert _profile(b, 1, 1e-16) == pytest.approx(1.0, rel=1e-7)

    def test_exponential_decay(self, basis3):
        for k in (1, 2):
            y = 10.0 / math.sqrt(basis3.mu[k - 1])
            assert _profile(basis3, k, y) <= 1e-3

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_nonnegative_nonincreasing(self, s):
        b = spectral.build_basis(3, s, 4)
        y = np.geomspace(1e-4, 10.0, 300)
        g = _profile(b, 2, y)
        assert np.all(g >= 0)
        assert np.all(np.diff(g) <= 0)


class TestFluxConstant:
    def test_half_s_is_one(self):
        assert extension.flux_constant(0.5) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matches_analytic(self, s):
        num = extension.flux_constant(s)
        ref = extension.flux_constant_analytic(s)
        assert num == pytest.approx(ref, rel=1e-5)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_flux_identity_per_mode(self, s):
        # extrapolated -y^(1-2s) g_k'(y) at y->0 equals c(s) mu_k^s for each k
        b = spectral.build_basis(3, s, 5)
        c = extension.flux_constant_analytic(s)
        for k in (1, 2, 5):
            y = 1e-12 / math.sqrt(b.mu[k - 1])
            flux = -(y ** (1.0 - 2.0 * s)) * _profile(b, k, y, deriv=True)
            assert flux == pytest.approx(c * b.mu[k - 1] ** s, rel=1e-5)


class TestExtensionEval:
    def test_trace_property(self, basis3):
        rng = np.random.default_rng(7)
        u = spectral.RadialCoeffs(basis3, rng.normal(size=8))
        for rho in (0.0, 0.4, 0.9):
            assert extension.extension_eval(u, rho, 0.0) == pytest.approx(
                spectral.evaluate(u, rho), abs=1e-10
            )

    def test_single_mode_separable(self, basis3):
        rho, y = 0.3, 0.7
        assert extension.extension_eval(spectral.unit(basis3, 1), rho, y) == pytest.approx(
            basis3.phi_matrix(rho)[0, 0] * _profile(basis3, 1, y), rel=1e-12
        )

    def test_vertical_decay_rate(self, basis3):
        rng = np.random.default_rng(1)
        u = spectral.RadialCoeffs(basis3, np.abs(rng.normal(size=8)))
        y = np.linspace(1.0, 10.0, 40)
        vals = np.abs(extension.extension_eval(u, 0.0, y))
        rate = -np.polyfit(y, np.log(vals), 1)[0]
        assert rate >= 0.9 * math.sqrt(basis3.mu[0])


class TestEnergy:
    @pytest.mark.parametrize("n,s", [(2, 0.3), (3, 0.5), (5, 0.7)])
    def test_energy_identity_random_modes(self, n, s):
        b = spectral.build_basis(n, s, 8, 64)
        rng = np.random.default_rng(42)
        u = spectral.RadialCoeffs(b, rng.normal(size=8))
        e = extension.extension_energy(u)
        ref = extension.flux_constant_analytic(s) * spectral.h_norm(u) ** 2
        assert e == pytest.approx(ref, rel=1e-4)

    def test_zero_trace(self, basis3):
        zero = spectral.RadialCoeffs(basis3, np.zeros(basis3.K))
        assert extension.extension_energy(zero) == 0.0

    def test_additivity_over_modes(self, basis3):
        u1, u2 = spectral.unit(basis3, 1), spectral.unit(basis3, 2)
        both = spectral.RadialCoeffs(basis3, u1.c + u2.c)
        assert extension.extension_energy(both) == pytest.approx(
            extension.extension_energy(u1) + extension.extension_energy(u2),
            rel=1e-4,
        )

    def test_single_mode_identity(self, basis3):
        e = extension.extension_energy(spectral.unit(basis3, 1))
        assert e == pytest.approx(
            extension.flux_constant_analytic(0.5) * basis3.mu[0] ** 0.5, rel=1e-4
        )


class TestWeightedIntegrals:
    def test_zero_field(self, basis3):
        spec = extension.CutoffSpec(alpha=1.2, epsilon=0.05, R=3.0)
        zero = spectral.RadialCoeffs(basis3, np.zeros(basis3.K))
        assert extension.weighted_vrho_integral(zero, spec) == 0.0
        assert extension.stability_weighted_inequality(zero, spec) == (0.0, 0.0)

    def test_finite_for_admissible_alpha(self, basis3):
        spec = extension.CutoffSpec(
            alpha=1.0 + math.sqrt(2.0) - 0.1, epsilon=0.05, R=3.0
        )
        val = extension.weighted_vrho_integral(spectral.unit(basis3, 1), spec)
        assert np.isfinite(val) and val > 0

    def test_cutoff_derivatives_match_central_differences(self):
        spec = extension.CutoffSpec(alpha=1.3, epsilon=0.05, R=3.0)
        # nodes at least 1e-3 from the ramp ends, where eta'' jumps
        rho = np.linspace(0.01, 0.99, 197)
        rho = rho[np.min(np.abs(rho[:, None] - [0.05, 0.1, 0.5, 0.75]), axis=1) > 1e-3]
        y = np.linspace(0.1, 4.9, 97)
        y = y[np.min(np.abs(y[:, None] - [3.0, 4.0]), axis=1) > 1e-3]
        _, d_rad, _, d_psi = extension._cutoff_parts(spec, rho, y)
        h = 1e-6
        plus = extension._cutoff_parts(spec, rho + h, y + h)
        minus = extension._cutoff_parts(spec, rho - h, y - h)
        fd_rad = (plus[0] - minus[0]) / (2 * h)
        fd_psi = (plus[2] - minus[2]) / (2 * h)
        for exact, fd in ((d_rad, fd_rad), (d_psi, fd_psi)):
            assert np.max(np.abs(exact)) > 1.0
            np.testing.assert_allclose(exact, fd, rtol=1e-7, atol=1e-12)

    def test_degenerate_cutoff_vanishes(self, basis3):
        spec = extension.CutoffSpec(alpha=1.0, epsilon=0.75, R=3.0)
        lhs, rhs = extension.stability_weighted_inequality(spectral.unit(basis3, 1), spec)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)


class TestBatchedWeightedIntegrals:
    @staticmethod
    def _traces(basis, count, seed):
        # decaying coefficients, as a branch point's are
        rng = np.random.default_rng(seed)
        k = np.arange(1, basis.K + 1)
        return [spectral.RadialCoeffs(basis, rng.normal(size=basis.K) / k ** 2)
                for _ in range(count)]

    @staticmethod
    def _specs(n):
        return (extension.CutoffSpec(alpha=1.0 + math.sqrt(n - 1.0) - 0.1, epsilon=0.01, R=5.0),
                extension.CutoffSpec(alpha=1.0, epsilon=0.05, R=3.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_equals_single_calls(self, n):
        b = spectral.build_basis(n, 0.5, 16)
        us = self._traces(b, 3, n)
        key_spec, stab_spec = self._specs(n)
        vals = extension.weighted_vrho_integral(us, key_spec)
        assert isinstance(vals, np.ndarray) and vals.shape == (3,)
        assert list(vals) == [extension.weighted_vrho_integral(u, key_spec) for u in us]
        sides = extension.stability_weighted_inequality(us, stab_spec)
        assert isinstance(sides, np.ndarray) and sides.shape == (3, 2)
        assert [tuple(row) for row in sides] == [
            extension.stability_weighted_inequality(u, stab_spec) for u in us
        ]

    def test_single_trace_keeps_its_return_type(self, basis3):
        u = self._traces(basis3, 1, 0)[0]
        key_spec, stab_spec = self._specs(3)
        assert type(extension.weighted_vrho_integral(u, key_spec)) is float
        sides = extension.stability_weighted_inequality(u, stab_spec)
        assert type(sides) is tuple and [type(v) for v in sides] == [float, float]

    def test_traces_on_different_bases_raise(self, basis3):
        other = spectral.build_basis(3, 0.5, 8)
        us = [self._traces(basis3, 1, 0)[0], self._traces(other, 1, 1)[0]]
        key_spec, stab_spec = self._specs(3)
        with pytest.raises(ValueError, match="share one basis"):
            extension.weighted_vrho_integral(us, key_spec)
        with pytest.raises(ValueError, match="share one basis"):
            extension.stability_weighted_inequality(us, stab_spec)

    def test_zero_trace_inside_a_batch(self, basis3):
        zero = spectral.RadialCoeffs(basis3, np.zeros(basis3.K))
        u, w = self._traces(basis3, 2, 2)
        key_spec, stab_spec = self._specs(3)
        vals = extension.weighted_vrho_integral([u, zero, w], key_spec)
        assert vals[1] == 0.0 and vals[0] > 0.0 and vals[2] > 0.0
        sides = extension.stability_weighted_inequality([u, zero, w], stab_spec)
        assert tuple(sides[1]) == (0.0, 0.0) and np.all(sides[[0, 2]] > 0.0)


@functools.cache
def _walked_traces(n, s, K):
    """The traces of the five stable points that `verify` takes at (n, s, K)."""
    cfg = config.ExperimentConfig(n=n, s=s, modes=K)
    b = spectral.build_basis(n, s, K)
    br = branchsolve._walk(b, cfg.nonlinearity(), cfg.t_max, cfg.t_steps)
    return tuple(p.u for p in checks.stable_points(br, 5))


class TestQuadraticForms:
    """The weighted integrals as forms c^T M c against the grid sums they
    replaced: the same rules, with v_rho (and v_y) formed on the whole
    (rho, y) grid per trace and the cutoff as the grid of rad(rho) psi(y)."""

    @staticmethod
    def _stability_grid(u, spec):
        basis = u.basis
        t, tw = spectral._gauss_rule(600, 0.0, 1.0)
        rho = t ** 3
        drho = 3.0 * t ** 2 * tw
        y, wy = extension._vertical_grid(basis, y_max=spec.R + 1.5)
        g = extension._profile_table(basis, y)
        rad, d_rad, psi, d_psi = extension._cutoff_parts(spec, rho, y)
        eta2 = np.outer(rad, psi) ** 2
        grad2 = np.outer(d_rad, psi) ** 2 + np.outer(rad, d_psi) ** 2
        v2 = ((u.c[:, None] * basis.phi_prime_matrix(rho)).T @ g) ** 2
        wr = spectral.sphere_area(basis.n) * rho ** (basis.n - 1.0) * drho
        return (wr @ (v2 * grad2) @ wy,
                (basis.n - 1.0) * (wr @ (v2 * eta2 / rho[:, None] ** 2) @ wy))

    @staticmethod
    def _vrho_grid(u, spec):
        basis = u.basis
        y, wy = extension._vertical_grid(basis, panels=32)
        g = extension._profile_table(basis, y)
        t, tw = spectral._gauss_rule(800, 0.0, 1.0)
        rho = 0.5 * t ** 4
        drho = 0.5 * 4.0 * t ** 3 * tw
        wr = spectral.sphere_area(basis.n) * rho ** (basis.n - 1.0 - 2.0 * spec.alpha) * drho
        return wr @ ((u.c[:, None] * basis.phi_prime_matrix(rho)).T @ g) ** 2 @ wy

    @staticmethod
    def _energy_grid(u):
        basis = u.basis
        y, wy = extension._vertical_grid(basis)
        dphi = basis.phi_prime_matrix(basis.quad_nodes)
        v_rho = (u.c[:, None] * dphi).T @ extension._profile_table(basis, y)
        v_y = (u.c[:, None] * basis.phi_table).T @ extension._profile_deriv_table(basis, y)
        return basis.quad_weights @ (v_rho ** 2 + v_y ** 2) @ wy

    def _assert_forms_match_grid(self, us):
        n = us[0].basis.n
        key_spec = extension.CutoffSpec(alpha=1.0 + math.sqrt(n - 1.0) - 0.1, epsilon=0.01, R=5.0)
        stab_spec = extension.CutoffSpec(alpha=1.0, epsilon=0.05, R=3.0)
        sides = extension.stability_weighted_inequality(us, stab_spec)
        ref = np.array([self._stability_grid(u, stab_spec) for u in us])
        assert np.all(ref > 0.0)
        np.testing.assert_allclose(sides, ref, rtol=1e-12, atol=0.0)
        vals = extension.weighted_vrho_integral(us, key_spec)
        np.testing.assert_allclose(vals, [self._vrho_grid(u, key_spec) for u in us],
                                   rtol=1e-12, atol=0.0)
        for u in us:
            assert extension.extension_energy(u) == pytest.approx(self._energy_grid(u),
                                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, s, K", [(2, 0.7, 32), (3, 0.5, 64), (5, 0.3, 64), (6, 0.7, 64)])
    def test_walked_points_match_the_grid_sums(self, n, s, K):
        self._assert_forms_match_grid(list(_walked_traces(n, s, K)))

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("K", [16, 64])
    @pytest.mark.parametrize("n, s", [(2, 0.7), (3, 0.5), (5, 0.3)])
    def test_rough_traces_match_the_grid_sums(self, n, s, K, p):
        # coefficients ~ k^(-p): at p = 0 every mode counts as much as the first
        b = spectral.build_basis(n, s, K)
        rng = np.random.default_rng(100 * n + K + p)
        k = np.arange(1, K + 1)
        self._assert_forms_match_grid(
            [spectral.RadialCoeffs(b, rng.normal(size=K) / k ** p) for _ in range(3)])


class TestPoissonConstant:
    def test_n2_half_s(self):
        # int (1+|z|^2)^(-3/2) dz over R^2 is 2 pi
        assert extension.poisson_constant(2, 0.5) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-12
        )

    @pytest.mark.parametrize("n,s", [(2, 0.25), (3, 0.5), (5, 0.7)])
    def test_normalization_by_radial_quadrature(self, n, s):
        p = (n + 2.0 - 2.0 * s) / 2.0
        val, _ = integrate.quad(
            lambda r: r ** (n - 1) * (1.0 + r * r) ** (-p), 0.0, np.inf
        )
        integral = spectral.sphere_area(n) * val
        assert extension.poisson_constant(n, s) * integral == pytest.approx(
            1.0, rel=1e-8
        )


class TestAngularKernel:
    """extension._angular_kernel, big^(n-1) T with big = max(x, r) and
    T = int_0^pi sin^(n-2) t (x^2 + r^2 - 2xr cos t)^(s-n/2) dt."""

    X = 0.5

    @classmethod
    def _kernel(cls, n, s, r, delta):
        """T."""
        big = max(cls.X, r)
        return extension._angular_kernel(n, s, np.array([big]), np.array([delta]))[0] / big ** (n - 1.0)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.5 + 1e-6, 0.5 - 1e-9, 0.51])
    @pytest.mark.parametrize("delta", [1e-12, 1e-6, 1e-2, 0.3])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_n3_elementary_form(self, s, delta, side):
        # n = 3: T = ((x + r)^eps - delta^eps) / (eps x r), eps = 2s - 1, written
        # so that it stays exact as eps -> 0; the log kernel at s = 1/2
        x = self.X
        r = x + side * delta
        eps = 2.0 * s - 1.0
        log_ratio = math.log((x + r) / delta)
        if eps == 0.0:
            ref = log_ratio / (x * r)
        else:
            ref = delta ** eps * math.expm1(eps * log_ratio) / (eps * x * r)
        assert self._kernel(3, s, r, delta) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 6, 20])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.5 + 1e-6])
    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.3])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_against_theta_quadrature(self, n, s, delta, side):
        # the squared distance as delta^2 + 4 x r sin^2(t/2) keeps its digits near
        # t = 0, where the integrand peaks over a width of about delta / sqrt(x r)
        x = self.X
        r = x + side * delta
        peak = delta / math.sqrt(x * r)
        ref, _ = integrate.quad(
            lambda t: math.sin(t) ** (n - 2)
            * (delta ** 2 + 4.0 * x * r * math.sin(t / 2.0) ** 2) ** (s - n / 2.0),
            0.0, math.pi, points=[peak, 10.0 * peak], epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert self._kernel(n, s, r, delta) == pytest.approx(ref, rel=1e-12)


class TestRieszPotential:
    def test_zero_rhs(self, basis3):
        zero = spectral.RadialCoeffs(basis3, np.zeros(basis3.K))
        assert extension.riesz_potential_radial(zero, 0.3) == 0.0

    def test_linearity(self, basis3):
        rng = np.random.default_rng(5)
        c = np.abs(rng.normal(size=8))
        one = extension.riesz_potential_radial(spectral.RadialCoeffs(basis3, c), 0.4)
        two = extension.riesz_potential_radial(spectral.RadialCoeffs(basis3, 2.0 * c), 0.4)
        assert two == pytest.approx(2.0 * one, rel=1e-10)

    def test_needs_fractional_order(self):
        # the kernel's connection series has b = 1 - s = 0 at s = 1
        b = spectral.build_basis(3, 1.0, 8)
        with pytest.raises(ValueError, match="s in"):
            extension.riesz_potential_radial(spectral.unit(b, 1), 0.4)

    def test_single_function_returns_float(self, basis3):
        h = spectral.RadialCoeffs(basis3, np.ones(8))
        assert type(extension.riesz_potential_radial(h, 0.4)) is float

    @pytest.mark.parametrize("n", [2, 3])  # n = 2 takes the |S^0| = 2 branch
    def test_batched_matches_single_calls(self, n):
        b = spectral.build_basis(n, 0.5, 16)
        rng = np.random.default_rng(n)
        hs = [spectral.RadialCoeffs(b, rng.normal(size=16)) for _ in range(4)]
        for x in (0.0, 0.4, 0.9):
            batched = extension.riesz_potential_radial(hs, x)
            single = [extension.riesz_potential_radial(h, x) for h in hs]
            assert isinstance(batched, np.ndarray) and batched.shape == (4,)
            np.testing.assert_allclose(batched, single, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_radii_match_single_calls(self, n):
        # one call for many radii shares the base panels and the basis table;
        # the radii cover x = 0, the axis zone, its edge 8/K and r = 1
        K = 16
        b = spectral.build_basis(n, 0.5, K)
        rng = np.random.default_rng(10 + n)
        hs = [spectral.RadialCoeffs(b, rng.normal(size=K)) for _ in range(3)]
        radii = np.array([0.0, 0.02, 8.0 / K - 0.2 / K, 8.0 / K + 0.2 / K, 0.4,
                          0.9, 1.0 - 2.0 / K, 1.0, 1.5])
        batched = extension.riesz_potential_radial(hs, radii)
        assert batched.shape == (3, radii.size)
        single = [[extension.riesz_potential_radial(h, float(x)) for x in radii] for h in hs]
        np.testing.assert_allclose(batched, single, rtol=1e-14, atol=0.0)
        one = extension.riesz_potential_radial(hs[0], radii)
        assert one.shape == radii.shape
        np.testing.assert_allclose(one, single[0], rtol=1e-14, atol=0.0)

    def test_against_log_kernel_oracle(self):
        # n=3, s=1/2: V(x) = (2 pi / x) int_0^1 r h(r) log((r+x)/|r-x|) dr
        b = spectral.build_basis(3, 0.5, 48)
        h_fun = lambda r: (1.0 - r ** 2) ** 2
        h = spectral.analyze(b, h_fun)
        for x in (0.3, 0.6, 0.9):
            parts = []
            for a, bb in ((0.0, x), (x, 1.0)):
                v, _ = integrate.quad(
                    lambda r: r * h_fun(r) * math.log((r + x) / abs(r - x)),
                    a, bb, limit=200,
                )
                parts.append(v)
            oracle = 2.0 * math.pi / x * sum(parts)
            mine = extension.riesz_potential_radial(h, x)
            assert mine == pytest.approx(oracle, rel=2e-4)

    def test_center_value_constant_density(self):
        # h smooth, x=0: V(0) = |S^2| int_0^1 h(r) r^(2s-1) r dr... for n=3, s=1/2:
        # V(0) = 4 pi int_0^1 h(r) dr
        b = spectral.build_basis(3, 0.5, 48)
        h_fun = lambda r: (1.0 - r ** 2) ** 2
        h = spectral.analyze(b, h_fun)
        ref, _ = integrate.quad(h_fun, 0.0, 1.0)
        assert extension.riesz_potential_radial(h, 0.0) == pytest.approx(
            4.0 * math.pi * ref, rel=2e-4
        )

    @pytest.mark.parametrize("n, s, K", [(20, 0.5, 64), (3, 0.05, 16), (10, 0.3, 512)])
    def test_center_value_at_far_powers(self, n, s, K):
        # next to the axis r^(n-1) underflows and r^(2s-n) overflows at n = 20
        # and at (10, 0.3, 512); at s = 0.05 delta^2 underflows.  R(h)(0) =
        # |S^(n-1)| int_0^1 |h(r)| r^(2s-1) dr, by quad split at the zeros of h
        # and with quad's algebraic weight on the first piece
        b = spectral.build_basis(n, s, K)
        h = spectral.unit(b, 1)
        grid = np.linspace(0.0, 1.0, 2001)
        v = spectral.evaluate(h, grid)
        edges = [0.0] + [
            optimize.brentq(lambda r: spectral.evaluate(h, r), grid[i], grid[i + 1],
                            xtol=1e-15, rtol=1e-15)
            for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)
        ] + [1.0]
        ref = integrate.quad(lambda r: abs(spectral.evaluate(h, r)), 0.0, edges[1], weight="alg",
                             wvar=(2.0 * s - 1.0, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
        ref += sum(
            integrate.quad(lambda r: abs(spectral.evaluate(h, r)) * r ** (2.0 * s - 1.0), a, c,
                           epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for a, c in zip(edges[1:-1], edges[2:])
        )
        assert extension.riesz_potential_radial(h, 0.0) == pytest.approx(
            spectral.sphere_area(n) * ref, rel=1e-12
        )

    @staticmethod
    def _log_kernel_oracle(h, x):
        # n = 3, s = 1/2: (2 pi / x) int_0^1 r |h(r)| log((r + x) / |r - x|) dr
        # for the projected h itself, split at the log singularity
        parts = [
            integrate.quad(
                lambda r: r * abs(spectral.evaluate(h, r)) * math.log((r + x) / abs(r - x)),
                a, b, epsabs=0.0, epsrel=1e-13, limit=200,
            )[0]
            for a, b in ((0.0, x), (x, 1.0))
        ]
        return 2.0 * math.pi / x * sum(parts)

    @pytest.mark.parametrize("which", ["projected_one", "quartic"])
    def test_projected_function_against_log_kernel_oracle(self, which):
        b = spectral.build_basis(3, 0.5, 48)
        if which == "projected_one":
            h = spectral.RadialCoeffs(b, b.phi_table @ b.quad_weights)
        else:
            h = spectral.analyze(b, lambda r: (1.0 - r ** 2) ** 2)
        for x in (0.3, 0.6, 0.9):
            assert extension.riesz_potential_radial(h, x) == pytest.approx(
                self._log_kernel_oracle(h, x), rel=1e-12
            )

    @pytest.mark.parametrize("which", ["projected_one", "quartic"])
    @pytest.mark.parametrize("x", [8.0 / 48 - 0.2 / 48, 8.0 / 48 + 0.2 / 48, 1.0 - 2.0 / 48],
                             ids=["8/K-0.2/K", "8/K+0.2/K", "1-2/K"])
    def test_patch_edges_against_log_kernel_oracle(self, which, x):
        # next to the axis zone's edge 8/K a wide base panel starts close to
        # x, and next to r = 1 the patch reaches the end of the grid
        b = spectral.build_basis(3, 0.5, 48)
        if which == "projected_one":
            h = spectral.RadialCoeffs(b, b.phi_table @ b.quad_weights)
        else:
            h = spectral.analyze(b, lambda r: (1.0 - r ** 2) ** 2)
        assert extension.riesz_potential_radial(h, x) == pytest.approx(
            self._log_kernel_oracle(h, x), rel=1e-12
        )

    @staticmethod
    def _split_reference(h, x):
        """R(h)(x) on 32-point panels no wider than 1/(8K), graded by 0.2
        toward x on each side and split at every zero of h, so that no panel
        holds a kink of |h|.  40-point panels of 1/(16K) agree with it to
        7e-16 at (6, 1/2 + 1e-6, 64), x = 0.02 and 0.3."""
        b = h.basis
        grid = np.linspace(0.0, 1.0, 20001)
        v = spectral.evaluate(h, grid)
        zeros = [
            optimize.brentq(lambda r: spectral.evaluate(h, r), grid[i], grid[i + 1],
                            xtol=1e-15, rtol=1e-15)
            for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)
        ]
        cap = 1.0 / (8.0 * b.K)
        area = 2.0 if b.n == 2 else spectral.sphere_area(b.n - 1)
        total = 0.0
        for side, far in ((-1.0, x), (1.0, 1.0 - x)):
            edges = [0.0, 0.2 ** 40 * cap]
            while edges[-1] < far:
                edges.append(edges[-1] + min(cap, 4.0 * edges[-1]))
            edges[-1] = far
            splits = [side * (z - x) for z in zeros if 0.0 < side * (z - x) < far]
            edges = np.unique(np.concatenate([edges, splits]))
            d, wd = map(np.ravel, spectral._gauss_rule(32, edges[:-1], edges[1:]))
            r = x + side * d
            big = np.maximum(r, x)
            w = area * wd * (r / big) ** (b.n - 1.0) * extension._angular_kernel(b.n, b.s, big, d)
            total += float(np.abs(spectral.evaluate(h, r)) @ w)
        return total

    @pytest.mark.parametrize("x, bound", [(0.0, 1e-5), (0.02, 1.6e-5)], ids=["x=0", "x=0.02"])
    @pytest.mark.parametrize("n, s", [(6, 0.5 + 1e-6), (5, 0.3)], ids=["n=6", "n=5"])
    def test_kinked_h_next_to_the_axis(self, n, s, x, bound):
        # at (6, 1/2 + 1e-6, 64) and (5, 0.3, 64) the projected h = lambda
        # P[f(u)] of the stable points rings next to the axis and changes sign
        # there; no rule blind to h converges faster than algebraically at its
        # kinks.  Measured, at most relative over the five traces: 2.5e-6 and
        # 4.8e-6 at x = 0; 9.3e-6 and 1.4e-5 at x = 0.02
        cfg = config.ExperimentConfig(n=n, s=s, modes=64)
        b = spectral.build_basis(cfg.n, cfg.s, cfg.modes)
        f = cfg.nonlinearity()
        points = checks.stable_points(branchsolve._walk(b, f, cfg.t_max, cfg.t_steps), 5)
        term = branchsolve._NonlinearTerm(b, f)
        hs = [spectral.RadialCoeffs(b, p.lam * term.project(p.u.c)[1]) for p in points]
        got = extension.riesz_potential_radial(hs, x)
        ref = np.array([self._split_reference(h, x) for h in hs])
        assert np.max(np.abs(got - ref) / ref) <= bound

    @staticmethod
    def _shell_rule(n, s, x):
        """Composite shell rule about x, |x| > 1: shells t in [x - 1, x + 1]
        (t = tau^(1/(2s)) absorbs t^(2s-1)), each clipped to the polar angles
        inside B_1; 12 Gauss panels of 16 points in tau and in the angle."""
        panels, order = 12, 16
        edges = np.linspace((x - 1.0) ** (2.0 * s), (x + 1.0) ** (2.0 * s), panels + 1)
        tau, wtau = map(np.ravel, spectral._gauss_rule(order, edges[:-1], edges[1:]))
        t = tau ** (1.0 / (2.0 * s))
        cos_lo = np.clip((1.0 - x * x - t * t) / (2.0 * x * t), -1.0, 1.0)
        theta_edges = np.linspace(np.arccos(cos_lo), math.pi, panels + 1, axis=1)
        theta, wth = spectral._gauss_rule(order, theta_edges[:, :-1], theta_edges[:, 1:])
        theta, wth = theta.reshape(t.size, -1), wth.reshape(t.size, -1)
        r = np.sqrt(x * x + t[:, None] ** 2 + 2.0 * x * t[:, None] * np.cos(theta))
        w = (wtau / (2.0 * s))[:, None] * wth * np.sin(theta) ** (n - 2)
        return np.minimum(r, 1.0).ravel(), spectral.sphere_area(n - 1) * w.ravel()

    def test_outside_the_ball_against_shell_rule(self):
        # no caller asks for |x| > 1, where the radial rule has no singularity;
        # h keeps one sign on [0, 1), so |h| has no kink for either rule
        b = spectral.build_basis(3, 0.3, 16)
        h = spectral.analyze(b, lambda r: (1.0 - r ** 2) * (2.0 + np.cos(3.0 * r)))
        r, w = self._shell_rule(3, 0.3, 1.5)
        ref = float(np.abs(spectral.evaluate(h, r)) @ w)
        assert extension.riesz_potential_radial(h, 1.5) == pytest.approx(ref, rel=1e-12)
