import math

import numpy as np
import pytest
from scipy import integrate

from fracgelfand import extension, spectral


@pytest.fixture(scope="module")
def basis3():
    return spectral.build_basis(3, 0.5, 8)


def _profile(basis, k, y, deriv=False):
    """g_k(y), or g_k'(y), at heights y > 0 from the extension's profile tables."""
    y = np.asarray(y, dtype=float)
    g, gp = extension._profile_tables(basis, np.atleast_1d(y))
    return (gp if deriv else g)[k - 1].reshape(y.shape)


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

    def test_k_independence_enforced(self):
        # identical-by-construction values across k; just confirm it runs
        extension.flux_constant(0.3, k_indices=(1, 5))


class TestExtensionEval:
    def test_trace_property(self, basis3):
        rng = np.random.default_rng(7)
        u = spectral.coeffs(basis3, rng.normal(size=8))
        field = extension.ExtensionField(u)
        for rho in (0.0, 0.4, 0.9):
            assert extension.extension_eval(field, rho, 0.0) == pytest.approx(
                spectral.evaluate(u, rho), abs=1e-10
            )

    def test_single_mode_separable(self, basis3):
        field = extension.ExtensionField(spectral.unit(basis3, 1))
        rho, y = 0.3, 0.7
        assert extension.extension_eval(field, rho, y) == pytest.approx(
            basis3.phi_matrix(rho)[0, 0] * _profile(basis3, 1, y), rel=1e-12
        )

    def test_vertical_decay_rate(self, basis3):
        rng = np.random.default_rng(1)
        u = spectral.coeffs(basis3, np.abs(rng.normal(size=8)))
        field = extension.ExtensionField(u)
        y = np.linspace(1.0, 10.0, 40)
        vals = np.abs(extension.extension_eval(field, 0.0, y))
        rate = -np.polyfit(y, np.log(vals), 1)[0]
        assert rate >= 0.9 * math.sqrt(basis3.mu[0])


class TestEnergy:
    @pytest.mark.parametrize("n,s", [(2, 0.3), (3, 0.5), (5, 0.7)])
    def test_energy_identity_random_modes(self, n, s):
        b = spectral.build_basis(n, s, 8, 64)
        rng = np.random.default_rng(42)
        u = spectral.coeffs(b, rng.normal(size=8))
        e = extension.extension_energy(extension.ExtensionField(u))
        ref = extension.flux_constant_analytic(s) * spectral.h_norm(u) ** 2
        assert e == pytest.approx(ref, rel=1e-4)

    def test_zero_trace(self, basis3):
        assert extension.extension_energy(
            extension.ExtensionField(spectral.zero(basis3))
        ) == 0.0

    def test_additivity_over_modes(self, basis3):
        f1 = extension.ExtensionField(spectral.unit(basis3, 1))
        f2 = extension.ExtensionField(spectral.unit(basis3, 2))
        both = extension.ExtensionField(
            spectral.coeffs(basis3, spectral.unit(basis3, 1).c + spectral.unit(basis3, 2).c)
        )
        assert extension.extension_energy(both) == pytest.approx(
            extension.extension_energy(f1) + extension.extension_energy(f2),
            rel=1e-4,
        )

    def test_single_mode_identity(self, basis3):
        e = extension.extension_energy(extension.ExtensionField(spectral.unit(basis3, 1)))
        assert e == pytest.approx(
            extension.flux_constant_analytic(0.5) * basis3.mu[0] ** 0.5, rel=1e-4
        )


class TestWeightedIntegrals:
    def test_zero_field(self, basis3):
        spec = extension.CutoffSpec(alpha=1.2, epsilon=0.05, R=3.0)
        field = extension.ExtensionField(spectral.zero(basis3))
        assert extension.weighted_vrho_integral(field, spec) == 0.0
        assert extension.stability_weighted_inequality(field, spec) == (0.0, 0.0)

    def test_finite_for_admissible_alpha(self, basis3):
        field = extension.ExtensionField(spectral.unit(basis3, 1))
        spec = extension.CutoffSpec(
            alpha=1.0 + math.sqrt(2.0) - 0.1, epsilon=0.05, R=3.0
        )
        val = extension.weighted_vrho_integral(field, spec)
        assert np.isfinite(val) and val > 0

    def test_degenerate_cutoff_vanishes(self, basis3):
        field = extension.ExtensionField(spectral.unit(basis3, 1))
        spec = extension.CutoffSpec(alpha=1.0, epsilon=0.75, R=3.0)
        lhs, rhs = extension.stability_weighted_inequality(field, spec)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)


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


class TestRieszPotential:
    def test_zero_rhs(self, basis3):
        assert extension.riesz_potential_radial(spectral.zero(basis3), 0.3) == 0.0

    def test_linearity(self, basis3):
        rng = np.random.default_rng(5)
        c = np.abs(rng.normal(size=8))
        one = extension.riesz_potential_radial(spectral.coeffs(basis3, c), 0.4)
        two = extension.riesz_potential_radial(spectral.coeffs(basis3, 2.0 * c), 0.4)
        assert two == pytest.approx(2.0 * one, rel=1e-10)

    def test_single_function_returns_float(self, basis3):
        h = spectral.coeffs(basis3, np.ones(8))
        assert type(extension.riesz_potential_radial(h, 0.4)) is float

    @pytest.mark.parametrize("n", [2, 3])  # n = 2 takes the |S^0| = 2 branch
    def test_batched_matches_single_calls(self, n):
        b = spectral.build_basis(n, 0.5, 16)
        rng = np.random.default_rng(n)
        hs = [spectral.coeffs(b, rng.normal(size=16)) for _ in range(4)]
        for x in (0.0, 0.4, 0.9):
            batched = extension.riesz_potential_radial(hs, x)
            single = [extension.riesz_potential_radial(h, x) for h in hs]
            assert isinstance(batched, np.ndarray) and batched.shape == (4,)
            np.testing.assert_allclose(batched, single, rtol=1e-13, atol=0.0)

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
