"""Tests for the regularity thresholds, decay fits, and the A-constant.

The A-constant has an independent oracle: for n = 3, s = 1/2 the angular
integral can be reduced to an elementary function and the remaining (r, y)
double integral handled by scipy.integrate, so the 2F1 angular form and the
graded (r, y) quadrature are checked against a structurally different
computation.  The 2F1 form is also checked against adaptive quadrature of the
angular integral itself.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from fracgelfand import extension, regularity, spectral


class TestFormulas:
    def test_critical_dimension_local_limit(self):
        # s -> 1 recovers the classical threshold 10
        assert regularity.critical_dimension(1.0) == pytest.approx(10.0)

    def test_critical_dimension_half(self):
        assert regularity.critical_dimension(0.5) == pytest.approx(
            2.0 * (2.5 + math.sqrt(3.0))
        )

    def test_critical_dimension_monotone(self):
        svals = np.linspace(0.05, 1.0, 30)
        dims = [regularity.critical_dimension(s) for s in svals]
        assert np.all(np.diff(dims) > 0)

    def test_critical_dimension_domain(self):
        with pytest.raises(ValueError):
            regularity.critical_dimension(0.0)

    def test_decay_bound_examples(self):
        assert regularity.decay_exponent_bound(20, 0.5) == pytest.approx(
            10.0 - 1.0 - math.sqrt(19.0) - 0.5
        )
        assert regularity.decay_exponent_bound(2, 1.0) == pytest.approx(-2.0)

    def test_decay_bound_increasing_in_n(self):
        vals = [regularity.decay_exponent_bound(n, 0.5) for n in range(6, 30)]
        assert np.all(np.diff(vals) > 0)


class TestDecayFits:
    def test_pure_power_recovered(self):
        rho = np.geomspace(1e-3, 0.3, 80)
        mu, c, r2 = regularity.fit_decay_exponent(
            lambda r: 3.0 * r ** -2.0, rho
        )
        assert mu == pytest.approx(2.0, abs=1e-6)
        assert c == pytest.approx(3.0, rel=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_fit_rejects_sign_changes(self):
        rho = np.geomspace(1e-2, 0.3, 20)
        with pytest.raises(ValueError):
            regularity.fit_decay_exponent(lambda r: r - 0.1, rho)

    def test_envelope_constant_power_law(self):
        rho = np.geomspace(1e-3, 0.5, 100)
        c = regularity.decay_envelope_constant(
            lambda r: 2.0 * r ** -1.5, 1.5, rho
        )
        assert c == pytest.approx(2.0, rel=1e-12)

    def test_envelope_with_coeffs(self):
        basis = spectral.build_basis(3, 0.5, 32)
        u = spectral.analyze(basis, lambda r: (1.0 - r ** 2))
        rho = np.linspace(0.1, 0.9, 50)
        c = regularity.decay_envelope_constant(u, 0.0, rho)
        assert c == pytest.approx(0.99, rel=1e-3)

    def test_boundary_rate_power_of_distance(self):
        for rate in (0.4, 1.0, 1.7):
            fit = regularity.boundary_decay_rate(
                lambda r, rate=rate: (1.0 - r) ** rate
            )
            assert fit == pytest.approx(rate, abs=1e-10)

    def test_boundary_rate_smooth_vanishing(self):
        # (1 - rho^2)^{2s} behaves like (2 d)^{2s} at the boundary
        s = 0.3
        fit = regularity.boundary_decay_rate(lambda r: (1.0 - r ** 2) ** (2 * s))
        assert fit == pytest.approx(2 * s, abs=1e-3)


def _a_oracle_3d_half(beta):
    """A(3, 1/2, beta) with the polar-angle integral done in closed form.

    With n = 3, s = 1/2 the angular kernel is sin(th)/(y^2+r^2+1-2r cos(th))^2
    whose antiderivative in cos(th) is elementary; the remaining (r, y) plane
    is handled in polar coordinates with the radial line split at the kernel
    singularity R = 1 and extended to infinity by quadpack.
    """

    def density(big_r, phi):
        r = big_r * math.cos(phi)
        y = big_r * math.sin(phi)
        lo = y * y + (r - 1.0) ** 2
        hi = y * y + (r + 1.0) ** 2
        ang = 4.0 * math.pi / (lo * hi)
        return (
            ang * y * y * r * r / (r * r + y * y) ** ((beta + 2.0) / 2.0) * big_r
        )

    def radial(phi):
        head, _ = integrate.quad(
            density, 0.0, 2.0, args=(phi,), points=[1.0],
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        tail, _ = integrate.quad(
            density, 2.0, np.inf, args=(phi,),
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        return head + tail

    val, err = integrate.quad(
        radial, 0.0, math.pi / 2.0, epsabs=1e-10, epsrel=1e-10, limit=200
    )
    assert err < 1e-6
    return val


def _a_theta_quad(n, s, r, y):
    # 1 - cos t = 2 sin^2(t/2) keeps the kernel accurate at the peak t ~ 0
    p = (n + 2.0 - 2.0 * s) / 2.0
    q = y * y + (r - 1.0) ** 2
    width = math.sqrt(q / r)
    val, _ = integrate.quad(
        lambda t: math.sin(t) ** (n - 2)
        * (q + 4.0 * r * math.sin(0.5 * t) ** 2) ** (-p),
        0.0, math.pi,
        points=[c for c in (width, 4 * width, 16 * width) if c < math.pi] or None,
        epsabs=0.0, epsrel=1e-13, limit=500,
    )
    return val


class TestAngularIntegral:
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_closed_form_against_quad(self, n, s):
        # 1e-10 from the axis to far out, down to q = y^2 + (r-1)^2 = 1e-5;
        # closer to the corner (1, 0), rounding z costs about 2e-16 / q
        rys = [(1e-3, 0.01), (0.3, 0.2), (0.5, 2.0), (0.997, 0.002),
               (1.0, 0.0032), (1.003, 0.002), (1.1, 0.05), (3.0, 0.1),
               (50.0, 5.0), (1.0, 1e-3), (0.999, 0.0), (1.0, 1e-4),
               (0.9999, 0.0), (1.0, 1e-5), (0.99999, 0.0)]
        for r, y in rys:
            q = y * y + (r - 1.0) ** 2
            got = regularity._a_theta_integral(n, s, np.array([r]), y)[0]
            assert got == pytest.approx(_a_theta_quad(n, s, r, y),
                                        rel=max(1e-10, 1e-15 / q))


class TestAConstant:
    def test_against_independent_oracle(self):
        for beta in (0.5, 1.0):
            a = regularity.a_constant(3, 0.5, beta)
            assert a == pytest.approx(_a_oracle_3d_half(beta), rel=5e-4)

    def test_positive_and_finite(self):
        a = regularity.a_constant(5, 0.7, 1.5, rel_tol=1e-3)
        assert 0.0 < a < 1e3

    def test_margin_positive_sample(self):
        # margin 1 - beta*C*A against the independent oracle for the A factor
        for beta in (0.5, 1.0):
            m = regularity.lemma_a_margin(3, 0.5, beta)
            ref = 1.0 - beta * extension.poisson_constant(3, 0.5) * (
                _a_oracle_3d_half(beta)
            )
            assert 0.0 < m < 1.0
            assert m == pytest.approx(ref, abs=1e-4)
