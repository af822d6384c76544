import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from fracgelfand import specfun


def bisect_zero(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestGamma:
    def test_half_integer(self):
        assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_one(self):
        assert specfun.gamma(1.0) == 1.0

    def test_factorial(self):
        assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            specfun.gamma(-1.0)
        with pytest.raises(ValueError):
            specfun.gamma(0.0)

    @given(st.floats(min_value=1e-3, max_value=49.0))
    @settings(max_examples=60, deadline=None)
    def test_functional_equation(self, x):
        assert specfun.gamma(x + 1.0) == pytest.approx(x * specfun.gamma(x), rel=1e-12)


class TestBesselJZeros:
    def test_half_order_zeros_are_multiples_of_pi(self):
        zeros = specfun.bessel_j_zeros(0.5, 3)
        np.testing.assert_allclose(zeros, [math.pi, 2 * math.pi, 3 * math.pi],
                                   rtol=1e-12)

    def test_first_j0_zero_against_bisection(self):
        oracle = bisect_zero(lambda x: special.jv(0.0, x), 2.0, 3.0)
        assert specfun.bessel_j_zeros(0.0, 1)[0] == pytest.approx(oracle, abs=1e-12)
        assert specfun.bessel_j_zeros(0.0, 1)[0] == pytest.approx(
            2.404825557695773, rel=1e-13
        )

    @pytest.mark.parametrize(
        "nu", [0.0, 0.5, 1.0, 2.5, 9.0, 24.0, 31.5, 32.0, 40.0, 59.0, 59.5, 60.0])
    def test_residual_and_spacing(self, nu):
        zeros = specfun.bessel_j_zeros(nu, 12)
        assert np.all(np.abs(special.jv(nu, zeros)) <= 1e-12)
        assert np.all(np.diff(zeros) > 1.0)
        # no zero skipped: J_nu keeps one sign on [nu, j_1) and inside each
        # gap between returned zeros, and changes it at every returned zero
        # (consecutive zeros lie more than 3 apart, so 32 samples a gap see
        # any zero that the search could have skipped)
        ends = np.concatenate([[nu], zeros])
        t = (np.arange(32) + 0.5) / 32
        samples = ends[:-1, None] + np.diff(ends)[:, None] * t
        signs = np.sign(special.jv(nu, samples))
        assert np.all(signs == signs[:, :1])
        np.testing.assert_array_equal(signs[:, 0], (-1.0) ** np.arange(12))
        if nu == int(nu):
            np.testing.assert_allclose(zeros, special.jn_zeros(int(nu), 12), rtol=1e-13)

    def test_newton_stops_at_its_cap(self, monkeypatch):
        # half steps converge only linearly: 10 of them leave ~1e-5 of the error
        jvp = special.jvp
        monkeypatch.setattr(specfun.special, "jvp", lambda nu, x: 2.0 * jvp(nu, x))
        with pytest.raises(specfun.ZeroFindingError, match="after 10 steps"):
            specfun.bessel_j_zeros(9.0, 4)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            specfun.bessel_j_zeros(0.0, 0)

