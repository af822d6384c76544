"""Tests for the regularity thresholds, decay fits, and the A-constant.

A(n, s, beta) is a closed form, derived by Fourier transform in x (see
`regularity.a_constant`).  It has two independent checks.  For n = 3,
s = 1/2 the angular integral reduces to an elementary function and the
remaining (r, y) double integral is handled by scipy.integrate; elsewhere the
benchmark's adaptive polar quadrature (bench/references.py) integrates the
kernel with its angular part as a 2F1, which is itself checked against
adaptive quadrature of the angular integral, down to the kernel's corner.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from fracgelfand import branchsolve, extension, regularity, spectral


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


def _stand_in(fold_at, calls, reports_fold=True):
    """A monotone_iterate that converges below fold_at and raises above it,
    reporting the fold fold_at (if reports_fold) more than FOLD_MARGIN above it."""
    def iterate(basis, lam, f, max_iter=4000):
        calls.append(lam)
        if lam < fold_at:
            return None
        above = reports_fold and lam > fold_at * (1.0 + branchsolve.FOLD_MARGIN)
        raise branchsolve.DivergenceSignal(lam, branchsolve.CERTIFY_AFTER, 1.0, False,
                                           fold_lambda=fold_at if above else None)
    return iterate


class TestNearExtremalEnvelope:
    def test_stops_at_the_first_solved_fold(self, monkeypatch):
        # [0.1, 8] halves 0.1, 4.05 (above 3.25: the first step that reports it)
        calls = []
        monkeypatch.setattr(branchsolve, "monotone_iterate", _stand_in(3.25, calls))
        assert regularity._solved_fold(None, None, 0.1, 8.0) == 3.25
        assert calls == [4.05]

    def test_solved_fold_on_a_basis_is_the_walked_fold(self):
        basis = spectral.build_basis(3, 0.5, 32)
        f = branchsolve.exponential()
        br = branchsolve.continue_branch(basis, np.linspace(0.0, 12.0, 49)[1:], f)
        lam_fold = regularity._solved_fold(basis, f, 0.1, 8.0)
        assert lam_fold == pytest.approx(branchsolve.extremal_solution(br).lam, rel=1e-9)

    def test_no_fold_is_named(self, monkeypatch):
        # every step above 3.25 blows up: the bisection ends once its bracket
        # is within FOLD_MARGIN, 32 halvings from [0.1, 8]
        calls = []
        monkeypatch.setattr(branchsolve, "monotone_iterate",
                            _stand_in(3.25, calls, reports_fold=False))
        with pytest.raises(RuntimeError, match=r"no fold solved: .* lies in \[3\.2499"):
            regularity.near_extremal_envelope(None, None, np.array([0.1]))
        assert len(calls) == 32

    @pytest.mark.parametrize("outcome, end", [
        ("blew up", "below"), ("converged", "above"), ("ran out", "above")])
    def test_unconfirmed_fold_is_named(self, monkeypatch, outcome, end):
        # the fold 3.25 is solved; the check at 3.25 (1 -+ FOLD_CHECK) on the
        # `end` side gives `outcome`, the check on the other side passes
        def iterate(basis, lam, f, max_iter=4000):
            checked = (lam < 3.25) == (end == "below")
            if checked and outcome == "converged" or not checked and lam < 3.25:
                return None
            raise branchsolve.DivergenceSignal(lam, 1, 1.0, checked and outcome == "ran out")

        monkeypatch.setattr(regularity, "_solved_fold", lambda *args: 3.25)
        monkeypatch.setattr(branchsolve, "monotone_iterate", iterate)
        with pytest.raises(RuntimeError, match=f"solved fold 3.25 is not confirmed {end}"):
            regularity.near_extremal_envelope(None, None, np.array([0.1]))


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


REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.py"


def _load_references():
    spec = importlib.util.spec_from_file_location("references", REFERENCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAngularIntegral:
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_closed_form_against_quad(self, n, s):
        # the 2F1 form inside the reference A, to 1e-10 from the axis to far
        # out, down to q = y^2 + (r-1)^2 = 1e-5; closer to the corner (1, 0),
        # rounding its argument costs about 2e-16 / q
        references = _load_references()
        rys = [(1e-3, 0.01), (0.3, 0.2), (0.5, 2.0), (0.997, 0.002),
               (1.0, 0.0032), (1.003, 0.002), (1.1, 0.05), (3.0, 0.1),
               (50.0, 5.0), (1.0, 1e-3), (0.999, 0.0), (1.0, 1e-4),
               (0.9999, 0.0), (1.0, 1e-5), (0.99999, 0.0)]
        for r, y in rys:
            q = y * y + (r - 1.0) ** 2
            got = references.angular_integral(n, s, 1.0 + r * r + y * y, 2.0 * r)
            assert got == pytest.approx(_a_theta_quad(n, s, r, y),
                                        rel=max(1e-10, 1e-15 / q))


def _closed_form_margin(n, s, beta):
    return (n - beta) / (n - beta + 2.0 - 2.0 * s)


# criterion 9's (n, s) grid, then three more dimensions up to n = 20
A_GRID = ([(n, s) for n in (2, 3, 5, 10) for s in (0.25, 0.5, 0.75)]
          + [(n, s) for n in (4, 6, 20) for s in (0.3, 0.5, 0.9)])


class TestAConstant:
    def test_against_independent_oracle(self):
        # measured: 5.5e-15 (beta = 1/2) and 1.3e-16 (beta = 1) relative
        for beta in (0.5, 1.0):
            a = regularity.a_constant(3, 0.5, beta)
            assert a == pytest.approx(_a_oracle_3d_half(beta), rel=1e-13)

    def test_positive_and_finite(self):
        a = regularity.a_constant(5, 0.7, 1.5)
        assert 0.0 < a < 1e3

    def test_margin_positive_sample(self):
        # margin 1 - beta*C*A against the independent oracle for the A factor;
        # measured: 1.4e-15 (beta = 1/2) and 2.2e-16 (beta = 1)
        for beta in (0.5, 1.0):
            m = regularity.lemma_a_margin(3, 0.5, beta)
            ref = 1.0 - beta * extension.poisson_constant(3, 0.5) * (
                _a_oracle_3d_half(beta)
            )
            assert 0.0 < m < 1.0
            assert m == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("n,s", A_GRID)
    def test_margin_closed_form_at_first_refinement(self, n, s):
        # worst measured: 3.3e-16
        for beta in (0.5, n / 2.0, 0.9 * n):
            margin = regularity.lemma_a_margin(n, s, beta)
            assert margin == pytest.approx(_closed_form_margin(n, s, beta), abs=1e-14)

    @pytest.mark.parametrize("n,s,beta", [(3, 0.5, 2.7), (5, 0.25, 2.5), (2, 0.75, 1.8)])
    def test_closed_form_against_reference(self, n, s, beta):
        # the adaptive polar reference meets the closed form to 1.1e-12 at
        # (2, 0.75, 1.8) and below 1e-12 elsewhere
        references = _load_references()
        ref = references.a_constant(n, s, beta, epsrel=1e-9)
        assert 1.0 - beta * references.poisson_constant(n, s) * ref == pytest.approx(
            _closed_form_margin(n, s, beta), abs=1e-11
        )
        assert regularity.a_constant(n, s, beta) == pytest.approx(ref, rel=1e-10)
