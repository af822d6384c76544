"""Tests for the minimal-solution branch solver.

Oracles: at small lambda the minimal solution is lambda*f(0)*zeta0 + O(lambda^2)
with zeta0 = (-Delta)^{-s} 1, so both the monotone iterate and the Newton
solve can be checked against a first-order expansion.  The classical case
s = 1, n = 2, f = exp has the known extremal parameter lambda* = 2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracgelfand import branchsolve, spectral


@pytest.fixture(scope="module")
def basis():
    return spectral.build_basis(3, 0.5, 24)


@pytest.fixture(scope="module")
def fexp():
    return branchsolve.exponential()


class TestNonlinearity:
    def test_exponential(self, fexp):
        assert fexp.eval(np.array(0.0)) == 1.0
        assert fexp.deriv(np.array(2.0)) == pytest.approx(math.exp(2.0))

    def test_power(self):
        f = branchsolve.power(3.0)
        assert f.eval(np.array(1.0)) == pytest.approx(8.0)
        assert f.deriv(np.array(1.0)) == pytest.approx(12.0)

    def test_power_requires_superlinear(self):
        with pytest.raises(ValueError):
            branchsolve.power(1.0)

    def test_rejects_f0_nonpositive(self):
        with pytest.raises(ValueError, match="f\\(0\\)"):
            branchsolve.Nonlinearity("bad", lambda u: u, lambda u: np.ones_like(u))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            branchsolve.Nonlinearity(
                "bad", lambda u: np.exp(-u), lambda u: -np.exp(-u)
            )


class TestResidual:
    def test_zero_solution_zero_lambda(self, basis, fexp):
        zero = spectral.RadialCoeffs(basis, np.zeros(basis.K))
        r = branchsolve.residual(zero, 0.0, fexp)
        assert np.all(r.c == 0.0)

    def test_eigenfunction_linear_part(self, basis, fexp):
        # for u = phi_1 the linear term is mu_1^s in the first slot
        u = spectral.unit(basis, 1)
        r = branchsolve.residual(u, 0.0, fexp)
        assert r.c[0] == pytest.approx(basis.mu[0] ** basis.s)
        assert np.max(np.abs(r.c[1:])) < 1e-12

    def test_equals_full_node_residual_with_cut_nodes(self, fexp):
        basis = spectral.build_basis(6, 0.7, 128)
        assert np.count_nonzero(~_kept(basis)) == 18
        u = spectral.analyze(basis, lambda rho: 2.0 * (1.0 - rho ** 2))
        want = basis.mu ** basis.s * u.c - 1.5 * _full_projection(basis, u.c, fexp)
        got = branchsolve.residual(u, 1.5, fexp).c
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_vanishes_at_solution(self, basis, fexp):
        u = branchsolve.monotone_iterate(basis, 1.0, fexp, tol=1e-12)
        r = branchsolve.residual(u, 1.0, fexp)
        assert np.max(np.abs(r.c)) < 1e-9


class TestMonotoneIteration:
    def test_lambda_zero_gives_zero(self, basis, fexp):
        u = branchsolve.monotone_iterate(basis, 0.0, fexp)
        assert np.all(u.c == 0.0)

    def test_small_lambda_first_order(self, basis, fexp):
        # u = lam * zeta0 + O(lam^2) for f = exp
        lam = 1e-4
        u = branchsolve.monotone_iterate(basis, lam, fexp, tol=1e-14)
        zeta0 = spectral.inv_frac_laplacian(
            spectral.analyze(basis, lambda rho: np.ones_like(rho))
        )
        err = np.max(np.abs(u.c - lam * zeta0.c))
        assert err < 10.0 * lam ** 2

    def test_iterates_monotone_in_lambda(self, basis, fexp):
        u_lo = branchsolve.monotone_iterate(basis, 0.3, fexp)
        u_hi = branchsolve.monotone_iterate(basis, 0.6, fexp)
        rho = np.linspace(0.0, 0.95, 40)
        assert np.all(
            spectral.evaluate(u_hi, rho) >= spectral.evaluate(u_lo, rho) - 1e-8
        )

    def test_divergence_above_fold(self, basis, fexp):
        br = branchsolve.continue_branch(
            basis, np.linspace(0.25, 10.0, 40), fexp
        )
        with pytest.raises(branchsolve.DivergenceSignal):
            branchsolve.monotone_iterate(basis, 2.0 * br.lambda_max, fexp)

    def test_negative_lambda_rejected(self, basis, fexp):
        with pytest.raises(ValueError):
            branchsolve.monotone_iterate(basis, -1.0, fexp)

    @pytest.mark.parametrize("K", [16, 128, 512])
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 10, 20])
    def test_weight_cut_is_a_prefix(self, n, K, fexp):
        # the solvers step on the nodes from the first kept one on
        basis = spectral.build_basis(n, 0.5, K)
        j0 = branchsolve._NonlinearTerm(basis, fexp).j0
        keep = _kept(basis)
        assert not keep[:j0].any() and keep[j0:].all()

    def test_equals_full_node_loop_without_cut_nodes(self, fexp):
        basis = spectral.build_basis(3, 0.5, 32)
        assert _kept(basis).all()
        for lam in (0.3, 1.0):
            u = branchsolve.monotone_iterate(basis, lam, fexp)
            assert np.array_equal(u.c, _full_node_iterate(basis, lam, fexp))
        with pytest.raises(branchsolve.DivergenceSignal) as got:
            branchsolve.monotone_iterate(basis, 1.5, fexp)
        with pytest.raises(branchsolve.DivergenceSignal) as want:
            _full_node_iterate(basis, 1.5, fexp)
        assert got.value.iterations == want.value.iterations

    def test_keeps_the_cut_nodes_share_at_n20(self, fexp):
        # 74 of the 256 nodes are cut; without their f(0) share of the
        # projection the full-node residual norm is 3.2e-8
        basis = spectral.build_basis(20, 0.5, 64)
        u = branchsolve.monotone_iterate(basis, 3.0, fexp)
        res = basis.mu ** basis.s * u.c - 3.0 * _full_projection(basis, u.c, fexp)
        assert np.linalg.norm(res) <= 1e-8


def _kept(basis):
    """The weight cut written out: nodes whose weight exceeds WEIGHT_CUT of the largest."""
    w = basis.quad_weights
    return w > branchsolve.WEIGHT_CUT * w.max()


def _full_nodes(basis, c):
    """Filtered synthesis at every node, zero on the cut nodes."""
    vals = spectral.filtered(spectral.RadialCoeffs(basis, c)).c @ basis.phi_table
    return np.where(_kept(basis), vals, 0.0)


def _full_projection(basis, c, f):
    """P[f(u)] over every node: Phi W f(u), f(0) on the cut nodes."""
    return basis.phi_table @ (basis.quad_weights * f.eval(_full_nodes(basis, c)))


def _full_node_iterate(basis, lam, f):
    """The monotone iteration over every node; returns the coefficients."""
    c = np.zeros(basis.K)
    u_nodes = _full_nodes(basis, c)
    for m in range(1, 4001):
        c_new = lam * basis.mu ** (-basis.s) * _full_projection(basis, c, f)
        new_nodes = _full_nodes(basis, c_new)
        amp = float(np.max(np.abs(new_nodes)))
        if not amp <= branchsolve.BLOWUP_THRESHOLD:
            raise branchsolve.DivergenceSignal(lam, m, amp)
        diff = float(np.max(np.abs(new_nodes - u_nodes)))
        c, u_nodes = c_new, new_nodes
        if diff < branchsolve.MONOTONE_TOL:
            return c
    raise branchsolve.DivergenceSignal(lam, 4000, float(np.max(np.abs(u_nodes))))


class TestNewton:
    def test_zero_amplitude(self, basis, fexp):
        p = branchsolve.newton_solve(basis, 0.0, fexp)
        assert p.lam == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(p.u.c)) < 1e-12

    def test_small_amplitude_lambda_oracle(self, basis, fexp):
        # amplitude(u) = t forces lam ~ t / zeta0(0) to first order
        t = 1e-4
        p = branchsolve.newton_solve(basis, t, fexp)
        zeta0 = spectral.inv_frac_laplacian(
            spectral.analyze(basis, lambda rho: np.ones_like(rho))
        )
        z0 = branchsolve.amplitude(zeta0)
        assert p.lam == pytest.approx(t / z0, rel=1e-3)

    def test_amplitude_constraint_holds(self, basis, fexp):
        p = branchsolve.newton_solve(basis, 1.7, fexp)
        assert branchsolve.amplitude(p.u) == pytest.approx(1.7, abs=1e-9)
        assert p.residual < branchsolve.NEWTON_TOL

    def test_agrees_with_monotone_iteration(self, basis, fexp):
        u_mono = branchsolve.monotone_iterate(basis, 0.8, fexp, tol=1e-13)
        t = branchsolve.amplitude(u_mono)
        p = branchsolve.newton_solve(basis, t, fexp)
        assert p.lam == pytest.approx(0.8, rel=1e-6)
        assert np.max(np.abs(p.u.c - u_mono.c)) < 1e-6

    def test_negative_amplitude_rejected(self, basis, fexp):
        with pytest.raises(ValueError):
            branchsolve.newton_solve(basis, -0.1, fexp)


class TestStability:
    def test_zero_solution_zero_lambda(self, basis, fexp):
        zero = spectral.RadialCoeffs(basis, np.zeros(basis.K))
        nu = branchsolve.stability_eigenvalue(zero, 0.0, fexp)
        assert nu == pytest.approx(basis.mu[0] ** basis.s, rel=1e-12)

    def test_zero_solution_shifts_linearly(self, basis, fexp):
        # f'(0) = 1 for exp, so the operator is diag(mu^s) - lam * (projection);
        # its bottom eigenvalue at u = 0 is mu_1^s - lam
        lam = 0.7
        zero = spectral.RadialCoeffs(basis, np.zeros(basis.K))
        nu = branchsolve.stability_eigenvalue(zero, lam, fexp)
        assert nu == pytest.approx(basis.mu[0] ** basis.s - lam, rel=1e-10)

    def test_minimal_branch_is_stable(self, basis, fexp):
        for lam in (0.2, 0.6, 1.0):
            u = branchsolve.monotone_iterate(basis, lam, fexp)
            assert branchsolve.stability_eigenvalue(u, lam, fexp) > 0.0


@pytest.fixture(scope="module")
def branch(basis, fexp):
    return branchsolve.continue_branch(basis, np.linspace(0.25, 10.0, 40), fexp)


class TestBranch:
    def test_has_fold(self, branch):
        assert branch.fold_index is not None
        assert 0 < branch.fold_index < len(branch.points) - 1

    def test_lambda_max_at_fold(self, branch):
        lams = [p.lam for p in branch.points]
        assert branch.points[branch.fold_index].lam == max(lams)

    def test_fold_eigenvalue_crossing(self, branch):
        # nu1 > 0 before the fold, < 0 after, ~0 at the refined fold point
        i = branch.fold_index
        assert branch.points[0].nu1 > 0
        assert branch.points[-1].nu1 < 0
        assert abs(branch.points[i].nu1) < 1e-3

    def test_amplitudes_increasing(self, branch):
        ts = [p.t for p in branch.points]
        assert np.all(np.diff(ts) > 0)

    def test_residuals_converged(self, branch):
        assert max(p.residual for p in branch.points) < branchsolve.NEWTON_TOL

    def test_nonincreasing_grid_rejected(self, basis, fexp):
        with pytest.raises(ValueError):
            branchsolve.continue_branch(basis, [1.0, 1.0, 2.0], fexp)

    def test_extremal_solution(self, branch):
        p = branchsolve.extremal_solution(branch)
        assert p.lam == branch.lambda_max


class TestLambdaStar:
    def test_classical_oracle(self):
        # s = 1, n = 2, f = exp: lambda* = 2 exactly
        b = spectral.build_basis(2, 1.0, 48)
        f = branchsolve.exponential()
        lo, hi, _ = branchsolve.estimate_lambda_star(b, f, t_max=10.0, t_steps=40)
        assert lo <= 2.0 * 1.01 and hi >= 2.0 * 0.99
        assert 0.5 * (lo + hi) == pytest.approx(2.0, rel=5e-3)

    def test_fractional_bracket_consistency(self, basis, fexp):
        lo, hi, br = branchsolve.estimate_lambda_star(
            basis, fexp, t_max=10.0, t_steps=40
        )
        assert lo < hi
        assert hi - lo < 2e-3 * br.lambda_max + 1e-12
        assert lo * 0.999 <= br.lambda_max <= hi * 1.001

    def test_upper_bracket_growth_is_bounded(self, basis, fexp, monkeypatch):
        # an iteration that never diverges must end the search with an error
        calls = []

        def always_converges(basis, lam, f, max_iter=4000):
            calls.append(lam)
            assert len(calls) < 200, "upper bracket search does not stop"
            return spectral.RadialCoeffs(basis, np.zeros(basis.K))

        monkeypatch.setattr(branchsolve, "monotone_iterate", always_converges)
        with pytest.raises(RuntimeError, match="converges up to"):
            branchsolve.estimate_lambda_star(basis, fexp, t_max=10.0, t_steps=40)


class TestPicardBisect:
    def test_halves_to_the_width(self, monkeypatch):
        # a stand-in iteration that converges exactly below lambda = 3.25
        calls = []

        def threshold(basis, lam, f, max_iter=4000):
            calls.append(lam)
            if lam >= 3.25:
                raise branchsolve.DivergenceSignal(lam, 1, float("inf"))

        monkeypatch.setattr(branchsolve, "monotone_iterate", threshold)
        lo, hi = branchsolve.picard_bisect(None, None, 0.1, 8.0, width=1e-11)
        # 7.9 * 2^-39 > 1e-11 >= 7.9 * 2^-40
        assert len(calls) == 40
        assert lo < 3.25 <= hi
        assert hi - lo <= 1e-11
        assert branchsolve.picard_bisect(None, None, 1.0, 1.5, width=0.5) == (1.0, 1.5)

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_rejects_nonpositive_width(self, monkeypatch, width):
        # with width 0 the midpoint of two adjacent floats rounds back onto
        # hi, and the halving would never end
        calls = []

        def threshold(basis, lam, f, max_iter=4000):
            calls.append(lam)
            assert len(calls) < 200, "bisection does not stop"
            if lam >= 3.25:
                raise branchsolve.DivergenceSignal(lam, 1, float("inf"))

        monkeypatch.setattr(branchsolve, "monotone_iterate", threshold)
        with pytest.raises(ValueError, match="width must be > 0"):
            branchsolve.picard_bisect(None, None, 0.1, 8.0, width=width)
        assert calls == []


@settings(max_examples=12, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=0.9))
def test_monotone_solution_positive(lam):
    basis = spectral.build_basis(3, 0.5, 16)
    f = branchsolve.exponential()
    u = branchsolve.monotone_iterate(basis, lam, f)
    rho = np.linspace(0.0, 0.9, 30)
    assert np.all(spectral.evaluate(u, rho) > -1e-10)
