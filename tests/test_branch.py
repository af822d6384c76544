"""Tests for the minimal-solution branch solver.

Oracles: at small lambda the minimal solution is lambda*f(0)*zeta0 + O(lambda^2)
with zeta0 = (-Delta)^{-s} 1, so both the monotone iterate and the Newton
solve can be checked against a first-order expansion.  The classical case
s = 1, n = 2, f = exp has the known extremal parameter lambda* = 2.
"""

import math
import warnings

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
        # lambda-hat = 1.07055 here; Picard alone converges at 1.067 and
        # blows up at 1.072, each after more than CERTIFY_AFTER steps
        basis = spectral.build_basis(3, 0.5, 32)
        assert _kept(basis).all()
        for lam in (0.3, 1.0):
            u = branchsolve.monotone_iterate(basis, lam, fexp)
            assert np.array_equal(u.c, _full_node_iterate(basis, lam, fexp))
        u = branchsolve.monotone_iterate(basis, 1.067, fexp)
        assert np.max(np.abs(u.c - _full_node_iterate(basis, 1.067, fexp))) < 1e-7
        with pytest.raises(branchsolve.DivergenceSignal) as got:
            branchsolve.monotone_iterate(basis, 1.5, fexp)
        with pytest.raises(branchsolve.DivergenceSignal) as want:
            _full_node_iterate(basis, 1.5, fexp)
        assert not got.value.exhausted
        assert got.value.iterations == want.value.iterations
        # at 1.072 both loops find no solution: Picard by blowing up, the
        # kept-node loop by its fold solve (test_failed_fold_solve_falls_back
        # compares the iterations)
        with pytest.raises(branchsolve.DivergenceSignal) as got:
            branchsolve.monotone_iterate(basis, 1.072, fexp)
        with pytest.raises(branchsolve.DivergenceSignal) as want:
            _full_node_iterate(basis, 1.072, fexp)
        assert not got.value.exhausted and not want.value.exhausted
        assert got.value.fold_lambda is not None

    def test_failed_fold_solve_falls_back_to_picard(self, fexp, monkeypatch):
        # without a fold, Picard goes on and blows up where the full-node loop does
        monkeypatch.setattr(branchsolve, "_fold_solve", lambda *args: None)
        basis = spectral.build_basis(3, 0.5, 32)
        with pytest.raises(branchsolve.DivergenceSignal) as got:
            branchsolve.monotone_iterate(basis, 1.072, fexp)
        with pytest.raises(branchsolve.DivergenceSignal) as want:
            _full_node_iterate(basis, 1.072, fexp)
        assert not got.value.exhausted and got.value.fold_lambda is None
        assert got.value.iterations == want.value.iterations
        assert want.value.iterations > branchsolve.CERTIFY_AFTER

    @pytest.mark.parametrize("x", [-1e-3, -1e-6, 1e-8, 1e-6, 1e-4, 1e-2])
    def test_fold_decision_agrees_with_picard(self, fexp, x):
        # lambda = lambda_F (1 + x) around the refined fold of the walked
        # branch; Picard alone needs up to 38566 steps to decide at x = 1e-8
        basis = spectral.build_basis(3, 0.5, 32)
        lam_fold = _walked_fold(basis, fexp)
        lam = lam_fold * (1.0 + x)
        try:
            _full_node_iterate(basis, lam, fexp, max_iter=50000)
            want = "converged"
        except branchsolve.DivergenceSignal as exc:
            assert not exc.exhausted
            want = "no solution"
        try:
            branchsolve.monotone_iterate(basis, lam, fexp)
            got = "converged"
        except branchsolve.DivergenceSignal as exc:
            got = "no solution"
            if exc.fold_lambda is not None:
                assert lam > exc.fold_lambda * (1.0 + branchsolve.FOLD_MARGIN)
                assert exc.fold_lambda == pytest.approx(lam_fold, rel=1e-10)
        assert got == want

    def test_fold_solve_decides_above_the_classical_fold(self, fexp):
        # s = 1, n = 2: lambda* = 2; Picard alone blows up at step 200 here,
        # after a failed certificate, and at 2.01 at step 59, before one
        basis = spectral.build_basis(2, 1.0, 64)
        with pytest.raises(branchsolve.DivergenceSignal, match="lies above the fold") as got:
            branchsolve.monotone_iterate(basis, 2.000875, fexp)
        assert not got.value.exhausted
        assert got.value.iterations == branchsolve.CERTIFY_AFTER
        fold = got.value.fold_lambda
        assert fold == pytest.approx(_walked_fold(basis, fexp), rel=1e-9)
        assert fold == pytest.approx(2.0, rel=1e-9)
        with pytest.raises(branchsolve.DivergenceSignal, match="blew up at iteration 59"):
            branchsolve.monotone_iterate(basis, 2.01, fexp)

    def test_certifies_a_step_picard_cannot_finish(self, fexp):
        # Picard alone runs out of its 4000 steps at both; the certified point
        # passes Picard's node test and is stable.  The second is the last
        # step of criterion 8's K = 512 bisection, 3.3e-12 above the fold
        basis = spectral.build_basis(20, 0.5, 512)
        for lam in (3.2777160763740545, 3.277716310281995):
            u = branchsolve.monotone_iterate(basis, lam, fexp)
            step = lam * basis.mu ** (-basis.s) * _full_projection(basis, u.c, fexp)
            moved = _full_nodes(basis, step) - _full_nodes(basis, u.c)
            assert np.max(np.abs(moved)) < branchsolve.MONOTONE_TOL
            assert branchsolve.stability_eigenvalue(u, lam, fexp) > 0.0

    def test_certificate_stops_at_the_rounding_floor(self, fexp, monkeypatch):
        # the iterate after CERTIFY_AFTER Picard steps 1e-4 below the K = 128
        # fold; with tolerance 0 the certificate built F five times, going on
        # below the residual's rounding level, and nu1 once more
        basis = spectral.build_basis(20, 0.5, 128)
        lam = 3.2775512695312505
        term = branchsolve._NonlinearTerm(basis, fexp)
        u_nodes = np.zeros_like(term.w)
        for _ in range(branchsolve.CERTIFY_AFTER):
            c, u_nodes = term.picard(lam, u_nodes)
        builds = []
        derivative = branchsolve._NonlinearTerm.derivative

        def counted(term, u_nodes):
            builds.append(1)
            return derivative(term, u_nodes)

        monkeypatch.setattr(branchsolve._NonlinearTerm, "derivative", counted)
        u = branchsolve._newton_certificate(basis, term, lam, c, branchsolve.MONOTONE_TOL)
        assert u is not None
        assert len(builds) <= 3

    def test_bisection_decisions_at_n20(self, fexp):
        # 24 halvings on [0.1, 8]: b blew up, c converged (by Picard or by a
        # certificate), f lies above the fold its fold solve found.  The
        # closest step lies 1.9e-8 below that fold, 19 FOLD_MARGINs away
        basis = spectral.build_basis(20, 0.5, 128)
        lo, hi, mids, kinds, folds = 0.1, 8.0, [], [], []
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            try:
                branchsolve.monotone_iterate(basis, mid, fexp)
                lo = mid
                kinds.append("c")
            except branchsolve.DivergenceSignal as exc:
                hi = mid
                assert not exc.exhausted
                kinds.append("b" if exc.fold_lambda is None else "f")
                if exc.fold_lambda is not None:
                    folds.append(exc.fold_lambda)
        assert "".join(kinds) == "bccbbccbcccccfcfcfcccfff"
        assert (lo, hi) == (3.277878999710083, 3.2778794705867766)
        fold = np.median(folds)
        assert max(folds) - min(folds) <= 1e-12 * fold
        assert min(abs(m - fold) for m in mids) > 10 * branchsolve.FOLD_MARGIN * fold

    def test_exhausted_budget_is_named(self, fexp):
        basis = spectral.build_basis(3, 0.5, 32)
        with pytest.raises(branchsolve.DivergenceSignal, match="ran out of its 50") as got:
            branchsolve.monotone_iterate(basis, 1.067, fexp, max_iter=50)
        assert got.value.exhausted and got.value.iterations == 50
        with pytest.raises(branchsolve.DivergenceSignal, match="blew up at iteration 7"):
            branchsolve.monotone_iterate(basis, 1.5, fexp)

    def test_keeps_the_cut_nodes_share_at_n20(self, fexp):
        # 74 of the 256 nodes are cut; without their f(0) share of the
        # projection the full-node residual norm is 3.2e-8
        basis = spectral.build_basis(20, 0.5, 64)
        u = branchsolve.monotone_iterate(basis, 3.0, fexp)
        res = basis.mu ** basis.s * u.c - 3.0 * _full_projection(basis, u.c, fexp)
        assert np.linalg.norm(res) <= 1e-8


def _walked_fold(basis, f):
    """lambda at the refined fold of the branch walked over estimate_lambda_star's grid."""
    br = branchsolve.continue_branch(basis, np.linspace(0.0, 12.0, 49)[1:], f)
    return br.lambda_max


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


def _complex_step_jacobian(basis, c, lam, f):
    """diag(mu^s) - lam dP/dc for the P of `_full_projection`, by complex steps.

    Column k is Im P(c + i h e_k) / h: the cut nodes keep u = 0 and the
    synthesis is filtered by sigma_k = exp(-36 (k/K)^8).
    """
    h = 1e-30
    sigma = np.exp(-36.0 * (np.arange(1, basis.K + 1) / basis.K) ** 8)
    cols = c[:, None] + 1j * h * np.eye(basis.K)
    nodes = np.where(_kept(basis)[:, None], basis.phi_table.T @ (sigma[:, None] * cols), 0.0)
    dP = (basis.phi_table @ (basis.quad_weights[:, None] * f.eval(nodes))).imag / h
    return np.diag(basis.mu ** basis.s) - lam * dP


def _full_node_iterate(basis, lam, f, max_iter=4000):
    """The monotone iteration over every node; returns the coefficients.

    Its iterate overflows where Picard blows up; that shows in the amplitude.
    """
    c = np.zeros(basis.K)
    u_nodes = _full_nodes(basis, c)
    for m in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            c_new = lam * basis.mu ** (-basis.s) * _full_projection(basis, c, f)
            new_nodes = _full_nodes(basis, c_new)
        amp = float(np.max(np.abs(new_nodes)))
        if not amp <= branchsolve.BLOWUP_THRESHOLD:
            raise branchsolve.DivergenceSignal(lam, m, amp, exhausted=False)
        diff = float(np.max(np.abs(new_nodes - u_nodes)))
        c, u_nodes = c_new, new_nodes
        if diff < branchsolve.MONOTONE_TOL:
            return c
    raise branchsolve.DivergenceSignal(
        lam, max_iter, float(np.max(np.abs(u_nodes))), exhausted=True
    )


def _rel_max(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestGram:
    """F = Phi diag(g) Phi^T built as symmetric products, against the direct product."""

    def test_random_sign_weights(self, basis):
        g = np.random.default_rng(3).standard_normal(basis.phi_table.shape[1])
        F = branchsolve._gram(basis.phi_table, g)
        assert np.array_equal(F, F.T)
        assert _rel_max(F, (basis.phi_table * g) @ basis.phi_table.T) <= 1e-13

    def test_derivative_negative_where_f_decreases(self):
        # f = 1 + u^2 is admissible (nondecreasing on [0, 100]) but f' < 0 at
        # u < 0, where a plain square root of the weights would give NaN
        f = branchsolve.Nonlinearity("quad", lambda u: 1.0 + u ** 2, lambda u: 2.0 * u)
        basis = spectral.build_basis(6, 0.7, 64)
        term = branchsolve._NonlinearTerm(basis, f)
        u_nodes = np.random.default_rng(4).uniform(-1.0, 1.0, basis.quad_nodes.size)[term.j0:]
        assert term.j0 > 0 and np.any(u_nodes < 0)
        F = term.derivative(u_nodes)
        g = term.w * f.deriv(u_nodes)
        assert np.array_equal(F, F.T)
        assert _rel_max(F, (term.phi * g) @ term.phi.T) <= 1e-13


class TestCurvature:
    """W f'' on the kept nodes, against f'' in closed form."""

    @pytest.mark.parametrize("f, f2", [
        (branchsolve.exponential(), np.exp),
        (branchsolve.power(2.5), lambda u: 2.5 * 1.5 * (1.0 + u) ** 0.5),
        (branchsolve.power(3.0), lambda u: 6.0 * (1.0 + u)),
    ], ids=["exp", "power:2.5", "power:3"])
    def test_matches_closed_forms(self, f, f2):
        # a central difference of f' is off by 5.8e-9 (exp) and 3.2e-11 (power:2.5)
        term = branchsolve._NonlinearTerm(spectral.build_basis(20, 0.5, 128), f)
        assert term.j0 > 0
        u = np.linspace(0.0, 30.0, term.w.size)
        want = term.w * f2(u)
        assert np.max(np.abs(term.curvature(u) - want) / want) <= 1e-14


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

    def test_amplitude_is_the_filtered_value_at_the_origin(self):
        basis = spectral.build_basis(6, 0.5, 256)
        u = spectral.RadialCoeffs(basis, np.random.default_rng(3).normal(size=basis.K))
        terms = spectral.filtered(u).c * basis.phi_matrix(np.array([0.0]))[:, 0]
        expected = spectral.evaluate(spectral.filtered(u), 0.0)
        assert abs(branchsolve.amplitude(u) - expected) <= 1e-14 * np.sum(np.abs(terms))

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

    def test_failed_solve_stops_at_its_last_residual_check(self, monkeypatch):
        # f turns inf from its second call in the solve on: the first check
        # takes one step with one F build, and the second, non-finite, check
        # ends the solve without another F build or step
        counts = {"eval": 0, "deriv": 0, "step": 0}
        first_inf = [math.inf]

        def counted(kind, g):
            def h(*args, **kwargs):
                counts[kind] += 1
                return g(*args, **kwargs)
            return h

        def exp_then_inf(u):
            return np.exp(u) if counts["eval"] < first_inf[0] else np.full_like(u, np.inf)

        f = branchsolve.Nonlinearity("exp", counted("eval", exp_then_inf),
                                     counted("deriv", np.exp))
        monkeypatch.setattr(branchsolve.linalg, "lu_solve",
                            counted("step", branchsolve.linalg.lu_solve))
        counts.update(eval=0, deriv=0, step=0)
        first_inf[0] = 2
        with pytest.raises(branchsolve.NewtonError,
                           match=r"did not converge at t=8\.0 \(residual (inf|nan)\)"):
            branchsolve.newton_solve(spectral.build_basis(3, 0.5, 64), 8.0, f)
        assert counts["eval"] < branchsolve.NEWTON_MAX_STEPS
        assert counts["step"] == counts["eval"] - 1
        assert counts["deriv"] < counts["eval"]

    def test_walk_reuses_the_factorization(self, fexp, monkeypatch):
        # s = 1, n = 2 (Liouville-Bratu): lambda(t) = 8 (e^(-t/2) - e^(-t))
        # exactly; the walks on t <= 4 stay within 1.2e-9 (K = 64) and
        # 3.4e-11 (K = 128) of it, with far fewer F builds than checks.
        # Every Newton solve builds F from the nonlinear term, at least once
        # per walked point; nu1's build in stability_eigenvalue is not counted
        builds, in_stability = [], []
        derivative = branchsolve._NonlinearTerm.derivative
        stability = branchsolve.stability_eigenvalue

        def counted(term, u_nodes):
            if not in_stability:
                builds.append(1)
            return derivative(term, u_nodes)

        def stability_counted(*args):
            in_stability.append(1)
            try:
                return stability(*args)
            finally:
                in_stability.pop()

        monkeypatch.setattr(branchsolve._NonlinearTerm, "derivative", counted)
        monkeypatch.setattr(branchsolve, "stability_eigenvalue", stability_counted)
        t_grid = np.linspace(0.0, 4.0, 17)[1:]
        for K, rel in ((64, 5e-9), (128, 1e-10)):
            builds.clear()
            br = branchsolve.continue_branch(spectral.build_basis(2, 1.0, K), t_grid, fexp)
            assert br.stop == "grid end"
            assert len(t_grid) <= len(builds) <= 2 * len(t_grid)
            for p in br.points:
                assert p.lam == pytest.approx(8.0 * (math.exp(-p.t / 2) - math.exp(-p.t)),
                                              rel=rel)

    def test_chord_keeps_a_factorization_a_fresh_one_cannot_beat(self, fexp, monkeypatch):
        # the J block shifted by 10 lambda I: every step, on a fresh LU or an
        # old one, contracts the norm at about the same ratio in (1/2, 1), so
        # a refactorization at each check above CHORD_RATIO buys nothing
        basis = spectral.build_basis(3, 0.5, 16)
        exact = branchsolve.newton_solve(basis, 1.0, fexp)
        derivative = branchsolve._NonlinearTerm.derivative
        monkeypatch.setattr(branchsolve._NonlinearTerm, "derivative",
                            lambda term, u_nodes: derivative(term, u_nodes) * term.sigma
                            - 10.0 * np.eye(basis.K))
        factor, solve = branchsolve.linalg.lu_factor, branchsolve.linalg.lu_solve
        factors, norms = [], []

        def counted_factor(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        def counted_solve(lu, rhs, **kwargs):
            norms.append(float(np.linalg.norm(rhs)))
            return solve(lu, rhs, **kwargs)

        monkeypatch.setattr(branchsolve.linalg, "lu_factor", counted_factor)
        monkeypatch.setattr(branchsolve.linalg, "lu_solve", counted_solve)
        p = branchsolve.newton_solve(basis, 1.0, fexp)
        ratios = np.array(norms[1:]) / np.array(norms[:-1])
        assert np.all((ratios[2:] > 0.5) & (ratios[2:] < 1.0))
        assert len(norms) >= 40
        assert len(factors) <= len(norms) // 4
        assert p.lam == pytest.approx(exact.lam, rel=1e-9)

    def test_singular_jacobian_is_named(self, monkeypatch):
        # F = diag(mu^s) / lam makes the J block exactly zero at lam = 2
        basis = spectral.build_basis(3, 0.5, 16)
        lam = 2.0
        monkeypatch.setattr(branchsolve._NonlinearTerm, "derivative",
                            lambda term, u_nodes: np.diag(basis.mu ** basis.s) / lam)
        guess = (spectral.RadialCoeffs(basis, np.zeros(basis.K)), lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(branchsolve.NewtonError,
                               match=r"^singular augmented Jacobian at t=1\.0$"):
                branchsolve.newton_solve(basis, 1.0, branchsolve.exponential(), guess=guess)


class TestStability:
    def test_zero_solution_zero_lambda(self, basis, fexp):
        zero = spectral.RadialCoeffs(basis, np.zeros(basis.K))
        nu = branchsolve.stability_eigenvalue(zero, 0.0, fexp)
        assert nu == pytest.approx(basis.mu[0] ** basis.s, rel=1e-12)

    def test_zero_solution_shifts_linearly(self, basis, fexp):
        # f'(0) = 1 for exp and no node is cut, so the operator is
        # diag(mu^s - lam sigma); its bottom eigenvalue at u = 0 is
        # mu_1^s - lam sigma_1, sigma_1 = exp(-36 / K^8)
        lam = 0.7
        zero = spectral.RadialCoeffs(basis, np.zeros(basis.K))
        nu = branchsolve.stability_eigenvalue(zero, lam, fexp)
        sigma1 = math.exp(-36.0 / basis.K ** 8)
        assert nu == pytest.approx(basis.mu[0] ** basis.s - lam * sigma1, rel=1e-10)

    def test_is_the_bottom_eigenvalue_of_the_residual_jacobian(self, fexp):
        # 74 of the 256 nodes are cut; near lambda-hat = 3.27848 the form
        # diag(mu^s) - lam Phi W f'(u) Phi^T over every node reads 1.285
        basis = spectral.build_basis(20, 0.5, 64)
        lam = 3.2784
        u = branchsolve.monotone_iterate(basis, lam, fexp)
        want = np.min(np.linalg.eigvals(_complex_step_jacobian(basis, u.c, lam, fexp)).real)
        got = branchsolve.stability_eigenvalue(u, lam, fexp)
        assert got == pytest.approx(want, rel=1e-9)

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


class TestFoldRefinement:
    def test_classical_fold(self, fexp, monkeypatch):
        # s = 1, n = 2, f = exp (Liouville-Bratu): lambda(t) = 8 (e^(-t/2) - e^(-t))
        # has its maximum lambda* = 2 at u(0) = t = ln 4; the walk's grid
        # spacing 0.25 brackets it by [1.25, 1.75]
        basis = spectral.build_basis(2, 1.0, 128)
        t_grid = np.linspace(0.0, 3.0, 13)[1:]
        calls = []
        solve = branchsolve.newton_solve

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(branchsolve, "newton_solve", counted)
        br = branchsolve.continue_branch(basis, t_grid, fexp)
        assert br.stop == "grid end"
        fold = br.points[br.fold_index]
        assert type(fold.t) is float
        assert abs(fold.t - math.log(4.0)) <= 3e-7
        assert abs(fold.nu1) <= branchsolve.FOLD_NU1_TOL
        assert fold.lam == pytest.approx(2.0, rel=1e-10)
        # one solve per grid point for the walk; the fold solve's point is
        # inserted as it is, with its own nu1 and residual
        assert len(calls) == len(t_grid)
        assert fold.t not in calls
        assert fold.residual <= branchsolve.NEWTON_TOL

    def test_fold_at_first_walked_point(self, fexp):
        # both walked points lie past the fold at t = ln 4: lambda decreases
        # from the first on, and the fold solve from there still finds it
        basis = spectral.build_basis(2, 1.0, 64)
        br = branchsolve.continue_branch(basis, [2.0, 3.0], fexp)
        assert br.fold_index == 0
        assert [p.t for p in br.points[1:]] == [2.0, 3.0]
        fold = br.points[0]
        assert abs(fold.t - math.log(4.0)) <= 1e-9
        assert fold.lam == pytest.approx(2.0, rel=1e-9)
        assert abs(fold.nu1) <= branchsolve.FOLD_NU1_TOL

    def test_flat_fold(self, fexp):
        # at (5, 0.3) lambda(t) is so flat around the fold that its largest
        # value is Newton's stopping error; nu1 still crosses zero cleanly
        basis = spectral.build_basis(5, 0.3, 128)
        t_grid = np.linspace(0.0, 2.5, 11)[1:]
        br = branchsolve.continue_branch(basis, t_grid, fexp)
        fold = br.points[br.fold_index]
        assert fold.t not in t_grid
        assert br.fold_index == int(np.argmax([p.lam for p in br.points]))
        assert abs(fold.nu1) <= 1e-7

    def test_failed_fold_refinement_is_named(self, fexp, monkeypatch):
        # nu1 = 1 everywhere: the fold solve accepts no point, and the
        # walked branch comes back with the error
        monkeypatch.setattr(branchsolve, "stability_eigenvalue", lambda u, lam, f: 1.0)
        basis = spectral.build_basis(2, 1.0, 32)
        t_grid = np.linspace(0.0, 3.0, 13)[1:]
        with pytest.raises(branchsolve.BranchError) as err:
            branchsolve.continue_branch(basis, t_grid, fexp)
        assert str(err.value) == (
            "fold refinement failed: the fold solve from t=1.5 found no fold"
        )
        assert [p.t for p in err.value.branch.points] == list(t_grid)


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
                raise branchsolve.DivergenceSignal(lam, 1, float("inf"), exhausted=False)

        monkeypatch.setattr(branchsolve, "monotone_iterate", threshold)
        lo, hi = branchsolve.picard_bisect(None, None, 0.1, 8.0, width=1e-11)
        # 7.9 * 2^-39 > 1e-11 >= 7.9 * 2^-40
        assert len(calls) == 40
        assert lo < 3.25 <= hi
        assert hi - lo <= 1e-11
        assert branchsolve.picard_bisect(None, None, 1.0, 1.5, width=0.5) == (1.0, 1.5)

    def test_skips_steps_above_the_solved_fold(self, monkeypatch):
        # a stand-in whose every step above lambda = 3.25 lies above the fold
        # it solves there: after the first such step, midpoints more than
        # FOLD_MARGIN above that fold are upper ends without an iteration
        fold = 3.25
        brackets = {}
        for fold_lambda in (None, fold):
            calls = []

            def threshold(basis, lam, f, max_iter=4000):
                calls.append(lam)
                if lam >= fold:
                    raise branchsolve.DivergenceSignal(
                        lam, branchsolve.CERTIFY_AFTER, 1.0, exhausted=False,
                        fold_lambda=fold_lambda)

            monkeypatch.setattr(branchsolve, "monotone_iterate", threshold)
            brackets[fold_lambda] = branchsolve.picard_bisect(None, None, 0.1, 8.0, width=1e-11)
            above = [lam for lam in calls if lam > fold * (1.0 + branchsolve.FOLD_MARGIN)]
            if fold_lambda is None:
                assert len(calls) == 40 and len(above) > 1
            else:
                assert len(above) == 1 and len(calls) < 40
        assert brackets[None] == brackets[fold]

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_rejects_nonpositive_width(self, monkeypatch, width):
        # with width 0 the midpoint of two adjacent floats rounds back onto
        # hi, and the halving would never end
        calls = []

        def threshold(basis, lam, f, max_iter=4000):
            calls.append(lam)
            assert len(calls) < 200, "bisection does not stop"
            if lam >= 3.25:
                raise branchsolve.DivergenceSignal(lam, 1, float("inf"), exhausted=False)

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
