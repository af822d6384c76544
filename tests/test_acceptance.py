"""Acceptance gate: fifteen quantitative criteria, one summary line each.

Each test computes its criterion, records a PASS/FAIL line (echoed in the
terminal summary by conftest.py), and asserts the stated tolerance.  Expensive
objects (the K=128 reference branch, the high-dimension solves) are shared
through module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from fracgelfand import branchsolve, checks, cli, config, extension, regularity, spectral

RESULTS = {}


def _report(num, desc, ok, detail, elapsed, limit):
    in_time = elapsed <= limit
    line = f"{detail} [{elapsed:.1f}s / limit {limit:.0f}s]"
    RESULTS[num] = (desc, bool(ok) and in_time, line)
    print(f"criterion {num:2d} [{'PASS' if ok and in_time else 'FAIL'}] {desc}: {line}")
    assert ok, f"criterion {num} ({desc}): {line}"
    assert in_time, f"criterion {num} over time budget: {line}"


@pytest.fixture(scope="module")
def fexp():
    return branchsolve.exponential()


@pytest.fixture(scope="module")
def reference_branch(fexp):
    """(n=3, s=0.5, K=128) branch with fold refinement and both lambda* routes."""
    t0 = time.perf_counter()
    basis = spectral.build_basis(3, 0.5, 128)
    lo, hi, br = branchsolve.estimate_lambda_star(basis, fexp)
    return basis, br, lo, hi, time.perf_counter() - t0


class TestCriterion1:
    def test_spectral_correctness(self):
        t0 = time.perf_counter()
        basis = spectral.build_basis(3, 0.5, 32)
        rng = np.random.default_rng(11)
        worst_rt = 0.0
        for _ in range(5):
            c = rng.normal(size=32)
            u = spectral.coeffs(basis, c)
            back = spectral.analyze(basis, spectral.node_values(u))
            worst_rt = max(
                worst_rt,
                float(np.max(np.abs(back.c - c))) / float(np.max(np.abs(c))),
            )
        k = np.arange(1, 33)
        eig_err = float(np.max(np.abs(basis.mu - (k * math.pi) ** 2) / (k * math.pi) ** 2))
        mu1_2d = spectral.build_basis(2, 0.5, 1).mu[0]
        d2_err = abs(mu1_2d - 5.783185962947) / 5.783185962947
        ok = worst_rt <= 1e-8 and eig_err <= 1e-10 and d2_err <= 1e-9
        _report(
            1, "spectral roundtrip and eigenvalues", ok,
            f"roundtrip {worst_rt:.1e}, n=3 eig err {eig_err:.1e}, n=2 mu1 err {d2_err:.1e}",
            time.perf_counter() - t0, 10,
        )


class TestCriterion2:
    def test_flux_constant(self):
        t0 = time.perf_counter()
        worst = max(checks.flux_constant_error(s) for s in (0.25, 0.5, 0.75))
        half_err = abs(extension.flux_constant(0.5) - 1.0)
        ok = worst <= 1e-5 and half_err <= 1e-6
        _report(
            2, "extension flux constant", ok,
            f"worst rel err {worst:.1e}, |c(1/2)-1| = {half_err:.1e}",
            time.perf_counter() - t0, 10,
        )


class TestCriterion3:
    def test_energy_identity(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(23)
        worst = 0.0
        for n in (2, 3, 5):
            for s in (0.3, 0.5, 0.7):
                worst = max(worst, checks.energy_identity_error(n, s, rng))
        _report(
            3, "extension energy identity", worst <= 1e-4,
            f"worst rel err {worst:.1e} over (n,s) in {{2,3,5}}x{{0.3,0.5,0.7}}",
            time.perf_counter() - t0, 60,
        )


class TestCriterion4:
    def test_maximum_principle(self):
        t0 = time.perf_counter()
        basis = spectral.build_basis(3, 0.5, 32)
        worst = checks.max_principle_min(basis, np.random.default_rng(7))
        _report(
            4, "maximum principle", worst >= -1e-8,
            f"min over 20 nonneg rhs = {worst:.2e}",
            time.perf_counter() - t0, 10,
        )


class TestCriterion5:
    def test_branch_and_fold(self, reference_branch):
        basis, br, lo, hi, t_build = reference_branch
        t0 = time.perf_counter()
        lams = np.array([p.lam for p in br.points])
        i_fold = br.fold_index
        drops = np.flatnonzero(np.diff(lams) < 0)
        single_fold = i_fold is not None and np.all(np.diff(drops) == 1) and len(drops) > 0
        stable_before = all(p.nu1 > 0 for p in br.points[:i_fold])
        nu_at_fold = abs(br.points[i_fold].nu1)
        lam_fold = br.lambda_max
        bis_mid = 0.5 * (lo + hi)
        route_gap = abs(lam_fold - bis_mid) / bis_mid
        ok = single_fold and stable_before and nu_at_fold <= 1e-3 and route_gap <= 1e-3
        _report(
            5, "branch continuation and fold", ok,
            f"single fold at lam={lam_fold:.6f}, |nu1|={nu_at_fold:.1e}, "
            f"fold-vs-bisection gap {route_gap:.1e}",
            t_build + time.perf_counter() - t0, 300,
        )


class TestCriterion6:
    def test_classical_limit(self, fexp):
        t0 = time.perf_counter()
        basis = spectral.build_basis(2, 1.0, 64)
        lo, hi, _ = branchsolve.estimate_lambda_star(basis, fexp)
        mid = 0.5 * (lo + hi)
        err = abs(mid - 2.0) / 2.0
        _report(
            6, "classical limit lambda*(2D, exp) = 2", err <= 0.01,
            f"bracket [{lo:.5f}, {hi:.5f}], rel err {err:.1e}",
            time.perf_counter() - t0, 120,
        )


class TestCriterion7:
    def test_subcritical_amplitude_stability(self, fexp):
        t0 = time.perf_counter()
        worst = 0.0
        worst_cfg = None
        for n in range(2, 7):
            for s in (0.3, 0.5, 0.7):
                amps = []
                for K in (128, 256):
                    basis = spectral.build_basis(n, s, K)
                    _, _, br = branchsolve.estimate_lambda_star(basis, fexp)
                    amps.append(branchsolve.amplitude(branchsolve.extremal_solution(br).u))
                rel = abs(amps[1] - amps[0]) / amps[0]
                if rel > worst:
                    worst, worst_cfg = rel, (n, s)
        _report(
            7, "extremal amplitude stable under K-doubling (n<=6)", worst < 0.02,
            f"worst rel change {worst:.1e} at (n,s)={worst_cfg}",
            time.perf_counter() - t0, 1800,
        )


class TestCriterion8:
    def test_supercritical_decay_envelope(self, fexp):
        t0 = time.perf_counter()
        n, s = 20, 0.5
        mu = regularity.decay_exponent_bound(n, s) - 0.1
        rho = np.geomspace(1e-3, 0.3, 80)
        consts = []
        for K in (512, 1024):
            basis = spectral.build_basis(n, s, K)
            lo, hi = 0.1, 8.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                try:
                    branchsolve.monotone_iterate(basis, mid, fexp)
                    lo = mid
                except branchsolve.DivergenceSignal:
                    hi = mid
            u = branchsolve.monotone_iterate(basis, 0.995 * lo, fexp)
            uf = spectral.filtered(u)
            consts.append(
                regularity.decay_envelope_constant(
                    lambda r: spectral.evaluate(uf, r), mu, rho
                )
            )
        rel = abs(consts[1] - consts[0]) / consts[0]
        ok = rel <= 0.10 and all(np.isfinite(consts)) and consts[0] > 0
        _report(
            8, "supercritical decay envelope (n=20)", ok,
            f"mu={mu:.4f}, C={consts[1]:.5f}, K-doubling change {rel:.1e}",
            time.perf_counter() - t0, 600,
        )


class TestCriterion9:
    def test_lemma_a_sign_condition(self):
        t0 = time.perf_counter()
        worst = np.inf
        worst_cfg = None
        for n in (2, 3, 5, 10):
            for s in (0.25, 0.5, 0.75):
                m, beta = checks.lemma_a_worst(n, s)
                if m < worst:
                    worst, worst_cfg = m, (n, s, round(beta, 2))
        _report(
            9, "weighted-kernel sign condition on full grid", worst > 0.0,
            f"min margin {worst:.4f} at (n,s,beta)={worst_cfg}",
            time.perf_counter() - t0, 600,
        )


class TestCriterion10:
    def test_riesz_pointwise_bound(self, reference_branch, fexp):
        _, br, _, _, _ = reference_branch
        t0 = time.perf_counter()
        worst = checks.riesz_bound_ratio(br.points, fexp)
        _report(
            10, "Riesz potential pointwise bound", worst <= 1.0 + 1e-3,
            f"worst ratio {worst:.6f} over {len(br.points)} branch points x 20 radii",
            time.perf_counter() - t0, 300,
        )


class TestCriterion11:
    def test_weighted_key_estimate(self, reference_branch):
        _, br, _, _, _ = reference_branch
        t0 = time.perf_counter()
        ratio = checks.weighted_key_ratio(br)
        _report(
            11, "key weighted estimate near lambda*", ratio < 2.0,
            f"integral ratio {ratio:.4f} between the two points closest to lambda*",
            time.perf_counter() - t0, 300,
        )


class TestCriterion12:
    def test_stability_inequality(self, reference_branch):
        _, br, _, _, _ = reference_branch
        t0 = time.perf_counter()
        worst = checks.stability_margin(checks.stable_points(br, 5))
        _report(
            12, "stability test-function inequality", worst >= -1e-6,
            f"min margin {worst:.3e} over 5 stable branch points",
            time.perf_counter() - t0, 300,
        )


class TestCriterion13:
    def test_boundary_rate(self):
        t0 = time.perf_counter()
        worst_gap = np.inf
        rates = []
        for s in (0.25, 0.5, 0.75):
            rate = checks.boundary_rate(spectral.build_basis(3, s, 64))
            rates.append(round(rate, 3))
            worst_gap = min(worst_gap, rate - (min(2.0 * s, 1.0) - 0.05))
        _report(
            13, "boundary decay rate of zeta0", worst_gap >= 0.0,
            f"fitted rates {rates} for s in (0.25, 0.5, 0.75)",
            time.perf_counter() - t0, 60,
        )


class TestCriterion14:
    def test_monotonicity_and_y_decay(self, reference_branch):
        basis, br, _, _, _ = reference_branch
        t0 = time.perf_counter()
        worst_slope = checks.max_radial_slope(br.points)
        rate = checks.y_decay_rate(br.points[0].u)
        sq = math.sqrt(basis.mu[0])
        ok = worst_slope < 1e-8 and rate >= 0.9 * sq
        _report(
            14, "radial monotonicity and extension y-decay", ok,
            f"max du/drho {worst_slope:.1e}, decay rate {rate:.3f} vs 0.9*sqrt(mu1)={0.9*sq:.3f}",
            time.perf_counter() - t0, 300,
        )


class TestCriterion15:
    def test_determinism(self, tmp_path):
        t0 = time.perf_counter()
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            cfg = config.parse_config(
                "", {"n": "3", "s": "0.5", "modes": "24", "t_max": "8",
                     "t_steps": "16", "out_dir": str(out)},
            )
            cli.run_branch(cfg)
            outputs.append(
                (out / "branch.csv").read_bytes() + (out / "summary.json").read_bytes()
            )
        ok = outputs[0] == outputs[1]
        _report(
            15, "byte-identical repeated branch runs", ok,
            f"{len(outputs[0])} output bytes compared",
            time.perf_counter() - t0, 60,
        )
