"""The benchmark's workloads: inputs from a seed, one round of tasks, output checks.

Each workload is a closed loop run by one process: the tasks of a round run
one after another, and a run repeats whole rounds.  `inputs(seed, out)`
builds everything a round needs (the seed only orders the tasks or seeds the
program's own random checks, so every seed does the same work);
`run(inputs)` is the timed round; `summary(output)` reduces a round's output
to values that must repeat exactly between rounds; `check(inputs, output)`
compares the last round's output with references computed outside the
program and returns (attempted, failed, problems).  An operation that fails
is counted in `failed`; a wrong output of an operation that did not fail is
a problem, and any problem makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from fracgelfand import branchsolve, cli, config, extension, regularity, spectral

import references

BRACKET_TOL = config.DEFAULT_TOLERANCES["bracket_tol"]
# |nu_1| at the refined fold; criterion 5 uses the same bound
FOLD_NU1_TOL = 1e-3


def _rel(a, b):
    return abs(a - b) / abs(b)


# --------------------------------------------------------------------------
# lambda_star_grid: `cli.run_branch` (criteria 5-7)

# the two classical points, then subcritical fractional ones (n < critical dim)
LAMBDA_POINTS = ((2, 1.0), (3, 1.0), (3, 0.5), (5, 0.3), (6, 0.7))
LAMBDA_MODES = (128, 256)


def grid_inputs(seed, out):
    tasks = [(n, s, K) for n, s in LAMBDA_POINTS for K in LAMBDA_MODES]
    order = np.random.default_rng(seed).permutation(len(tasks))
    return [
        (tasks[i], config.parse_config("", {
            "n": tasks[i][0], "s": tasks[i][1], "modes": tasks[i][2],
            "out_dir": out / "n{}_s{}_K{}".format(*tasks[i]),
        }))
        for i in order
    ]


def grid_run(inputs):
    return {task: cli.run_branch(cfg)[1] for task, cfg in inputs}


def grid_summary(output):
    return repr(sorted(output.items()))


def _read_branch_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def grid_check(inputs, output):
    problems, failed, folds = [], 0, {}
    for task, cfg in inputs:
        summary = output[task]
        if summary["error"] is not None:
            failed += 1
            continue
        lo, hi = summary["lambda_star_lo"], summary["lambda_star_hi"]
        b = _read_branch_csv(cfg.out_dir / "branch.csv")
        i = int(np.argmax(b["lambda"]))
        lam = folds[task] = float(b["lambda"][i])
        if not lo <= lam <= hi:
            problems.append(f"{task}: fold lambda {lam} outside bracket [{lo}, {hi}]")
        if hi - lo > BRACKET_TOL * lam:
            problems.append(f"{task}: bracket [{lo}, {hi}] wider than {BRACKET_TOL}")
        if b["t"][i] != summary["fold_t"]:
            problems.append(f"{task}: summary fold_t {summary['fold_t']} is not the csv fold")
        if not np.all(b["nu1"][:i] > 0):
            problems.append(f"{task}: nu1 <= 0 before the fold")
        if abs(b["nu1"][i]) > FOLD_NU1_TOL:
            problems.append(f"{task}: |nu1| = {abs(b['nu1'][i]):.2e} at the fold")
        n, s, _ = task
        if s == 1.0 and n in references.LAMBDA_STAR_CLASSICAL:
            ref, half_width = references.LAMBDA_STAR_CLASSICAL[n]
            if abs(lam - ref) > half_width + BRACKET_TOL * ref:
                problems.append(f"{task}: fold lambda {lam} vs lambda* = {ref}")
    for n, s in LAMBDA_POINTS:
        coarse, fine = folds.get((n, s, LAMBDA_MODES[0])), folds.get((n, s, LAMBDA_MODES[1]))
        if coarse is not None and fine is not None and _rel(fine, coarse) > BRACKET_TOL:
            problems.append(f"({n}, {s}): fold lambda {coarse} at K=128 vs {fine} at K=256")
    return len(inputs), failed, problems


# --------------------------------------------------------------------------
# envelope_n20: the decay study of scripts/supercritical_decay.py (criterion 8)

@dataclass(frozen=True)
class EnvelopeInputs:
    solve_order: tuple            # the seed orders the two minimal solves
    n: int = 20
    s: float = 0.5
    modes: tuple = (512, 1024)    # bases; the bisection runs on the first
    bracket: tuple = (0.1, 8.0)
    # 24 halvings reach the steps near lambda-hat where Picard stalls; the
    # script's 40 take 86 s on their own, too long for the benchmark's runs
    halvings: int = 24
    factor: float = 0.995
    # the script's envelope radii, and those of the CLI's radial_monotonicity
    envelope_radii: np.ndarray = field(default_factory=lambda: np.geomspace(1e-3, 0.3, 120))
    profile_radii: np.ndarray = field(default_factory=lambda: np.linspace(0.05, 0.95, 100))


def envelope_inputs(seed, out):
    order = np.random.default_rng(seed).permutation((512, 1024))
    return EnvelopeInputs(tuple(int(K) for K in order))


def envelope_run(inp):
    f = branchsolve.exponential()
    bases = {K: spectral.build_basis(inp.n, inp.s, K) for K in inp.modes}
    lo, hi = inp.bracket
    for _ in range(inp.halvings):
        mid = 0.5 * (lo + hi)
        try:
            branchsolve.monotone_iterate(bases[inp.modes[0]], mid, f)
            lo = mid
        except branchsolve.DivergenceSignal:
            hi = mid
    lam = inp.factor * lo
    mu = regularity.decay_exponent_bound(inp.n, inp.s) - 0.1
    solutions, constants = {}, {}
    for K in inp.solve_order:
        u = solutions[K] = branchsolve.monotone_iterate(bases[K], lam, f)
        uf = spectral.filtered(u)
        constants[K] = regularity.decay_envelope_constant(
            lambda r: spectral.evaluate(uf, r), mu, inp.envelope_radii
        )
    profile = spectral.evaluate(
        spectral.filtered(solutions[inp.modes[0]]), inp.profile_radii
    )
    return {"bases": bases, "bracket": (lo, hi), "lam": lam, "f": f,
            "solutions": solutions, "constants": constants, "profile": profile}


def envelope_summary(output):
    return (output["bracket"], sorted(output["constants"].items()),
            output["profile"].tobytes())


def envelope_check(inp, output):
    """Seven operations: two bases, the bisection, two minimal solutions,
    the envelope constants and the radial profile."""
    problems, failed = [], 0
    for K, basis in output["bases"].items():
        phi = basis.phi_table[:64]
        gram = (phi * basis.quad_weights) @ phi.T
        if basis.K != K or np.max(np.abs(gram - np.eye(64))) > 1e-8:
            problems.append(f"basis K={K}: not orthonormal on the first 64 modes")
    lo, hi = output["bracket"]
    width = (inp.bracket[1] - inp.bracket[0]) / 2 ** inp.halvings
    if not (inp.bracket[0] < lo < hi < inp.bracket[1] and hi - lo <= 1.000001 * width):
        problems.append(f"bisection bracket [{lo}, {hi}]")
    f, lam = output["f"], output["lam"]
    for K, u in output["solutions"].items():
        res = float(np.linalg.norm(branchsolve.residual(u, lam, f).c))
        nu1 = branchsolve.stability_eigenvalue(u, lam, f)
        if not res <= 1e-8:
            problems.append(f"K={K}: residual {res:.2e} at {inp.factor} lambda-hat")
        if not nu1 > 0:
            problems.append(f"K={K}: nu1 = {nu1} at {inp.factor} lambda-hat")
    c = output["constants"]
    coarse, fine = c[inp.modes[0]], c[inp.modes[1]]
    if not (np.isfinite(coarse) and np.isfinite(fine) and coarse > 0
            and _rel(fine, coarse) <= 0.10):
        problems.append(f"envelope constants {coarse} (K=512) vs {fine} (K=1024)")
    # the minimal solution is radially decreasing; the n=20 profile is not
    # while _nonlinear_nodes zeroes the nodes below rho ~ 0.19
    if np.max(np.diff(output["profile"])) > 0:
        failed += 1
    return 7, failed, problems


# --------------------------------------------------------------------------
# verify_n3: `fracgelfand verify --n 3 --s 0.5 --modes 64` (criteria 9-10)

VERIFY_CHECKS = (
    "flux_constant", "energy_identity", "max_principle", "orthonormality",
    "riesz_bound", "lemma_a_grid", "boundary_rate", "radial_monotonicity",
    "weighted_key_estimate", "stability_weighted_inequality", "exp_decay_y",
    "phi1_identity",
)
VERIFY_N, VERIFY_S, VERIFY_MODES = 3, 0.5, 64


@dataclass(frozen=True)
class VerifyInputs:
    argv: tuple
    out: object
    riesz_radii: tuple


def verify_inputs(seed, out):
    rng = np.random.default_rng(seed)
    return VerifyInputs(
        argv=("verify", "--n", str(VERIFY_N), "--s", str(VERIFY_S),
              "--modes", str(VERIFY_MODES), "--seed", str(seed), "--out-dir", str(out)),
        out=out,
        riesz_radii=(0.0, *(float(x) for x in rng.uniform(0.05, 0.95, size=2))),
    )


def verify_run(inp):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(inp.argv))
    return {"code": code, "stdout": buf.getvalue()}


def verify_summary(output):
    return output["code"], output["stdout"]


def verify_check(inp, output):
    problems = []
    report = json.loads((inp.out / "verify.json").read_text())
    if sorted(report) != sorted(VERIFY_CHECKS):
        return len(VERIFY_CHECKS), 0, [f"verify.json holds checks {sorted(report)}"]
    printed = dict(line.split(": ") for line in output["stdout"].splitlines())
    if printed != {k: v["status"] for k, v in report.items()}:
        problems.append("printed statuses differ from verify.json")
    failed = sum(v["status"] == "fail" for v in report.values())
    if output["code"] != (1 if failed else 0):
        problems.append(f"exit code {output['code']} with {failed} failed checks")

    if report["flux_constant"]["status"] == "pass":
        flux = extension.flux_constant(VERIFY_S)
        if _rel(flux, references.flux_constant(VERIFY_S)) > 1e-5:
            problems.append(f"flux constant {flux}")
    if report["lemma_a_grid"]["status"] == "pass":
        ref = min(references.lemma_a_margin(VERIFY_N, VERIFY_S, beta)
                  for beta in (0.5, VERIFY_N / 2.0, 0.9 * VERIFY_N))
        if abs(report["lemma_a_grid"]["margin"] - ref) > 1e-3:
            problems.append(f"lemma_a_grid margin {report['lemma_a_grid']['margin']} vs {ref}")
    if report["riesz_bound"]["status"] == "pass":
        basis = spectral.build_basis(VERIFY_N, VERIFY_S, VERIFY_MODES)
        phi1 = spectral.unit(basis, 1)
        for x in inp.riesz_radii:
            got = extension.riesz_potential_radial(phi1, x)
            if _rel(got, references.riesz_phi1_n3(x)) > 1e-6:
                problems.append(f"R(phi_1)({x}) = {got}")
    return len(VERIFY_CHECKS), failed, problems


@dataclass(frozen=True)
class Workload:
    inputs: object
    run: object
    summary: object
    check: object


WORKLOADS = {
    "lambda_star_grid": Workload(grid_inputs, grid_run, grid_summary, grid_check),
    "envelope_n20": Workload(envelope_inputs, envelope_run, envelope_summary, envelope_check),
    "verify_n3": Workload(verify_inputs, verify_run, verify_summary, verify_check),
}
