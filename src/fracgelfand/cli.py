"""Command-line front end: branch runs, verification suites, formula tables.

Subcommands:
  branch    continue the minimal branch, bracket lambda*, write branch.csv
            + summary.json
  verify    run the named invariant checks, write verify.json
  table     print critical dimension / decay bound over an (n, s) grid
  extremal  branch + decay fits, write extremal.json

Flags mirror config keys and override the config file; a bad value is a
usage error.  All numeric output uses 17 significant digits; files are
written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import branchsolve, checks, config, regularity, spectral


def _fmt(x):
    return f"{float(x):.17g}"


def _atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_dump(obj):
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(type(o))

    return json.dumps(obj, indent=2, sort_keys=True, default=default) + "\n"


def _build(cfg):
    basis = spectral.build_basis(cfg.n, cfg.s, cfg.modes)
    return basis, cfg.nonlinearity()


def _skeleton(cfg, *keys):
    """The keys summary.json and extremal.json share, then `keys`; the run fills the Nones."""
    return {
        "n": cfg.n,
        "s": cfg.s,
        "f_spec": cfg.f,
        "modes": cfg.modes,
        "critical_dim": regularity.critical_dimension(cfg.s),
        "decay_bound": regularity.decay_exponent_bound(cfg.n, cfg.s),
        **dict.fromkeys(("fold_t", "extremal_u0", "branch_stop", "error", *keys)),
    }


def run_branch(cfg):
    """Continue the branch and persist branch.csv + summary.json."""
    basis, f = _build(cfg)
    summary = _skeleton(cfg, "lambda_star_lo", "lambda_star_hi")
    try:
        lo, hi, br = branchsolve.estimate_lambda_star(
            basis,
            f,
            t_max=cfg.t_max,
            t_steps=cfg.t_steps,
            bracket_rel_tol=cfg.bracket_tol,
        )
        summary["lambda_star_lo"] = lo
        summary["lambda_star_hi"] = hi
        fold = branchsolve.extremal_solution(br)
        summary["fold_t"] = fold.t
        summary["extremal_u0"] = branchsolve.amplitude(fold.u)
    except branchsolve.BranchError as exc:
        summary["error"] = str(exc)
        br = exc.branch
    summary["branch_stop"] = br.stop

    lines = ["t,lambda,u0,nu1,h_norm,residual"]
    for p in br.points:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    p.t,
                    p.lam,
                    branchsolve.amplitude(p.u),
                    p.nu1,
                    spectral.h_norm(p.u),
                    p.residual,
                )
            )
        )
    out = Path(cfg.out_dir)
    _atomic_write(out / "branch.csv", "\n".join(lines) + "\n")
    _atomic_write(out / "summary.json", _json_dump(summary))
    return br, summary


def _once(fn):
    """fn, called at most once: later calls return its value or re-raise its error."""
    outcome = []

    def call():
        if not outcome:
            try:
                outcome.append((fn(), None))
            except Exception as exc:
                outcome.append((None, exc))
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value

    return call


# name -> (margin(basis, f, rng, branch), pass test on the margin); branch()
# continues the branch on first use, and later calls return or raise the same.
# Checks in FRACTIONAL_CHECKS are skipped at s = 1.  The checks share one rng
# and run in the order asked for.
CHECKS = {
    "flux_constant": (
        lambda b, f, rng, branch: checks.flux_constant_error(b.s),
        lambda m: m <= 1e-5,
    ),
    "energy_identity": (
        lambda b, f, rng, branch: checks.energy_identity_error(b.n, b.s, rng),
        lambda m: m <= 1e-4,
    ),
    "max_principle": (
        lambda b, f, rng, branch: checks.max_principle_min(b, rng),
        lambda m: m >= -1e-8,
    ),
    "orthonormality": (
        lambda b, f, rng, branch: checks.gram_error(b),
        lambda m: m <= 1e-8,
    ),
    "riesz_bound": (
        lambda b, f, rng, branch: checks.riesz_bound_ratio(
            checks.stable_points(branch(), 5), f
        ),
        lambda m: m <= 1.0 + 1e-3,
    ),
    "lemma_a_grid": (
        lambda b, f, rng, branch: checks.lemma_a_worst(b.n, b.s)[0],
        lambda m: m > 0.0,
    ),
    "boundary_rate": (
        lambda b, f, rng, branch: checks.boundary_rate(b)
        - (min(2.0 * b.s, 1.0) - 0.05),
        lambda m: m >= 0.0,
    ),
    "radial_monotonicity": (
        lambda b, f, rng, branch: checks.max_radial_slope(branch().points),
        lambda m: m < 1e-8,
    ),
    "weighted_key_estimate": (
        lambda b, f, rng, branch: checks.weighted_key_ratio(branch()),
        lambda m: m < 2.0,
    ),
    "stability_weighted_inequality": (
        lambda b, f, rng, branch: checks.stability_margin(
            checks.stable_points(branch(), 5)
        ),
        lambda m: m >= -1e-6,
    ),
    "exp_decay_y": (
        lambda b, f, rng, branch: checks.y_decay_rate(
            checks.stable_points(branch(), 1)[0].u
        ) - 0.9 * math.sqrt(b.mu[0]),
        lambda m: m >= 0.0,
    ),
    "phi1_identity": (
        lambda b, f, rng, branch: checks.phi1_identity_error(
            checks.stable_points(branch(), 5), f
        ),
        lambda m: m <= 1e-8,
    ),
}
FRACTIONAL_CHECKS = {
    "flux_constant", "energy_identity", "riesz_bound", "lemma_a_grid",
    "weighted_key_estimate", "stability_weighted_inequality", "exp_decay_y",
}


def run_verify(cfg, names=None):
    """Run the named invariant checks; returns {name: {status, margin}}."""
    names = list(CHECKS) if names is None else names
    basis, f = _build(cfg)
    rng = np.random.default_rng(cfg.seed)
    branch = _once(lambda: branchsolve._walk(basis, f, cfg.t_max, cfg.t_steps))
    report = {}
    for name in names:
        margin, passes = CHECKS[name]
        if cfg.s >= 1.0 and name in FRACTIONAL_CHECKS:
            report[name] = {"status": "skip", "margin": None}
            continue
        try:
            m = float(margin(basis, f, rng, branch))
            if not math.isfinite(m):
                raise ValueError(f"margin is {m}")
        except Exception as exc:  # individual failures must not abort the suite
            report[name] = {"status": "fail", "margin": None, "error": str(exc)}
            continue
        report[name] = {"status": "pass" if passes(m) else "fail", "margin": m}
    _atomic_write(Path(cfg.out_dir) / "verify.json", _json_dump(report))
    return report


def run_extremal(cfg):
    """Branch + decay diagnostics; writes extremal.json.

    Without a refined fold the fold fields stay None and `error` says why;
    when the decay fit fails, the fold fields stay and `error` holds its message.
    """
    basis, f = _build(cfg)
    report = _skeleton(cfg, "fold_lambda", "fitted_interior_decay", "fit_r_squared",
                       "envelope_constant")
    report["boundary_rate"] = checks.boundary_rate(basis)
    bound = report["decay_bound"]
    try:
        br = branchsolve._walk(basis, f, cfg.t_max, cfg.t_steps)
        fold = branchsolve.extremal_solution(br)
    except branchsolve.BranchError as exc:
        report["error"] = str(exc)
        br = exc.branch
    report["branch_stop"] = br.stop
    if report["error"] is None:
        report.update(fold_t=fold.t, fold_lambda=fold.lam,
                      extremal_u0=branchsolve.amplitude(fold.u))
        rho_fit = np.geomspace(1e-3, 0.3, 60)
        try:
            mu_fit, _, r2 = regularity.fit_decay_exponent(fold.u, rho_fit)
        except ValueError as exc:
            report["error"] = str(exc)
        else:
            report.update(fitted_interior_decay=mu_fit, fit_r_squared=r2)
            if bound > 0.1:
                report["envelope_constant"] = regularity.decay_envelope_constant(
                    fold.u, bound - 0.1, rho_fit
                )
    _atomic_write(Path(cfg.out_dir) / "extremal.json", _json_dump(report))
    return report


def _table_lines(n_values, s_values):
    lines = ["n,s,critical_dim,decay_bound"]
    for n in n_values:
        for s in s_values:
            lines.append(
                f"{n},{_fmt(s)},{_fmt(regularity.critical_dimension(s))},"
                f"{_fmt(regularity.decay_exponent_bound(n, s))}"
            )
    return lines


def _load_config(args):
    text = Path(args.config).read_text() if args.config else ""
    fields = {field.name for field in dataclasses.fields(config.ExperimentConfig)}
    return config.parse_config(text, {k: v for k, v in vars(args).items() if k in fields})


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fracgelfand", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        # each names a config key, which parses it
        p.add_argument("--f", help="exp | power:p")
        for key in ("n", "s", "modes", "t-max", "t-steps", "out-dir", "seed"):
            p.add_argument(f"--{key}")

    add_common(sub.add_parser("branch", help="continue the minimal branch"))
    pv = sub.add_parser("verify", help="run invariant checks")
    add_common(pv)
    pv.add_argument(
        "--checks",
        default=",".join(CHECKS),
        help="comma-separated check names (empty for none)",
    )
    add_common(sub.add_parser("extremal", help="branch + decay diagnostics"))
    pt = sub.add_parser("table", help="formula table over an (n, s) grid")
    pt.add_argument("--n-values", default="2,3,4,5,6,10,20")
    pt.add_argument("--s-values", default="0.25,0.5,0.75,1.0")

    args = parser.parse_args(argv)
    if args.command == "verify":
        names = [c for c in args.checks.split(",") if c]
        unknown = [c for c in names if c not in CHECKS]
        if unknown:
            pv.error(f"unknown checks {', '.join(unknown)}; known: {', '.join(CHECKS)}")

    if args.command == "table":
        try:
            ns = [int(v) for v in args.n_values.split(",") if v]
            ss = [float(v) for v in args.s_values.split(",") if v]
            lines = _table_lines(ns, ss)
        except ValueError as exc:
            pt.error(str(exc))
        print("\n".join(lines))
        return 0

    try:
        cfg = _load_config(args)
    except (config.ConfigError, OSError) as exc:
        parser.error(str(exc))

    if args.command == "branch":
        _, summary = run_branch(cfg)
        print(_json_dump(summary), end="")
        return 0 if summary["error"] is None else 1

    if args.command == "verify":
        report = run_verify(cfg, names)
        for key, entry in report.items():
            print(f"{key}: {entry['status']}")
        return 0 if all(e["status"] != "fail" for e in report.values()) else 1

    if args.command == "extremal":
        report = run_extremal(cfg)
        print(_json_dump(report), end="")
        return 0 if report["error"] is None else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
