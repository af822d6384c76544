"""Command-line front end: branch runs, verification suites, formula tables.

Subcommands:
  branch       continue the minimal branch, write branch.csv + summary.json
  verify       run the named invariant checks, write verify.json
  lambda-star  print the extremal-parameter bracket
  table        print critical dimension / decay bound over an (n, s) grid
  extremal     branch + decay fits, write extremal report

Flags mirror config keys and override the config file.  All numeric output
uses 17 significant digits; files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import branchsolve, cache, config, extension, regularity, spectral

ALL_CHECKS = (
    "flux_constant",
    "energy_identity",
    "max_principle",
    "orthonormality",
    "riesz_bound",
    "lemma_a_grid",
    "boundary_rate",
    "radial_monotonicity",
    "weighted_key_estimate",
    "stability_weighted_inequality",
    "exp_decay_y",
    "phi1_identity",
)


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
    basis = spectral.build_basis(cfg.n, cfg.s, cfg.modes, cfg.quad_order)
    return basis, cfg.nonlinearity()


def run_branch(cfg):
    """Continue the branch and persist branch.csv + summary.json."""
    basis, f = _build(cfg)
    summary = {
        "n": cfg.n,
        "s": cfg.s,
        "f_spec": cfg.f_spec,
        "modes": cfg.modes,
        "critical_dim": regularity.critical_dimension(cfg.s),
        "decay_bound": regularity.decay_exponent_bound(cfg.n, cfg.s),
        "lambda_star_lo": None,
        "lambda_star_hi": None,
        "fold_t": None,
        "extremal_u0": None,
        "error": None,
    }
    try:
        lo, hi, br = branchsolve.estimate_lambda_star(
            basis,
            f,
            t_max=cfg.t_max,
            t_steps=cfg.t_steps,
            bracket_rel_tol=cfg.tolerances["bracket_tol"],
        )
        summary["lambda_star_lo"] = lo
        summary["lambda_star_hi"] = hi
        fold = branchsolve.extremal_solution(br)
        summary["fold_t"] = fold.t
        summary["extremal_u0"] = branchsolve.amplitude(fold.u)
    except (branchsolve.NewtonError, RuntimeError) as exc:
        summary["error"] = str(exc)
        br = branchsolve.continue_branch(
            basis, np.linspace(0.0, cfg.t_max, cfg.t_steps + 1)[1:], f
        )

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


def _branch_for_checks(cfg, basis, f):
    t_grid = np.linspace(0.0, cfg.t_max, cfg.t_steps + 1)[1:]
    return branchsolve.continue_branch(basis, t_grid, f)


def run_verify(cfg, checks=None):
    """Run the named invariant checks; returns {name: {status, margin}}."""
    if checks is None:
        checks = list(ALL_CHECKS)
    report = {}
    basis, f = _build(cfg)
    rng = np.random.default_rng(cfg.seed)
    branch_cache = {}

    def branch():
        if "br" not in branch_cache:
            branch_cache["br"] = _branch_for_checks(cfg, basis, f)
        return branch_cache["br"]

    for name in checks:
        try:
            report[name] = _run_check(name, cfg, basis, f, rng, branch)
        except Exception as exc:  # individual failures must not abort the suite
            report[name] = {"status": "fail", "margin": None, "error": str(exc)}
    _atomic_write(Path(cfg.out_dir) / "verify.json", _json_dump(report))
    return report


def _check(ok, margin):
    return {"status": "pass" if ok else "fail", "margin": float(margin)}


def _stable_points(br, count=5):
    idx = br.fold_index if br.fold_index is not None else len(br.points)
    pts = [p for p in br.points[:idx] if p.nu1 > 0]
    step = max(1, len(pts) // count)
    return pts[::step][:count]


def _run_check(name, cfg, basis, f, rng, branch):
    n, s = cfg.n, cfg.s

    if name == "flux_constant":
        if s >= 1.0:
            return {"status": "skip", "margin": None}
        c = extension.flux_constant(s)
        ref = extension.flux_constant_analytic(s)
        err = abs(c - ref) / ref
        return _check(err <= 1e-5, err)

    if name == "energy_identity":
        if s >= 1.0:
            return {"status": "skip", "margin": None}
        small = spectral.build_basis(n, s, 8, 64)
        u = spectral.coeffs(small, rng.normal(size=8))
        e = extension.extension_energy(extension.ExtensionField(u))
        ref = extension.flux_constant_analytic(s) * spectral.h_norm(u) ** 2
        err = abs(e - ref) / ref
        return _check(err <= 1e-4, err)

    if name == "max_principle":
        grid = np.linspace(0.0, 1.0, 200)
        worst = np.inf
        for _ in range(20):
            coef = rng.uniform(0.0, 1.0, size=4)
            h = spectral.analyze(basis, lambda r: np.polyval(coef, r ** 2))
            u = spectral.inv_frac_laplacian(h)
            worst = min(worst, float(np.min(spectral.evaluate(u, grid))))
        return _check(worst >= -1e-8, worst)

    if name == "orthonormality":
        G = (basis.phi_table * basis.quad_weights) @ basis.phi_table.T
        err = float(np.max(np.abs(G - np.eye(basis.K))))
        return _check(err <= 1e-8, err)

    if name == "riesz_bound":
        if s >= 1.0:
            return {"status": "skip", "margin": None}
        C = extension.poisson_constant(n, s)
        radii = np.linspace(0.02, 0.95, 20)
        pts = _stable_points(branch(), 5)
        hs = [
            spectral.analyze(
                basis, p.lam * f.eval(branchsolve.nonlinear_node_values(p.u))
            )
            for p in pts
        ]
        worst = 0.0
        for x in radii:
            bounds = C * extension.riesz_potential_radial(hs, float(x))
            for p, bound in zip(pts, bounds):
                ratio = abs(spectral.evaluate(p.u, float(x))) / bound
                worst = max(worst, ratio)
        return _check(worst <= 1.0 + 1e-3, worst)

    if name == "lemma_a_grid":
        if s >= 1.0:
            return {"status": "skip", "margin": None}
        margins = [
            regularity.lemma_a_margin(n, s, beta)
            for beta in (0.5, n / 2.0, 0.9 * n)
        ]
        worst = min(margins)
        return _check(worst > 0.0, worst)

    if name == "boundary_rate":
        zeta0 = spectral.inv_frac_laplacian(
            spectral.analyze(basis, lambda r: np.ones_like(r))
        )
        rate = regularity.boundary_decay_rate(zeta0)
        need = min(2.0 * s, 1.0) - 0.05
        return _check(rate >= need, rate - need)

    if name == "radial_monotonicity":
        # truncation ringing pollutes the derivative series near the axis and
        # the boundary; the monotonicity statement is checked on resolved radii
        radii = np.linspace(0.05, 0.95, 100)
        worst = -np.inf
        for p in branch().points:
            worst = max(worst, float(np.max(spectral.evaluate_deriv(p.u, radii))))
        return _check(worst < 1e-8, worst)

    if name == "weighted_key_estimate":
        if s >= 1.0:
            return {"status": "skip", "margin": None}
        br = branch()
        idx = br.fold_index if br.fold_index is not None else len(br.points) - 1
        spec = extension.CutoffSpec(
            alpha=1.0 + math.sqrt(n - 1.0) - 0.1, epsilon=0.01, R=5.0
        )
        vals = [
            extension.weighted_vrho_integral(extension.ExtensionField(p.u), spec)
            for p in (br.points[idx - 1], br.points[idx])
        ]
        ratio = vals[1] / vals[0] if vals[0] else 1.0
        return _check(ratio < 2.0, ratio)

    if name == "stability_weighted_inequality":
        if s >= 1.0:
            return {"status": "skip", "margin": None}
        spec = extension.CutoffSpec(alpha=1.0, epsilon=0.05, R=3.0)
        worst = np.inf
        for p in _stable_points(branch(), 5):
            lhs, rhs = extension.stability_weighted_inequality(
                extension.ExtensionField(p.u), spec
            )
            worst = min(worst, lhs - rhs)
        return _check(worst >= -1e-6, worst)

    if name == "exp_decay_y":
        if s >= 1.0:
            return {"status": "skip", "margin": None}
        pts = _stable_points(branch(), 1)
        field = extension.ExtensionField(pts[0].u)
        ys = np.linspace(2.0, 10.0, 40) / math.sqrt(basis.mu[0])
        ys = ys[ys * math.sqrt(basis.mu[0]) >= 2.0]
        vals = np.abs(extension.extension_eval(field, 0.0, ys))
        rate = -np.polyfit(ys, np.log(vals), 1)[0]
        need = 0.9 * math.sqrt(basis.mu[0])
        return _check(rate >= need, rate - need)

    if name == "phi1_identity":
        worst = 0.0
        for p in _stable_points(branch(), 5):
            lhs = basis.mu[0] ** basis.s * p.u.c[0]
            fu = spectral.analyze(basis, f.eval(branchsolve.nonlinear_node_values(p.u)))
            rhs = p.lam * fu.c[0]
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        return _check(worst <= 1e-8, worst)

    raise ValueError(f"unknown check {name!r}")


def run_extremal(cfg):
    """Branch + decay diagnostics; writes extremal.json."""
    basis, f = _build(cfg)
    br = _branch_for_checks(cfg, basis, f)
    if br.fold_index is None:
        raise RuntimeError("no fold detected; increase t_max")
    fold = branchsolve.extremal_solution(br)
    rho_fit = np.geomspace(1e-3, 0.3, 60)
    mu_fit, c_fit, r2 = regularity.fit_decay_exponent(fold.u, rho_fit)
    bound = regularity.decay_exponent_bound(cfg.n, cfg.s)
    report = {
        "n": cfg.n,
        "s": cfg.s,
        "f_spec": cfg.f_spec,
        "modes": cfg.modes,
        "fold_t": fold.t,
        "fold_lambda": fold.lam,
        "extremal_u0": branchsolve.amplitude(fold.u),
        "critical_dim": regularity.critical_dimension(cfg.s),
        "decay_bound": bound,
        "fitted_interior_decay": mu_fit,
        "fit_r_squared": r2,
        "envelope_constant": (
            regularity.decay_envelope_constant(fold.u, max(bound - 0.1, 0.0), rho_fit)
            if bound > 0.1
            else None
        ),
        "boundary_rate": regularity.boundary_decay_rate(
            spectral.inv_frac_laplacian(
                spectral.analyze(basis, lambda r: np.ones_like(r))
            )
        ),
    }
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
    overrides = {
        "n": args.n,
        "s": args.s,
        "f": args.f,
        "modes": args.modes,
        "quad_order": args.quad_order,
        "t_max": args.t_max,
        "t_steps": args.t_steps,
        "out_dir": args.out_dir,
        "seed": args.seed,
    }
    return config.parse_config(text, overrides=overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fracgelfand", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--n", type=int)
        p.add_argument("--s", type=float)
        p.add_argument("--f", help="exp | power:p | table:path")
        p.add_argument("--modes", type=int)
        p.add_argument("--quad-order", dest="quad_order", type=int)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--t-steps", dest="t_steps", type=int)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--seed", type=int)

    add_common(sub.add_parser("branch", help="continue the minimal branch"))
    pv = sub.add_parser("verify", help="run invariant checks")
    add_common(pv)
    pv.add_argument(
        "--checks",
        default=",".join(ALL_CHECKS),
        help="comma-separated check names (empty for none)",
    )
    add_common(sub.add_parser("lambda-star", help="bracket the extremal parameter"))
    add_common(sub.add_parser("extremal", help="branch + decay diagnostics"))
    pt = sub.add_parser("table", help="formula table over an (n, s) grid")
    pt.add_argument("--n-values", default="2,3,4,5,6,10,20")
    pt.add_argument("--s-values", default="0.25,0.5,0.75,1.0")

    args = parser.parse_args(argv)
    cache.install_from_env()

    if args.command == "table":
        ns = [int(v) for v in args.n_values.split(",") if v]
        ss = [float(v) for v in args.s_values.split(",") if v]
        print("\n".join(_table_lines(ns, ss)))
        return 0

    cfg = _load_config(args)

    if args.command == "branch":
        _, summary = run_branch(cfg)
        print(_json_dump(summary), end="")
        return 0 if summary["error"] is None else 1

    if args.command == "verify":
        names = [c for c in args.checks.split(",") if c]
        report = run_verify(cfg, names)
        for key, entry in report.items():
            print(f"{key}: {entry['status']}")
        return 0 if all(e["status"] != "fail" for e in report.values()) else 1

    if args.command == "lambda-star":
        basis, f = _build(cfg)
        lo, hi, _ = branchsolve.estimate_lambda_star(
            basis,
            f,
            t_max=cfg.t_max,
            t_steps=cfg.t_steps,
            bracket_rel_tol=cfg.tolerances["bracket_tol"],
        )
        print(f"{_fmt(lo)} {_fmt(hi)}")
        return 0

    if args.command == "extremal":
        report = run_extremal(cfg)
        print(_json_dump(report), end="")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
