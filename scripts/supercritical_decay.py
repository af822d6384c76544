#!/usr/bin/env python3
"""Near-extremal decay envelope study in a supercritical dimension.

Takes lambda-hat, the fold that the monotone iteration's fold solve reports
in a bisection of its threshold (`regularity.near_extremal_envelope`), solves
just below it, and fits u(rho) <= C rho^(-mu) against the theoretical
exponent.  Writes the sampled profile as CSV.

Usage:
    python3 scripts/supercritical_decay.py --n 20 --s 0.5 --modes 512 \
        --out decay_n20.csv
"""

import argparse

import numpy as np

from fracgelfand import branchsolve, regularity, spectral


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--s", type=float, default=0.5)
    ap.add_argument("--modes", type=int, default=512)
    ap.add_argument("--rho-min", type=float, default=1e-3)
    ap.add_argument("--rho-max", type=float, default=0.3)
    ap.add_argument("--out", default="decay.csv")
    args = ap.parse_args(argv)

    basis = spectral.build_basis(args.n, args.s, args.modes)
    rho = np.geomspace(args.rho_min, args.rho_max, 120)
    lam_hat, uf, mu, C = regularity.near_extremal_envelope(
        basis, branchsolve.exponential(), rho)
    vals = spectral.evaluate(uf, rho)

    print(f"lambda_hat = {lam_hat:.6f} (solved at 0.995*lambda_hat)")
    print(f"envelope exponent mu = {mu:.4f}, constant C = {C:.6g}")

    with open(args.out, "w") as fh:
        fh.write("rho,u,envelope\n")
        for r, v in zip(rho, vals):
            fh.write(f"{r:.17g},{v:.17g},{C * r ** (-mu):.17g}\n")
    print(f"wrote {len(rho)} samples to {args.out}")


if __name__ == "__main__":
    main()
