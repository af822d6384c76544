#!/usr/bin/env python3
"""Near-extremal decay envelope study in a supercritical dimension.

Bisects the largest lambda at which the monotone iteration still converges,
solves just below it, and fits u(rho) <= C rho^(-mu) against the theoretical
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

    f = branchsolve.exponential()
    basis = spectral.build_basis(args.n, args.s, args.modes)
    # 40 halvings of [0.1, 8]
    lam_hat, _ = branchsolve.picard_bisect(basis, f, 0.1, 8.0, width=1e-11)
    u = branchsolve.monotone_iterate(basis, 0.995 * lam_hat, f)
    uf = spectral.filtered(u)

    mu = regularity.decay_exponent_bound(args.n, args.s) - 0.1
    rho = np.geomspace(args.rho_min, args.rho_max, 120)
    vals = spectral.evaluate(uf, rho)
    C = regularity.decay_envelope_constant(lambda r: spectral.evaluate(uf, r), mu, rho)

    print(f"lambda_hat = {lam_hat:.6f} (solved at 0.995*lambda_hat)")
    print(f"envelope exponent mu = {mu:.4f}, constant C = {C:.6g}")

    with open(args.out, "w") as fh:
        fh.write("rho,u,envelope\n")
        for r, v in zip(rho, vals):
            fh.write(f"{r:.17g},{v:.17g},{C * r ** (-mu):.17g}\n")
    print(f"wrote {len(rho)} samples to {args.out}")


if __name__ == "__main__":
    main()
