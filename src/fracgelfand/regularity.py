"""Quantitative regularity checks: critical dimension, decay envelopes, the
weighted kernel constant A(n, s, beta) in closed form and its sign
condition, and boundary rates.
"""

from __future__ import annotations

import math

import numpy as np

from . import branchsolve, extension, spectral


def critical_dimension(s):
    """Dimension threshold 2(s + 2 + sqrt(2(s+1))); below it the extremal
    solution is bounded for every admissible reaction."""
    if not (0 < s <= 1):
        raise ValueError("s must lie in (0, 1]")
    return 2.0 * (s + 2.0 + math.sqrt(2.0 * (s + 1.0)))


def decay_exponent_bound(n, s):
    """Upper decay exponent n/2 - 1 - sqrt(n-1) - s for supercritical extremals."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return n / 2.0 - 1.0 - math.sqrt(n - 1.0) - s


def fit_decay_exponent(u, rho_range):
    """Log-log least-squares fit u(rho) ~ C rho^(-mu) over the given radii.

    Returns (mu_fit, C_fit, r_squared).
    """
    rho = np.asarray(rho_range, dtype=float)
    vals = u(rho) if callable(u) else spectral.evaluate(u, rho)
    if np.any(vals <= 0):
        raise ValueError("decay fit needs positive samples")
    x = np.log(rho)
    yv = np.log(vals)
    slope, intercept = np.polyfit(x, yv, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((yv - pred) ** 2))
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -float(slope), float(math.exp(intercept)), r2


def decay_envelope_constant(u, mu, rho_range):
    """Smallest C with u(rho) <= C rho^(-mu) on the sampled range."""
    rho = np.asarray(rho_range, dtype=float)
    vals = u(rho) if callable(u) else spectral.evaluate(u, rho)
    return float(np.max(vals * rho ** mu))


# relative offset of the two checks about the solved fold lambda_F: the
# monotone iteration must converge at lambda_F (1 - FOLD_CHECK) and decide
# that there is no solution at lambda_F (1 + FOLD_CHECK).  The upper end
# decides only if it lies more than FOLD_MARGIN above the fold that its own
# fold solve finds, within 6e-13 relative of lambda_F at n = 20 (K = 512
# and 1024): at 1e-9 that turns on rounding (with lambda_F itself as the
# fold the budget runs out), while 1e-8 and 1e-6 decide at both ends.
# Under a weight cut set by conditioning (rho < 0.11 at n = 20) the lower
# end converges at 1e-6 but runs out of its budget at 1e-8.
FOLD_CHECK = 1e-6


def _solved_fold(basis, f, lo, hi):
    """lambda_F, the fold carried by the first DivergenceSignal that carries one
    in a bisection of the monotone iteration's threshold on [lo, hi].

    A midpoint where the iteration converges replaces lo, one where it
    raises without a fold (blew up, or ran out of its budget) replaces hi.
    Once hi - lo is within FOLD_MARGIN of hi, no midpoint can lie far enough
    above a fold for the iteration to report it, so the bisection ends there
    and raises RuntimeError naming its last bracket.
    """
    while hi - lo > branchsolve.FOLD_MARGIN * hi:
        mid = 0.5 * (lo + hi)
        try:
            branchsolve.monotone_iterate(basis, mid, f)
            lo = mid
        except branchsolve.DivergenceSignal as exc:
            if exc.fold_lambda is not None:
                return exc.fold_lambda
            hi = mid
    raise RuntimeError(f"no fold solved: the monotone iteration's threshold lies in "
                       f"[{lo}, {hi}], within FOLD_MARGIN")


def near_extremal_envelope(basis, f, rho_range):
    """Decay envelope of the minimal solution just below the extremal parameter.

    lambda-hat is lambda_F, the solved fold of the first bisection step on
    [0.1, 8] whose monotone iteration reports one (`_solved_fold`): a
    Newton solution with |nu1| <= FOLD_NU1_TOL, where a semistable solution
    ends the minimal branch.  The monotone route confirms it: the iteration
    converges at lambda_F (1 - FOLD_CHECK) and decides that there is no
    solution at lambda_F (1 + FOLD_CHECK); otherwise RuntimeError names the
    end that failed.  The minimal solution at 0.995 lambda-hat is filtered,
    and C is its envelope constant on rho_range for the exponent mu, 0.1
    below `decay_exponent_bound`.  Returns (lambda_hat, filtered solution,
    mu, C).
    """
    lam_hat = _solved_fold(basis, f, 0.1, 8.0)
    below, above = lam_hat * (1.0 - FOLD_CHECK), lam_hat * (1.0 + FOLD_CHECK)
    try:
        branchsolve.monotone_iterate(basis, below, f)
    except branchsolve.DivergenceSignal as exc:
        raise RuntimeError(f"the solved fold {lam_hat} is not confirmed below: {exc}") from exc
    try:
        branchsolve.monotone_iterate(basis, above, f)
    except branchsolve.DivergenceSignal as exc:
        if exc.exhausted:
            raise RuntimeError(f"the solved fold {lam_hat} is not confirmed above: {exc}") from exc
    else:
        raise RuntimeError(f"the solved fold {lam_hat} is not confirmed above: the "
                           f"monotone iteration converges at lambda={above}")
    uf = spectral.filtered(branchsolve.monotone_iterate(basis, 0.995 * lam_hat, f))
    mu = decay_exponent_bound(basis.n, basis.s) - 0.1
    return lam_hat, uf, mu, decay_envelope_constant(uf, mu, rho_range)


def boundary_decay_rate(u):
    """Fitted exponent of u(rho) against dist = 1 - rho, at 60 distances in
    [1e-4, 1e-2]."""
    d = np.geomspace(1.0 - 0.9999, 1.0 - 0.99, 60)
    vals = u(1.0 - d) if callable(u) else spectral.evaluate(u, 1.0 - d)
    if np.any(vals <= 0):
        raise ValueError("boundary fit needs positive samples")
    slope = np.polyfit(np.log(d), np.log(vals), 1)[0]
    return float(slope)


def a_constant(n, s, beta):
    """The weighted kernel constant A(n, s, beta), in closed form.

    A = int_{R^n x (0,inf)} y^(3-2s) / [(|x|^2+y^2)^((beta+2)/2)
        (y^2+|x-e|^2)^((n+2-2s)/2)] dx dy,  |e| = 1,

    equals (2 - 2s) / (beta C (n - beta + 2 - 2s)), C = C(n, s) the
    Poisson-kernel constant (`extension.poisson_constant`), for 0 < s < 1
    and 0 < beta < n.  Derivation, by Fourier transform in x
    (f^(xi) = int f e^(-i x.xi) dx):

    - C A = int_0^inf y (P(., y) * G_y)(e) dy, where
      P(x, y) = C y^(2-2s) (|x|^2+y^2)^(-(n+2-2s)/2) is the half-space
      Poisson kernel of order 1 - s and G_y = (|x|^2+y^2)^(-gamma),
      gamma = (beta+2)/2.
    - P^(xi, y) = (2^s / Gamma(1-s)) t^(1-s) K_{1-s}(t) with t = |xi| y, and
      G_y^(xi) = (2 pi^(n/2) / Gamma(gamma)) (|xi| / 2y)^mu K_mu(y |xi|),
      mu = gamma - n/2.
    - With y = t / |xi|, int_0^inf y P^ G_y^ dy is
      2^(s+1-mu) pi^(n/2) / (Gamma(1-s) Gamma(gamma)) |xi|^(beta-n)
      int_0^inf t^(2-s-mu) K_{1-s}(t) K_mu(t) dt, and Gradshteyn & Ryzhik
      6.576.4 gives the t-integral as
      2^(-s-mu) Gamma(2-s) Gamma(1-mu) / (2 - s - mu); it converges exactly
      when beta < n.
    - (2 pi)^(-n) int |xi|^(beta-n) e^(i e.xi) d xi is the Riesz kernel
      Gamma(beta/2) / (2^(n-beta) pi^(n/2) Gamma((n-beta)/2)) at |e| = 1
      (Stein, Singular Integrals, 1970, ch. V, sec. 1).
    - With 1 - mu = (n - beta)/2, Gamma(gamma) = (beta/2) Gamma(beta/2) and
      2 - s - mu = (n - beta + 2 - 2s)/2 the Gamma factors cancel:
      C A = 2 (1 - s) / (beta (n - beta + 2 - 2s)).

    So the sign-condition margin is 1 - beta C A = (n - beta) / (n - beta +
    2 - 2s), positive for every 0 < beta < n.  It meets the adaptive polar
    quadrature of the benchmark's references (`bench/references.py`) to
    1.1e-12.
    """
    if not (0 < beta < n):
        raise ValueError("need 0 < beta < n")
    if not (0 < s < 1):
        raise ValueError("need s in (0, 1)")
    return (2.0 - 2.0 * s) / (
        beta * extension.poisson_constant(n, s) * (n - beta + 2.0 - 2.0 * s)
    )


def lemma_a_margin(n, s, beta):
    """Sign-condition margin 1 - beta * C(n,s) * A(n,s,beta); strictly positive."""
    return 1.0 - beta * extension.poisson_constant(n, s) * a_constant(n, s, beta)
