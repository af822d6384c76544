"""Special-function kernel: gamma and the positive zeros of Bessel J.

A thin wrapper around scipy.special plus a robust real-order zero finder
(McMahon asymptotic guesses refined by Newton, with bisection fallback).
Orders are restricted to [0, 60].
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


class ZeroFindingError(RuntimeError):
    """Raised when a Bessel zero cannot be located to tolerance."""

    def __init__(self, nu, index, message):
        super().__init__(f"zero j_({nu},{index}): {message}")
        self.nu = nu
        self.index = index


def gamma(x):
    """Gamma function for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("gamma requires x > 0")
    out = special.gamma(x)
    return float(out) if out.ndim == 0 else out


def _mcmahon_guess(nu, k):
    # McMahon's expansion for the k-th positive zero of J_nu.
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return (
        beta
        - (mu - 1) / (8 * beta)
        - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)
    )

def _newton_refine(nu, x0, lo, hi, tol=1e-13, max_iter=60):
    """Newton iteration on J_nu from x0, falling back to bisection on [lo, hi]."""
    f_lo = special.jv(nu, lo)
    f_hi = special.jv(nu, hi)
    x = x0
    for _ in range(max_iter):
        f = special.jv(nu, x)
        if abs(f) <= 1e-15:
            return x
        step = f / special.jvp(nu, x)
        x_new = x - step
        if not (lo < x_new < hi):
            # bisect the sign-bracketing interval instead
            if f_lo * f_hi > 0:
                break
            mid = 0.5 * (lo + hi)
            if special.jv(nu, mid) * f_lo <= 0:
                hi = mid
                f_hi = special.jv(nu, mid)
            else:
                lo = mid
                f_lo = special.jv(nu, mid)
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tol * max(1.0, abs(x)):
            return x_new
        x = x_new
    # final bisection polish
    if f_lo * f_hi <= 0:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if special.jv(nu, mid) * f_lo <= 0:
                hi = mid
            else:
                lo = mid
                f_lo = special.jv(nu, lo)
            if hi - lo < tol:
                return 0.5 * (lo + hi)
    return x


def bessel_j_zeros(nu, count):
    """First `count` positive zeros of J_nu, strictly increasing.

    McMahon initial guesses refined by Newton; each returned zero satisfies
    |J_nu(j)| <= 1e-12.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (0 <= nu <= 60):
        raise ValueError("order must lie in [0, 60]")
    zeros = np.empty(count)
    prev = 0.0
    for k in range(1, count + 1):
        x0 = _mcmahon_guess(nu, k)
        # for small k and large nu the first zero exceeds nu; keep guess sane
        x0 = max(x0, nu + 1.8 * nu ** (1 / 3) if k == 1 and nu > 1 else x0)
        lo = max(prev + 1e-10, x0 - 1.5)
        hi = x0 + 1.5
        # widen until the bracket changes sign (guards weak McMahon guesses)
        for _ in range(60):
            if special.jv(nu, lo) * special.jv(nu, hi) <= 0:
                break
            lo = max(prev + 1e-10, lo - 0.5)
            hi += 0.5
        z = _newton_refine(nu, x0, lo, hi)
        if abs(special.jv(nu, z)) > 1e-12 or z <= prev:
            raise ZeroFindingError(nu, k, f"residual {special.jv(nu, z):.3e}")
        zeros[k - 1] = z
        prev = z
    return zeros
