"""Special-function kernel: the positive zeros of Bessel J.

The zeros of J_nu for real orders in [0, MAX_ORDER], which scipy.special
gives only for integer orders: sign changes of J_nu on a unit grid bracket
them, and array Newton steps refine them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

MAX_ORDER = 60  # the largest order bessel_j_zeros accepts


class ZeroFindingError(RuntimeError):
    """Raised when a Bessel zero cannot be located to tolerance."""

    def __init__(self, nu, index, message):
        super().__init__(f"zero j_({nu},{index}): {message}")
        self.nu = nu
        self.index = index


def bessel_j_zeros(nu, count):
    """First `count` positive zeros of J_nu, strictly increasing.

    One vectorized search.  J_nu is evaluated once on the unit grid
    x = nu, nu + 1, ..., (count + nu/2 + 1) pi.  Each sign change on it
    brackets exactly one zero: J_nu > 0 on (0, nu], and consecutive zeros
    lie more than 3 apart at every nu >= 0 (more than pi for nu > 1/2,
    3.115 at nu = 0; DLMF 10.21).  Each zero starts at the secant point of
    its bracket and takes array Newton steps J_nu / J_nu' until every step
    is within 1e-13 of its zero, at most 10 of them.  Every returned zero
    lies in its bracket and has |J_nu(j)| <= 1e-12.

    The bracket count is the check that no zero is skipped: a residual
    test alone passes at any zero, also when the search has landed on
    j_(nu,k+1) in place of j_(nu,k), and a basis built on such zeros is
    still orthonormal.  The zeros define the basis; every table of J
    values goes through `spectral._bessel_j` instead.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (0 <= nu <= MAX_ORDER):
        raise ValueError(f"order must lie in [0, {MAX_ORDER}]")
    x = nu + np.arange(math.ceil((count + 0.5 * nu + 1.0) * math.pi - nu) + 1.0)
    v = special.jv(nu, x)
    i = np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))
    if i.size < count:
        raise ZeroFindingError(nu, i.size + 1, f"only {i.size} sign changes up to {x[-1]}")
    i = i[:count]
    lo, hi = x[i], x[i + 1]
    z = lo - v[i] * (hi - lo) / (v[i + 1] - v[i])
    for _ in range(10):
        step = special.jv(nu, z) / special.jvp(nu, z)
        z = z - step
        done = np.abs(step) <= 1e-13 * z
        if done.all():
            break
    else:
        k = int(np.argmax(~done))
        raise ZeroFindingError(nu, k + 1, f"Newton step {step[k]:.3e} after 10 steps")
    residual = np.abs(special.jv(nu, z))
    bad = (z < lo) | (z > hi) | (residual > 1e-12) | (np.diff(z, prepend=0.0) <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ZeroFindingError(nu, k + 1, f"{z[k]} in [{lo[k]}, {hi[k]}], "
                                          f"residual {residual[k]:.3e}")
    return z
