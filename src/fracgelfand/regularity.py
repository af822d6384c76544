"""Quantitative regularity checks: critical dimension, decay envelopes, the
weighted kernel constant A(n, s, beta) and its sign condition, and boundary
rates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

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


def near_extremal_envelope(basis, f, rho_range):
    """Decay envelope of the minimal solution just below the Picard threshold.

    lambda-hat is the lower end of `branchsolve.picard_bisect` on [0.1, 8]
    to width 1e-11 (40 halvings).  The minimal solution at 0.995 lambda-hat
    is filtered, and C is its envelope constant on rho_range for the
    exponent mu, 0.1 below `decay_exponent_bound`.  Returns
    (lambda_hat, filtered solution, mu, C).
    """
    lam_hat, _ = branchsolve.picard_bisect(basis, f, 0.1, 8.0, width=1e-11)
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


def _a_theta_integral(n, s, r, y):
    """Innermost angular integral of the A-kernel, vectorized over r and y.

    T = int_0^pi sin^(n-2)t (y^2 + (r-1)^2 + 2 r (1-cos t))^(-p) dt
      = B(1/2, (n-1)/2) a^(-p) 2F1(p/2, (p+1)/2; n/2; z),
    with p = (n+2-2s)/2, a = 1 + r^2 + y^2 and z = (2 r / a)^2
    (Gradshteyn & Ryzhik 3.665, DLMF 15); r and y broadcast.  Toward the
    corner (r, y) = (1, 0), q = y^2 + (r-1)^2 -> 0 and 1 - z = q (a + 2r) / a^2
    ~ q, where 2F1 grows like (1-z)^(s-3/2).  Rounding z to double then costs
    a relative error of about 2e-16 / q: against adaptive quadrature, 2e-11
    at q = 1e-5 and 2e-8 at q = 1e-8.  Any grading of a quadrature toward
    (1, 0) must respect that limit: a node at q carries 2e-16 / q of its own
    weight as error, however fine the grading.
    """
    r = np.asarray(r, dtype=float)
    p = (n + 2.0 - 2.0 * s) / 2.0
    a = 1.0 + r * r + y * y
    z = (2.0 * r / a) ** 2
    return (
        special.beta(0.5, (n - 1.0) / 2.0)
        * a ** (-p)
        * special.hyp2f1(p / 2.0, (p + 1.0) / 2.0, n / 2.0, z)
    )


def _panels(edges):
    """8-point Gauss-Legendre rule on each panel between successive edges."""
    return map(np.ravel, spectral._gauss_rule(8, edges[:-1], edges[1:]))


# values of the A integrand per evaluated block: keeps each block's
# temporaries to a few hundred kB at every refinement level
_A_BLOCK = 8192


def _tensor_sum(fn, u, wu, v, wv):
    """sum_ij wu_i wv_j fn(u_i, v_j), evaluated in blocks of rows of u."""
    rows = max(1, _A_BLOCK // v.size)
    return sum(
        float(wu[i:i + rows] @ (fn(u[i:i + rows, None], v) @ wv))
        for i in range(0, u.size, rows)
    )


def a_constant(n, s, beta, rel_tol=1e-4):
    """The weighted kernel constant A(n, s, beta).

    A = int_{R^n x (0,inf)} y^(3-2s) / [(|x|^2+y^2)^((beta+2)/2)
        (y^2+|x-e|^2)^((n+2-2s)/2)] dx dy,
    reduced by axial symmetry to a (r, theta, y) integral carrying |S^(n-2)|,
    with the theta integral in closed form (_a_theta_integral).  What is left
    is a quarter-plane integral of F(r, y) = y^(3-2s) r^(n-1)
    (r^2+y^2)^(-(beta+2)/2) T(r, y), summed with 8-point Gauss panels; m sets
    the panel count.

    - Near field [0, 4]^2: r-edges 0.5 g^6 on [0, 1/2], 1 - 0.5 g^2 on
      [1/2, 1] and 1 + 3 g^2 on [1, 4], g = linspace(0, 1, m+1); y-edges
      4 linspace(0, 1, 2m+1)^6.  The sixth powers grade into the corner
      (0, 0), where F is O(rho^(n-2s-beta)) and singular for
      beta > n - 2s; the squares grade toward r = 1, next to the kernel's
      peak at (1, 0).
    - Far field max(r, y) > 4: (r, y) = (rho, theta rho) and
      (theta rho, rho), theta in [0, 1] on m panels graded as g^2, with
      Jacobian rho.  There F rho decays like rho^(-1-beta), and
      rho = 4 tau^(-1/beta), d rho = (4/beta) tau^(-1/beta-1) d tau maps it to
      a bounded integrand on tau in (0, 1], m uniform panels.  Without the
      map, power grading of the tail converges only algebraically (2.7e-4,
      3.4e-5, 4.2e-6 at m = 6, 12, 24 for (3, 1/2, 1/2)).

    The estimate starts at m = 6 and doubles m, at most four times, until
    successive estimates differ by < rel_tol.  The first refinement
    suffices because what is left to resolve lies at the two graded corners:
    the tail is smooth in tau and the (1, 0) peak is bounded, since
    y^(3-2s) T stays O(1) there.  Every criterion-9 case, and (n, s) in
    {4, 6, 20} x {0.3, 0.5, 0.9} at beta in {1/2, n/2, 9n/10}, stops at
    m = 12 (18,432 and 73,728 nodes).  The m = 6 and m = 12 estimates are
    at most 4.4e-5 apart, and the value returned is within 4.0e-6 of an
    adaptive reference, both at (4, 0.9, 3.6).
    """
    if not (0 < beta < n):
        raise ValueError("need 0 < beta < n")
    if not (0 < s < 1):
        raise ValueError("need s in (0, 1)")

    def density(r, y):
        return (
            y ** (3.0 - 2.0 * s)
            * r ** (n - 1.0)
            * (r * r + y * y) ** (-(beta + 2.0) / 2.0)
            * _a_theta_integral(n, s, r, y)
        )

    def far(rho, theta):
        return density(rho, theta * rho) + density(theta * rho, rho)

    def estimate(m):
        g = np.linspace(0.0, 1.0, m + 1)
        r, wr = _panels(np.concatenate(
            [0.5 * g ** 6, 1.0 - 0.5 * g[-2::-1] ** 2, 1.0 + 3.0 * g[1:] ** 2]
        ))
        y, wy = _panels(4.0 * np.linspace(0.0, 1.0, 2 * m + 1) ** 6)
        tau, wt = _panels(g)
        rho = 4.0 * tau ** (-1.0 / beta)
        # d rho = rho / (beta tau) d tau, times the Jacobian rho
        w_rho = rho * rho / (beta * tau) * wt
        theta, w_theta = _panels(g ** 2)
        total = _tensor_sum(density, r, wr, y, wy)
        total += _tensor_sum(far, rho, w_rho, theta, w_theta)
        return spectral.sphere_area(n - 1) * total

    estimates = [estimate(6)]
    for level in range(1, 5):
        estimates.append(estimate(6 * 2 ** level))
        prev, cur = estimates[-2:]
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur
    raise extension.QuadratureError(
        f"A(n,s,beta) refinement did not reach {rel_tol:.1e} "
        f"(last estimates {prev:.17g}, {cur:.17g})"
    )


def lemma_a_margin(n, s, beta):
    """Sign-condition margin 1 - beta * C(n,s) * A(n,s,beta); strictly positive."""
    return 1.0 - beta * extension.poisson_constant(n, s) * a_constant(n, s, beta)
