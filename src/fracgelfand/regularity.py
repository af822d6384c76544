"""Quantitative regularity checks: critical dimension, decay envelopes, the
weighted kernel constant A(n, s, beta) and its sign condition, and boundary
rates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import extension, spectral


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


def boundary_decay_rate(u, rho_lo=0.99, rho_hi=0.9999, n_pts=60):
    """Fitted exponent of u(rho) against dist = 1 - rho near the boundary."""
    d = np.geomspace(1.0 - rho_hi, 1.0 - rho_lo, n_pts)
    vals = u(1.0 - d) if callable(u) else spectral.evaluate(u, 1.0 - d)
    if np.any(vals <= 0):
        raise ValueError("boundary fit needs positive samples")
    slope = np.polyfit(np.log(d), np.log(vals), 1)[0]
    return float(slope)


def _panel_nodes(edges, order):
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = np.concatenate(
        [0.5 * (x + 1.0) * (b - a) + a for a, b in zip(edges[:-1], edges[1:])]
    )
    weights = np.concatenate(
        [0.5 * w * (b - a) for a, b in zip(edges[:-1], edges[1:])]
    )
    return nodes, weights


def _a_theta_integral(n, s, r, y):
    """Innermost angular integral of the A-kernel, vectorized over radii.

    T_i = int_0^pi sin^(n-2)t (y^2 + (r_i-1)^2 + 2 r_i (1-cos t))^(-p) dt
        = B(1/2, (n-1)/2) a_i^(-p) 2F1(p/2, (p+1)/2; n/2; z_i),
    with p = (n+2-2s)/2, a_i = 1 + r_i^2 + y^2 and z_i = (2 r_i / a_i)^2
    (Gradshteyn & Ryzhik 3.665, DLMF 15).  Toward the corner (r, y) = (1, 0),
    q = y^2 + (r-1)^2 -> 0 and 1 - z = q (a + 2r) / a^2 ~ q, where 2F1 grows
    like (1-z)^(s-3/2).  Rounding z to double then costs a relative error of
    about 2e-16 / q: against adaptive quadrature, 2e-11 at q = 1e-5 and
    2e-8 at q = 1e-8.
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


def a_constant(n, s, beta, rel_tol=1e-4, order=8, max_level=4):
    """The weighted kernel constant A(n, s, beta).

    A = int_{R^n x (0,inf)} y^(3-2s) / [(|x|^2+y^2)^((beta+2)/2)
        (y^2+|x-e|^2)^((n+2-2s)/2)] dx dy,
    reduced by axial symmetry to a (r, theta, y) integral carrying |S^(n-2)|,
    with the theta integral in closed form (_a_theta_integral).
    The (r, y) quadrature is graded toward the two singular corners (0,0) and
    (1,0) and refined until successive estimates differ by < rel_tol.
    """
    if not (0 < beta < n):
        raise ValueError("need 0 < beta < n")
    if not (0 < s < 1):
        raise ValueError("need s in (0, 1)")

    def estimate(m):
        # radial panels: graded toward r=0 and r=1, algebraic tail beyond r=4
        g = np.linspace(0.0, 1.0, m + 1) ** 2
        edges_r = np.unique(
            np.concatenate([0.5 * g, 1.0 - 0.5 * g[::-1], 1.0 + 3.0 * g])
        )
        r_nodes, r_w = _panel_nodes(edges_r, order)
        # map the tail (4, inf) via r = 4/t; the transformed density carries
        # a t^(beta-1) factor at t=0, absorbed by power grading of the edges
        grading = min(max(1.0, 3.0 / beta), 24.0)
        t_edges = np.linspace(0.0, 1.0, m + 1) ** grading
        t_nodes, t_w = _panel_nodes(t_edges, order)
        tail_r = 4.0 / t_nodes
        tail_w = 4.0 / t_nodes ** 2 * t_w
        r_all = np.concatenate([r_nodes, tail_r])
        w_all = np.concatenate([r_w, tail_w])
        # vertical: graded toward y=0, tail via y = 4/t
        edges_y = 4.0 * np.linspace(0.0, 1.0, 2 * m + 1) ** 3
        y_nodes, y_w = _panel_nodes(edges_y, order)
        y_all = np.concatenate([y_nodes, 4.0 / t_nodes])
        wy_all = np.concatenate([y_w, tail_w])
        total = 0.0
        for y, wy in zip(y_all, wy_all):
            if y <= 0:
                continue
            Ts = _a_theta_integral(n, s, r_all, y)
            vals = (
                r_all ** (n - 1.0)
                * (r_all ** 2 + y * y) ** (-(beta + 2.0) / 2.0)
                * Ts
            )
            total += wy * y ** (3.0 - 2.0 * s) * float(np.sum(w_all * vals))
        return spectral.sphere_area(n - 1) * total

    prev = estimate(6)
    for level in range(1, max_level + 1):
        cur = estimate(6 * 2 ** level)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise extension.QuadratureError(
        f"A(n,s,beta) refinement did not reach {rel_tol:.1e} "
        f"(last estimates {prev:.6e})"
    )


def lemma_a_margin(n, s, beta, **kwargs):
    """Sign-condition margin 1 - beta * C(n,s) * A(n,s,beta); strictly positive."""
    return 1.0 - beta * extension.poisson_constant(n, s) * a_constant(
        n, s, beta, **kwargs
    )
