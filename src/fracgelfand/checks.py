"""The verification quantities, one function each.

Each function computes one number from the branch points, basis or random
generator it is given; the thresholds that number must meet belong to the
caller.  `fracgelfand verify` and the acceptance suite call the same
functions, each with its own parameters.
"""

from __future__ import annotations

import math

import numpy as np

from . import branchsolve, extension, regularity, spectral


def stable_points(br, count):
    """Up to `count` evenly spaced branch points before the fold with nu_1 > 0."""
    idx = br.fold_index if br.fold_index is not None else len(br.points)
    pts = [p for p in br.points[:idx] if p.nu1 > 0]
    if not pts:
        raise ValueError(f"no stable branch points before the fold (walk: {br.stop})")
    step = max(1, len(pts) // count)
    return pts[::step][:count]


def flux_constant_error(s):
    """Relative error of the extrapolated flux constant c(s) against its closed form."""
    ref = extension.flux_constant_analytic(s)
    return abs(extension.flux_constant(s) - ref) / ref


def energy_identity_error(n, s, rng):
    """Relative gap between the extension energy of a random 8-mode trace and
    c(s) ||u||_H^2."""
    basis = spectral.build_basis(n, s, 8, 64)
    u = spectral.RadialCoeffs(basis, rng.normal(size=8))
    e = extension.extension_energy(u)
    ref = extension.flux_constant_analytic(s) * spectral.h_norm(u) ** 2
    return abs(e - ref) / ref


def max_principle_min(basis, rng):
    """Smallest value on [0, 1] of (-Delta)^(-s) h over 20 random nonnegative
    even quartics h, all 20 synthesized on one table of basis values."""
    grid = np.linspace(0.0, 1.0, 200)
    us = []
    for _ in range(20):
        coef = rng.uniform(0.0, 1.0, size=4)
        h = spectral.analyze(basis, lambda r: np.polyval(coef, r ** 2))
        us.append(spectral.inv_frac_laplacian(h).c)
    return float(np.min(np.stack(us) @ basis.phi_matrix(grid)))


def gram_error(basis):
    """max |G - I| for the Gram matrix of the basis under its quadrature rule."""
    G = spectral._gram(basis.phi_table, basis.quad_weights)
    return float(np.max(np.abs(G - np.eye(basis.K))))


def riesz_bound_ratio(points, f):
    """Largest |u(x)| / (C(n,s) R(lambda f(u))(x)) over the points and 20
    radii in [0.02, 0.95]."""
    basis = points[0].u.basis
    C = extension.poisson_constant(basis.n, basis.s)
    term = branchsolve._NonlinearTerm(basis, f)
    hs = [spectral.RadialCoeffs(basis, p.lam * term.project(p.u.c)[1]) for p in points]
    radii = np.linspace(0.02, 0.95, 20)
    u_abs = np.abs(np.stack([p.u.c for p in points]) @ basis.phi_matrix(radii))
    bounds = C * extension.riesz_potential_radial(hs, radii)
    return float(np.max(u_abs / bounds))


def lemma_a_worst(n, s):
    """(margin, beta): the smallest 1 - beta C(n,s) A(n,s,beta) over
    beta in {1/2, n/2, 9n/10}, with A in closed form."""
    return min(
        (regularity.lemma_a_margin(n, s, beta), beta)
        for beta in (0.5, n / 2.0, 0.9 * n)
    )


def boundary_rate(basis):
    """Fitted boundary decay exponent of zeta0 = (-Delta)^(-s) 1."""
    return regularity.boundary_decay_rate(spectral._zeta0(basis))


def max_radial_slope(points):
    """Largest du/drho over the points at 100 radii in [0.05, 0.95].

    du/drho is the raw, unfiltered derivative series, so the margin holds
    its truncation ringing as well as the slope: at n = 3, K = 64, t = 0.25
    it reads +1.4e-2 at rho = 0.05, where the filtered slope is negative.
    The interval only keeps clear of the axis and the boundary; it is not
    where the basis resolves the derivative.
    """
    if not points:
        raise ValueError("no branch points")
    radii = np.linspace(0.05, 0.95, 100)
    C = np.stack([p.u.c for p in points])
    return float(np.max(C @ points[0].u.basis.phi_prime_matrix(radii)))


def weighted_key_ratio(br):
    """Ratio of the weighted v_rho integral at the fold to the point before it."""
    idx = br.fold_index if br.fold_index is not None else len(br.points) - 1
    if idx < 1:
        raise ValueError(f"no branch point before the fold (walk: {br.stop})")
    spec = extension.CutoffSpec(
        alpha=1.0 + math.sqrt(br.points[idx].u.basis.n - 1.0) - 0.1, epsilon=0.01, R=5.0
    )
    vals = extension.weighted_vrho_integral([br.points[idx - 1].u, br.points[idx].u], spec)
    return float(vals[1] / vals[0]) if vals[0] else 1.0


def stability_margin(points):
    """Smallest lhs - rhs of the weighted stability inequality over the points."""
    spec = extension.CutoffSpec(alpha=1.0, epsilon=0.05, R=3.0)
    sides = extension.stability_weighted_inequality([p.u for p in points], spec)
    return float(np.min(sides[:, 0] - sides[:, 1]))


def y_decay_rate(u):
    """Fitted exponential rate of |v(0, y)| over y sqrt(mu_1) in [2, 10]."""
    ys = np.linspace(2.0, 10.0, 40) / math.sqrt(u.basis.mu[0])
    vals = np.abs(extension.extension_eval(u, 0.0, ys))
    return -np.polyfit(ys, np.log(vals), 1)[0]


def phi1_identity_error(points, f):
    """Largest relative gap in mu_1^s c_1 = lambda (P f(u))_1 over the points."""
    basis = points[0].u.basis
    term = branchsolve._NonlinearTerm(basis, f)
    worst = 0.0
    for p in points:
        lhs = basis.mu[0] ** basis.s * p.u.c[0]
        rhs = p.lam * term.project(p.u.c)[1][0]
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst
