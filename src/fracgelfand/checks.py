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
    even quartics h."""
    grid = np.linspace(0.0, 1.0, 200)
    worst = np.inf
    for _ in range(20):
        coef = rng.uniform(0.0, 1.0, size=4)
        h = spectral.analyze(basis, lambda r: np.polyval(coef, r ** 2))
        u = spectral.inv_frac_laplacian(h)
        worst = min(worst, float(np.min(spectral.evaluate(u, grid))))
    return worst


def gram_error(basis):
    """max |G - I| for the Gram matrix of the basis under its quadrature rule."""
    G = (basis.phi_table * basis.quad_weights) @ basis.phi_table.T
    return float(np.max(np.abs(G - np.eye(basis.K))))


def riesz_bound_ratio(points, f):
    """Largest |u(x)| / (C(n,s) R(lambda f(u))(x)) over the points and 20
    radii in [0.02, 0.95]."""
    basis = points[0].u.basis
    C = extension.poisson_constant(basis.n, basis.s)
    nodes = branchsolve._NonlinearTerm(basis, f)._nonlinear_nodes
    hs = [spectral.analyze(basis, p.lam * f.eval(nodes(p.u.c))) for p in points]
    worst = 0.0
    for x in np.linspace(0.02, 0.95, 20):
        bounds = C * extension.riesz_potential_radial(hs, float(x))
        for p, bound in zip(points, bounds):
            worst = max(worst, abs(spectral.evaluate(p.u, float(x))) / bound)
    return worst


def lemma_a_worst(n, s):
    """(margin, beta): the smallest 1 - beta C(n,s) A(n,s,beta) over
    beta in {1/2, n/2, 9n/10}, with A refined to 1e-4."""
    return min(
        (regularity.lemma_a_margin(n, s, beta), beta)
        for beta in (0.5, n / 2.0, 0.9 * n)
    )


def boundary_rate(basis):
    """Fitted boundary decay exponent of zeta0 = (-Delta)^(-s) 1."""
    return regularity.boundary_decay_rate(spectral._zeta0(basis))


def max_radial_slope(points):
    """Largest du/drho over the points at 100 radii in [0.05, 0.95].

    Truncation ringing pollutes the derivative series near the axis and the
    boundary, so monotonicity is checked on resolved radii.
    """
    if not points:
        raise ValueError("no branch points")
    radii = np.linspace(0.05, 0.95, 100)
    return max(float(np.max(spectral.evaluate_deriv(p.u, radii))) for p in points)


def weighted_key_ratio(br):
    """Ratio of the weighted v_rho integral at the fold to the point before it."""
    idx = br.fold_index if br.fold_index is not None else len(br.points) - 1
    if idx < 1:
        raise ValueError(f"no branch point before the fold (walk: {br.stop})")
    spec = extension.CutoffSpec(
        alpha=1.0 + math.sqrt(br.points[idx].u.basis.n - 1.0) - 0.1, epsilon=0.01, R=5.0
    )
    vals = [
        extension.weighted_vrho_integral(p.u, spec)
        for p in (br.points[idx - 1], br.points[idx])
    ]
    return vals[1] / vals[0] if vals[0] else 1.0


def stability_margin(points):
    """Smallest lhs - rhs of the weighted stability inequality over the points."""
    spec = extension.CutoffSpec(alpha=1.0, epsilon=0.05, R=3.0)
    worst = np.inf
    for p in points:
        lhs, rhs = extension.stability_weighted_inequality(p.u, spec)
        worst = min(worst, lhs - rhs)
    return worst


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
        rhs = p.lam * term(term._nonlinear_nodes(p.u.c))[0]
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst
