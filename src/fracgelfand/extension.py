"""Cylinder extension of a radial function and the weighted integrals built on it.

A trace u = sum_k b_k phi_k extends to the half-cylinder B_1 x (0, inf) as
v(rho, y) = sum_k b_k phi_k(rho) g_k(y), where the vertical profile

    g_k(y) = c_k * y^s * K_s(sqrt(mu_k) * y),    g_k(0+) = 1,

solves the degenerate Bessel ODE selecting the decaying branch.  The weighted
flux -y^(1-2s) g_k'(y) tends to flux_constant(s) * mu_k^s at y = 0, which is
what realizes the fractional Laplacian as a boundary operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import spectral
from .specfun import gamma


class QuadratureError(RuntimeError):
    """A graded quadrature failed to stabilize."""


@dataclass(frozen=True)
class CutoffSpec:
    """Cutoff eta(rho, y) = rho^(1-alpha) * zeta_eps(rho) * psi_R(y)."""

    alpha: float
    epsilon: float
    R: float

    def __post_init__(self):
        if self.epsilon <= 0 or self.R <= 0:
            raise ValueError("epsilon and R must be positive")


@dataclass(frozen=True)
class ExtensionField:
    """Canonical extension of a radial trace."""

    u: spectral.RadialCoeffs

    @property
    def basis(self):
        return self.u.basis


def flux_constant_analytic(s):
    """Closed-form flux constant 2^(1-2s) * Gamma(1-s) / Gamma(s)."""
    if not (0 < s < 1):
        raise ValueError("s must lie in (0, 1)")
    return 2.0 ** (1.0 - 2.0 * s) * gamma(1.0 - s) / gamma(s)


def _profile_tables(basis, y):
    """(K, len(y)) tables of g_k and g_k' at the given heights y > 0.

    The norms invert the small-argument limit Gamma(s)/2 (sqrt(mu_k)/2)^(-s)
    of y^s K_s(sqrt(mu_k) y), so that g_k(0+) = 1; g_k' follows from
    d/dt [t^s K_s(t)] = -t^s K_{1-s}(t).
    """
    s = basis.s
    roots = np.sqrt(basis.mu)
    norms = 2.0 * (roots / 2.0) ** s / gamma(s)
    t = roots[:, None] * np.asarray(y, dtype=float)[None, :]
    g = norms[:, None] * t ** s * special.kv(s, t) / roots[:, None] ** s
    gp = -norms[:, None] * roots[:, None] ** (1.0 - s) * t ** s * special.kv(1.0 - s, t)
    return g, gp


def flux_constant(s, k_indices=(1, 2, 5), rel_tol=1e-5):
    """Flux constant c(s) = lim_{y->0} -y^(1-2s) g_k'(y) / mu_k^s.

    Extrapolated from a geometric sequence of heights (Neville elimination of
    the known correction exponents); the limit must be k-independent to
    rel_tol or the extrapolation is reported as non-convergent.
    """
    if not (0 < s < 1):
        raise ValueError("s must lie in (0, 1)")
    kmax = max(k_indices)
    basis = spectral.build_basis(3, s, kmax, quad_order=2 * kmax)
    exponents = sorted({2.0 - 2.0 * s, 2.0 * s, 2.0, 2.0 + 2.0 * s})
    values = []
    for k in k_indices:
        root = math.sqrt(basis.mu[k - 1])
        ys = 0.05 / root * 0.5 ** np.arange(8)
        gp = _profile_tables(basis, ys)[1][k - 1]
        F = -(ys ** (1.0 - 2.0 * s)) * gp / basis.mu[k - 1] ** s
        F = list(F)
        r = 0.5
        for p in exponents[: len(F) - 1]:
            F = [
                (F[i + 1] - r ** p * F[i]) / (1.0 - r ** p)
                for i in range(len(F) - 1)
            ]
        values.append(F[-1])
    values = np.asarray(values)
    spread = (values.max() - values.min()) / abs(values.mean())
    if spread > rel_tol:
        raise QuadratureError(
            f"flux-constant extrapolation k-dependent: spread {spread:.2e}"
        )
    return float(values.mean())


def extension_eval(field, rho, y):
    """v(rho, y) = sum_k b_k phi_k(rho) g_k(y); equals the trace at y = 0."""
    basis = field.basis
    rho = np.asarray(rho, dtype=float)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    phi = basis.phi_matrix(np.atleast_1d(rho))
    g, _ = _profile_tables(basis, np.where(y_arr > 0, y_arr, 1.0))
    g = np.where(y_arr[None, :] > 0, g, 1.0)
    vals = np.einsum("k,kr,ky->ry", field.u.c, phi, g)
    if np.ndim(rho) == 0 and np.ndim(y) == 0:
        return float(vals[0, 0])
    return vals.squeeze()


def vertical_grid(basis, panels=48, order=10, y_max=None):
    """Graded vertical quadrature for the y^(1-2s) weight.

    Substituting y = Y t^(1/(1-s)) turns y^(1-2s) dy into a linear-in-t
    measure; the returned weights contain the y^(1-2s) factor.
    """
    s = basis.s
    if y_max is None:
        y_max = 20.0 / math.sqrt(basis.mu[0])
    p = 1.0 / (1.0 - s)
    x, w = np.polynomial.legendre.leggauss(order)
    # cubic panel grading toward y=0 where v_y carries the y^(2s-1) layer
    edges = np.linspace(0.0, 1.0, panels + 1) ** 3
    t = np.concatenate(
        [0.5 * (x + 1) * (b - a) + a for a, b in zip(edges[:-1], edges[1:])]
    )
    tw = np.concatenate([0.5 * w * (b - a) for a, b in zip(edges[:-1], edges[1:])])
    y = y_max * t ** p
    wy = y_max ** (2.0 - 2.0 * s) / (1.0 - s) * t * tw
    return y, wy


def extension_energy(field, panels=48, order=10, y_max=None):
    """Weighted Dirichlet energy int_C y^(1-2s) |grad v|^2 dx dy.

    Tensorized quadrature: the basis radial rule times the graded vertical
    rule.  Softly checks against the spectral identity c(s) * ||u||_H^2.
    """
    basis = field.basis
    y, wy = vertical_grid(basis, panels=panels, order=order, y_max=y_max)
    g, gp = _profile_tables(basis, y)
    c = field.u.c
    # radial integrals against the volume weight are diagonal by orthonormality
    # only through phi; use explicit node tables to stay an independent route.
    phi = basis.phi_table
    dphi = basis.phi_prime_matrix(basis.quad_nodes)
    v_rho = (c[:, None] * dphi).T @ g      # (Q_r, Q_y)
    v_y = (c[:, None] * phi).T @ gp
    wr = basis.quad_weights
    integrand = v_rho ** 2 + v_y ** 2
    return float(wr @ integrand @ wy)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def cutoff_value(spec, rho, y):
    """eta(rho,y) = rho^(1-alpha) zeta_eps(rho) psi_R(y), with smoothstep ramps."""
    rho = np.asarray(rho, dtype=float)
    y = np.asarray(y, dtype=float)
    zeta = _smoothstep((rho - spec.epsilon) / spec.epsilon) * _smoothstep(
        (0.75 - rho) / 0.25
    )
    psi = _smoothstep(spec.R + 1.0 - y)
    with np.errstate(divide="ignore"):
        pref = np.where(rho > 0, rho, 1.0) ** (1.0 - spec.alpha)
    return pref * zeta * psi


def _cutoff_parts(spec, rho, y, h=1e-6):
    eta = cutoff_value(spec, rho[:, None], y[None, :])
    d_rho = (
        cutoff_value(spec, rho[:, None] + h, y[None, :])
        - cutoff_value(spec, rho[:, None] - h, y[None, :])
    ) / (2 * h)
    d_y = (
        cutoff_value(spec, rho[:, None], y[None, :] + h)
        - cutoff_value(spec, rho[:, None], y[None, :] - h)
    ) / (2 * h)
    return eta, d_rho, d_y


def _vrho_table(field, rho, y):
    basis = field.basis
    g, _ = _profile_tables(basis, y)
    dphi = basis.phi_prime_matrix(rho)
    return (field.u.c[:, None] * dphi).T @ g


def weighted_vrho_integral(field, spec, n_rho=400, order=10):
    """int_{rho <= 1/2} y^(1-2s) v_rho^2 rho^(-2 alpha) dx dy.

    Radial quadrature is graded toward the axis (v_rho = O(rho) keeps the
    integrand integrable for alpha < 1 + sqrt(n-1)); stability under
    refinement is checked and a divergence flag raised otherwise.
    """
    basis = field.basis
    vals = []
    for m in (n_rho, 2 * n_rho):
        x, w = np.polynomial.legendre.leggauss(m)
        t = 0.5 * (x + 1.0)
        tw = 0.5 * w
        # rho = 0.5 t^4 clusters nodes at the axis
        rho = 0.5 * t ** 4
        drho = 0.5 * 4.0 * t ** 3 * tw
        y, wy = vertical_grid(basis, panels=32, order=order)
        v_rho = _vrho_table(field, rho, y)
        wr = (
            spectral.sphere_area(basis.n)
            * rho ** (basis.n - 1.0 - 2.0 * spec.alpha)
            * drho
        )
        vals.append(float(wr @ v_rho ** 2 @ wy))
    if vals[0] != 0.0 and abs(vals[1] - vals[0]) > 5e-3 * abs(vals[1]):
        raise QuadratureError(
            f"weighted v_rho integral not stabilizing: {vals[0]:.6e} vs {vals[1]:.6e}"
        )
    return vals[1]


def stability_weighted_inequality(field, spec, n_rho=600, order=10):
    """Both sides of the weighted stability inequality for the cutoff eta.

    Returns (lhs, rhs) with lhs = int y^(1-2s) v_rho^2 |grad eta|^2 and
    rhs = (n-1) int y^(1-2s) v_rho^2 eta^2 / rho^2; semi-stability of the
    trace forces lhs >= rhs.
    """
    basis = field.basis
    x, w = np.polynomial.legendre.leggauss(n_rho)
    t = 0.5 * (x + 1.0)
    rho = t ** 3          # graded toward the axis, covers (0, 1)
    drho = 3.0 * t ** 2 * 0.5 * w
    y, wy = vertical_grid(basis, panels=48, order=order, y_max=spec.R + 1.5)
    v_rho = _vrho_table(field, rho, y)
    eta, eta_r, eta_y = _cutoff_parts(spec, rho, y)
    wr = spectral.sphere_area(basis.n) * rho ** (basis.n - 1.0) * drho
    lhs = float(wr @ (v_rho ** 2 * (eta_r ** 2 + eta_y ** 2)) @ wy)
    rhs = (basis.n - 1.0) * float(wr @ (v_rho ** 2 * eta ** 2 / rho[:, None] ** 2) @ wy)
    return lhs, rhs


def poisson_constant(n, s):
    """Half-space Poisson-kernel normalization Gamma((n+2-2s)/2) / (pi^(n/2) Gamma(1-s))."""
    if n < 2 or not (0 < s < 1):
        raise ValueError("need n >= 2 and s in (0, 1)")
    return gamma((n + 2.0 - 2.0 * s) / 2.0) / (math.pi ** (n / 2.0) * gamma(1.0 - s))


# sample radii per block of basis values in riesz_potential_radial: keeps the
# (K, block) table and its jv temporaries to a few MB at every x
_RIESZ_BLOCK = 2048


def _riesz_samples(n, s, x, n_t, n_theta):
    """Sample radii r_i in [0, 1] and weights w_i with R(h)(x) = sum_i w_i |h(r_i)|.

    The potential is integrated in spherical shells centered at x (distance
    t = |x~ - x|); the t^(2s-1) weight is absorbed by the substitution
    t = tau^(1/(2s)) on each piece between the tangency radii, and each shell
    integral over the polar angle theta clips at the unit-ball boundary.
    None of this depends on h.
    """
    # integral = int_0^{1+x} t^(2s-1) * shell(t) dt, split at the tangency radii
    xt, wt = np.polynomial.legendre.leggauss(n_t)
    breaks = sorted({0.0, max(1.0 - x, 0.0), 1.0 + x})
    ts, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a < 1e-14:
            continue
        # tau = t^(2s) on each piece removes the endpoint weight at t=0
        ta, tb = a ** (2.0 * s), b ** (2.0 * s)
        tau = 0.5 * (xt + 1.0) * (tb - ta) + ta
        ts.append(tau ** (1.0 / (2.0 * s)))
        ws.append(0.5 * wt * (tb - ta) / (2.0 * s))
    t, w = np.concatenate(ts), np.concatenate(ws)
    if x == 0.0:
        inside = t < 1.0
        return t[inside], spectral.sphere_area(n) * w[inside]

    # |x e + t omega|^2 = x^2 + t^2 + 2 x t cos(theta); the shell lies in B_1
    # for cos(theta) <= mu_star (Gauss nodes are interior, so t > 0)
    mu_star = (1.0 - x * x - t * t) / (2.0 * x * t)
    keep = mu_star > -1.0  # the other shells lie entirely outside B_1
    t, w = t[keep, None], w[keep, None]
    theta_lo = np.arccos(np.clip(mu_star[keep], -1.0, 1.0))[:, None]
    xg, wg = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * (xg + 1.0) * (math.pi - theta_lo) + theta_lo
    wth = 0.5 * wg * (math.pi - theta_lo)
    r = np.sqrt(np.maximum(x * x + t * t + 2.0 * x * t * np.cos(theta), 0.0))
    area_factor = 2.0 if n == 2 else spectral.sphere_area(n - 1)  # |S^0| = 2
    weights = w * area_factor * wth * np.sin(theta) ** (n - 2)
    return np.minimum(r, 1.0).ravel(), weights.ravel()


def riesz_potential_radial(h, x_mag, n_t=80, n_theta=48):
    """int_{B_1} |h(x~)| / |x - x~|^(n-2s) dx~ at |x| = x_mag.

    h is one RadialCoeffs, giving a float, or a sequence of them on one
    basis, giving an array with one potential per function.  The quadrature
    is a fixed set of sample radii and weights (see _riesz_samples), so all
    functions share one table of basis values, built in blocks of
    _RIESZ_BLOCK radii.
    """
    single = isinstance(h, spectral.RadialCoeffs)
    hs = [h] if single else list(h)
    basis = hs[0].basis
    if any(g.basis is not basis for g in hs):
        raise ValueError("all functions must share one basis")
    C = np.stack([g.c for g in hs])
    r, w = _riesz_samples(basis.n, basis.s, float(x_mag), n_t, n_theta)
    total = np.zeros(len(hs))
    for lo in range(0, r.size, _RIESZ_BLOCK):
        block = slice(lo, lo + _RIESZ_BLOCK)
        total += np.abs(C @ basis.phi_matrix(r[block])) @ w[block]
    return float(total[0]) if single else total
