"""Cylinder extension of a radial function and the weighted integrals built on it.

A trace u = sum_k b_k phi_k extends to the half-cylinder B_1 x (0, inf) as
v(rho, y) = sum_k b_k phi_k(rho) g_k(y), where the vertical profile

    g_k(y) = c_k * y^s * K_s(sqrt(mu_k) * y),    g_k(0+) = 1,

solves the degenerate Bessel ODE selecting the decaying branch.  The weighted
flux -y^(1-2s) g_k'(y) tends to flux_constant(s) * mu_k^s at y = 0, which is
what realizes the fractional Laplacian as a boundary operator.

The weighted integrals of the extension are quadratic forms in the trace
coefficients c.  v_rho = sum_k c_k phi_k'(rho) g_k(y) separates in rho and
y, and so does the cutoff eta = rad(rho) psi(y) with its derivatives, so an
integral of w_r(rho) a(rho) w_y(y) b(y) v_rho^2 over the two rules is
c^T (P_a o G_b) c, with the K x K moment matrices P_a = Phi' diag(w_r a) Phi'^T
and G_b = g diag(w_y b) g^T and o the entrywise product (positive
semidefinite by the Schur product theorem).  A call builds its matrices once,
in O(K^2 (N_rho + N_y)), and each trace then costs a K x K form, where a
per-trace N_rho x N_y grid of v_rho costs O(K N_rho N_y).

The Riesz potential of |h| (`riesz_potential_radial`) is one radial integral
against the closed-form sphere mean of its kernel.  Its panels away from each
target radius form one base grid shared by every radius, so one table of
basis values serves all the radii and functions of a call.  A sample radius
within sqrt(eps) / j_K of its target x takes no row of that table: h there
is h(x) + h'(x)(r - x), whose error lies below the rounding of h(x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import spectral
from .spectral import _gram, sphere_area


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


def flux_constant_analytic(s):
    """Closed-form flux constant 2^(1-2s) * Gamma(1-s) / Gamma(s)."""
    if not (0 < s < 1):
        raise ValueError("s must lie in (0, 1)")
    return 2.0 ** (1.0 - 2.0 * s) * special.gamma(1.0 - s) / special.gamma(s)


def _profile_args(basis, y):
    """(norms, roots, t) for the profile tables at the heights y > 0: the
    norms 2 (sqrt(mu_k)/2)^s / Gamma(s) and sqrt(mu_k) as (K, 1) columns,
    and t = sqrt(mu_k) y as a (K, len(y)) table.  The norms invert the
    small-argument limit Gamma(s)/2 (sqrt(mu_k)/2)^(-s) of y^s K_s(sqrt(mu_k) y),
    so that g_k(0+) = 1."""
    roots = np.sqrt(basis.mu)[:, None]
    norms = 2.0 * (roots / 2.0) ** basis.s / special.gamma(basis.s)
    return norms, roots, roots * np.asarray(y, dtype=float)[None, :]


def _profile_table(basis, y):
    """(K, len(y)) table of g_k at the heights y > 0."""
    s = basis.s
    norms, roots, t = _profile_args(basis, y)
    return norms * t ** s * special.kv(s, t) / roots ** s


def _profile_deriv_table(basis, y):
    """(K, len(y)) table of g_k' at the heights y > 0, from
    d/dt [t^s K_s(t)] = -t^s K_{1-s}(t)."""
    s = basis.s
    norms, roots, t = _profile_args(basis, y)
    return -norms * roots ** (1.0 - s) * t ** s * special.kv(1.0 - s, t)


def flux_constant(s):
    """Flux constant c(s) = lim_{y->0} -y^(1-2s) g_k'(y) / mu_k^s.

    Extrapolated from a geometric sequence of heights (Neville elimination of
    the known correction exponents) for k = 1, 2 and 5; the limit must be
    k-independent to 1e-5 or the extrapolation is reported as non-convergent.
    """
    if not (0 < s < 1):
        raise ValueError("s must lie in (0, 1)")
    basis = spectral.build_basis(3, s, 5, quad_order=10)
    exponents = sorted({2.0 - 2.0 * s, 2.0 * s, 2.0, 2.0 + 2.0 * s})
    values = []
    for k in (1, 2, 5):
        root = math.sqrt(basis.mu[k - 1])
        ys = 0.05 / root * 0.5 ** np.arange(8)
        gp = _profile_deriv_table(basis, ys)[k - 1]
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
    if spread > 1e-5:
        raise QuadratureError(
            f"flux-constant extrapolation k-dependent: spread {spread:.2e}"
        )
    return float(values.mean())


def extension_eval(u, rho, y):
    """v(rho, y) = sum_k b_k phi_k(rho) g_k(y) for the trace u; equals u at y = 0."""
    basis = u.basis
    rho = np.asarray(rho, dtype=float)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    phi = basis.phi_matrix(np.atleast_1d(rho))
    g = _profile_table(basis, np.where(y_arr > 0, y_arr, 1.0))
    g = np.where(y_arr[None, :] > 0, g, 1.0)
    vals = np.einsum("k,kr,ky->ry", u.c, phi, g)
    if np.ndim(rho) == 0 and np.ndim(y) == 0:
        return float(vals[0, 0])
    return vals.squeeze()


def _vertical_grid(basis, panels=48, y_max=None):
    """Graded vertical quadrature for the y^(1-2s) weight.

    Substituting y = Y t^(1/(1-s)) turns y^(1-2s) dy into a linear-in-t
    measure; the returned weights contain the y^(1-2s) factor.
    """
    s = basis.s
    if y_max is None:
        y_max = 20.0 / math.sqrt(basis.mu[0])
    p = 1.0 / (1.0 - s)
    # cubic panel grading toward y=0 where v_y carries the y^(2s-1) layer
    edges = np.linspace(0.0, 1.0, panels + 1) ** 3
    t, tw = map(np.ravel, spectral._gauss_rule(10, edges[:-1], edges[1:]))
    y = y_max * t ** p
    wy = y_max ** (2.0 - 2.0 * s) / (1.0 - s) * t * tw
    return y, wy


def _forms(us, M):
    """c^T M c for the coefficients c of each trace, one K x K form each,
    computed the same way for one trace as for many."""
    return [float(v.c @ (M @ v.c)) for v in us]


def extension_energy(u):
    """Weighted Dirichlet energy int_C y^(1-2s) |grad v|^2 dx dy of the
    extension v of the trace u.

    Tensorized quadrature: the basis radial rule times the graded vertical
    rule.  v_rho = sum_k c_k phi_k' g_k and v_y = sum_k c_k phi_k g_k' are
    separable, so the integral is the form c^T M c with
    M = (Phi' W Phi'^T) o (g W_y g^T) + (Phi W Phi^T) o (g' W_y g'^T), o the
    entrywise product of K x K moment matrices over the two rules.
    Softly checks against the spectral identity c(s) * ||u||_H^2.
    """
    basis = u.basis
    y, wy = _vertical_grid(basis)
    # radial integrals against the volume weight are diagonal by orthonormality
    # only through phi; use explicit node tables to stay an independent route.
    wr = basis.quad_weights
    dphi = basis.phi_prime_matrix(basis.quad_nodes)
    M = (_gram(dphi, wr) * _gram(_profile_table(basis, y), wy)
         + _gram(basis.phi_table, wr) * _gram(_profile_deriv_table(basis, y), wy))
    return _forms([u], M)[0]


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_deriv(t):
    t = np.clip(t, 0.0, 1.0)
    return 6.0 * t * (1.0 - t)


def _cutoff_parts(spec, rho, y):
    """The factors of the cutoff eta(rho, y) = rad(rho) psi_R(y), with
    rad = rho^(1-alpha) zeta_eps(rho) and smoothstep ramps
    S(t) = t^2 (3 - 2t), and their derivatives in closed form from
    S'(t) = 6 t (1 - t).  Returns (rad, d rad/d rho) over rho and
    (psi, d psi/d y) over y; grad eta = (rad' psi, rad psi').
    """
    a = (rho - spec.epsilon) / spec.epsilon
    b = (0.75 - rho) / 0.25
    zeta = _smoothstep(a) * _smoothstep(b)
    d_zeta = (
        _smoothstep_deriv(a) / spec.epsilon * _smoothstep(b)
        - _smoothstep(a) * _smoothstep_deriv(b) / 0.25
    )
    safe = np.where(rho > 0, rho, 1.0)
    pref = safe ** (1.0 - spec.alpha)
    d_pref = (1.0 - spec.alpha) * safe ** (-spec.alpha)
    psi = _smoothstep(spec.R + 1.0 - y)
    d_psi = -_smoothstep_deriv(spec.R + 1.0 - y)
    return pref * zeta, d_pref * zeta + pref * d_zeta, psi, d_psi


def _traces(u):
    """(traces, single): u as a list of RadialCoeffs on one basis, and
    whether it was given as one RadialCoeffs."""
    single = isinstance(u, spectral.RadialCoeffs)
    us = [u] if single else list(u)
    if not us:
        raise ValueError("no functions given")
    if any(g.basis is not us[0].basis for g in us):
        raise ValueError("all functions must share one basis")
    return us, single


def weighted_vrho_integral(u, spec):
    """int_{rho <= 1/2} y^(1-2s) v_rho^2 rho^(-2 alpha) dx dy for the
    extension v of the trace u.

    u is one RadialCoeffs, giving a float, or a sequence of them on one
    basis, giving an array with one integral per trace.  The integral is
    the form c^T (P o G) c in the trace coefficients c, with the radial
    moments P = Phi' diag(w_r) Phi'^T and the vertical ones
    G = g diag(w_y) g^T; the matrices are built once per call, and each
    trace costs one K x K form.  Radial quadrature is graded toward the
    axis (v_rho = O(rho) keeps the integrand integrable for
    alpha < 1 + sqrt(n-1)); stability under refinement is checked for
    every trace and a divergence flag raised otherwise.
    """
    us, single = _traces(u)
    basis = us[0].basis
    y, wy = _vertical_grid(basis, panels=32)
    G = _gram(_profile_table(basis, y), wy)
    vals = []
    for m in (400, 800):
        t, tw = spectral._gauss_rule(m, 0.0, 1.0)
        # rho = 0.5 t^4 clusters nodes at the axis
        rho = 0.5 * t ** 4
        drho = 0.5 * 4.0 * t ** 3 * tw
        wr = sphere_area(basis.n) * rho ** (basis.n - 1.0 - 2.0 * spec.alpha) * drho
        vals.append(_forms(us, _gram(basis.phi_prime_matrix(rho), wr) * G))
    for coarse, fine in zip(*vals):
        if coarse != 0.0 and abs(fine - coarse) > 5e-3 * abs(fine):
            raise QuadratureError(
                f"weighted v_rho integral not stabilizing: {coarse:.6e} vs {fine:.6e}"
            )
    return vals[1][0] if single else np.array(vals[1])


def stability_weighted_inequality(u, spec):
    """Both sides of the weighted stability inequality for the extension v of
    the trace u and the cutoff eta.

    Returns (lhs, rhs) with lhs = int y^(1-2s) v_rho^2 |grad eta|^2 and
    rhs = (n-1) int y^(1-2s) v_rho^2 eta^2 / rho^2; semi-stability of the
    trace forces lhs >= rhs.  u is one RadialCoeffs, giving the tuple, or a
    sequence of them on one basis, giving an array of (lhs, rhs) rows.
    eta = rad(rho) psi(y) and |grad eta|^2 = rad'^2 psi^2 + rad^2 psi'^2
    separate in rho and y, so each side is a form c^T M c in the trace
    coefficients c, M a sum of entrywise products of radial moments
    Phi' diag(w_r a) Phi'^T and vertical ones g diag(w_y b) g^T; the
    matrices are built once per call, and each trace costs two K x K forms.
    """
    us, single = _traces(u)
    basis = us[0].basis
    t, tw = spectral._gauss_rule(600, 0.0, 1.0)
    rho = t ** 3          # graded toward the axis, covers (0, 1)
    drho = 3.0 * t ** 2 * tw
    y, wy = _vertical_grid(basis, y_max=spec.R + 1.5)
    g = _profile_table(basis, y)
    rad, d_rad, psi, d_psi = _cutoff_parts(spec, rho, y)
    # rad and rad' vanish outside [eps, 0.75], where every radial weight is
    # an exact zero: the moments take the other nodes only
    on = (rad != 0) | (d_rad != 0)
    rho, drho, rad, d_rad = rho[on], drho[on], rad[on], d_rad[on]
    dphi = basis.phi_prime_matrix(rho)
    wr = sphere_area(basis.n) * rho ** (basis.n - 1.0) * drho
    psi2 = _gram(g, wy * psi ** 2)
    lhs = (_gram(dphi, wr * d_rad ** 2) * psi2
           + _gram(dphi, wr * rad ** 2) * _gram(g, wy * d_psi ** 2))
    rhs = _gram(dphi, wr * (rad / rho) ** 2) * psi2
    sides = [(a, (basis.n - 1.0) * b) for a, b in zip(_forms(us, lhs), _forms(us, rhs))]
    return sides[0] if single else np.array(sides)


def poisson_constant(n, s):
    """Half-space Poisson-kernel normalization Gamma((n+2-2s)/2) / (pi^(n/2) Gamma(1-s))."""
    if n < 2 or not (0 < s < 1):
        raise ValueError("need n >= 2 and s in (0, 1)")
    return special.gamma((n + 2.0 - 2.0 * s) / 2.0) / (
        math.pi ** (n / 2.0) * special.gamma(1.0 - s))


# sample radii per block of basis values in riesz_potential_radial: keeps the
# (K, block) table and its Bessel temporaries to a few MB however many radii
# a call asks for
_RIESZ_BLOCK = 2048

# The radial rule of _riesz_samples: 16-point Gauss panels, each no wider
# than the smallest of
# - _RIESZ_PANEL / K, which resolves h's boundary layer at r = 1, whose
#   width scales as 1/K;
# - _RIESZ_AXIS_PANEL / K within _RIESZ_AXIS / K of the axis, where a
#   truncated expansion rings (phi_k(0) grows like k^((n-1)/2)) and |h|
#   has a kink at each sign change: at (6, 1/2 + 1e-6, 64), x = 0.02,
#   the rule is 2.8e-3 off with 4/K panels there and 1.6e-5 with 1/(8K);
# - (1/_RIESZ_GRADING - 1) times its distance from x, so that toward
#   r = x the panels shrink geometrically, each _RIESZ_GRADING times as
#   wide as the one outside it.
_RIESZ_PANEL = 4.0
_RIESZ_AXIS = 8.0
_RIESZ_AXIS_PANEL = 0.125
_RIESZ_GRADING = 0.2

# 1 - w at or below which _angular_kernel sums its connection series; above
# it `special.hyp2f1` is within 2.6e-15 of 40-digit values (n from 2 to 40,
# s from 0.05 to 0.99)
_NEAR_ONE = 0.1


def _lgamma_odd(x, d):
    """(ln Gamma(x + d) - ln Gamma(x - d)) / d for an array x > |d| and a
    scalar d; 2 psi(x) at d = 0.

    Where |d| <= x/25 it is the odd Taylor series
    2 sum_j psi^(2j)(x) d^(2j) / (2j+1)! through psi^(10), whose next term
    is below 2e-17; elsewhere the difference of `gammaln`, whose rounding
    there is about 2.8e-15 |ln Gamma(x)| / x.
    """
    x = np.asarray(x, dtype=float)
    out = sum(2.0 * special.polygamma(2 * j, x) * d ** (2 * j) / math.factorial(2 * j + 1)
              for j in range(6))
    far = abs(d) > x / 25.0
    out[far] = (special.gammaln(x[far] + d) - special.gammaln(x[far] - d)) / d
    return out


@functools.cache
def _connection_series(n, s):
    """(g, d), the terms of _angular_kernel's series in y = 1 - w.

    With eps = 2s - 1, a = (n-2s)/2, b = 1-s and c = n/2, c - a - b = eps.
    A&S 15.3.6 writes 2F1(a, b; c; w) as two series, in y^k and y^(k+eps),
    whose k-th coefficients are Gamma(eps) P_k(eps) and Gamma(-eps) P_k(-eps)
    for one function P_k.  Near s = 1/2 each is about 1/eps and they cancel.
    Summed term by term, with g_k = Gamma(1-eps) P_k(-eps) and
    eps d_k = log(Gamma(1+eps) P_k(eps) / g_k), they are

        g_k y^(k+eps) expm1(eps (d_k - log y)) / eps,

    which at eps = 0 is A&S 15.3.10, g_k y^k (d_k - log y) with
    d_k = 2 psi(1+k) - psi(a+k) - psi(b+k).  d_k is a sum of _lgamma_odd
    terms, so nothing cancels as eps -> 0.  g carries the factor
    B(1/2, (n-1)/2) Gamma(c) = sqrt(pi) Gamma((n-1)/2); the series ends
    where its terms at y = _NEAR_ONE fall below 1e-17 of the largest.
    Cached per (n, s); the arrays are shared, so they are read-only.
    """
    eps = 2.0 * s - 1.0
    al, be = (n - 1.0) / 2.0, 0.5   # a = al - eps/2, b = be - eps/2
    k = np.arange(200.0)
    lg = special.gammaln
    log_g = (0.5 * math.log(math.pi) + lg(al) - lg(al + eps / 2.0) - lg(al - eps / 2.0)
             - lg(be + eps / 2.0) - lg(be - eps / 2.0) + lg(1.0 - eps) + lg(1.0 + eps)
             + lg(al + eps / 2.0 + k) + lg(be + eps / 2.0 + k) - lg(1.0 + eps + k)
             - lg(1.0 + k))
    d = (_lgamma_odd(1.0 + k, eps) - 0.5 * _lgamma_odd(al + k, eps / 2.0)
         - 0.5 * _lgamma_odd(be + k, eps / 2.0))
    size = np.exp(log_g + k * math.log(_NEAR_ONE)) * (1.0 + np.abs(d))
    stop = np.flatnonzero(size > 1e-17 * size.max())[-1] + 1
    g, d = np.exp(log_g[:stop]), d[:stop].copy()
    g.flags.writeable = d.flags.writeable = False
    return g, d


def _angular_kernel(n, s, big, delta):
    """big^(n-1) T, with T = int_0^pi sin^(n-2) t (x^2 + r^2 - 2 x r cos t)^(s - n/2) dt;
    times |S^(n-2)| T is the integral of |x - r omega|^(2s-n) over unit
    vectors omega.

    big = max(x, r) and delta = |x - r| > 0 are arrays.  In closed form
    T = B(1/2, (n-1)/2) big^(2s-n) 2F1((n-2s)/2, 1-s; n/2; w) with
    w = (min(x, r) / big)^2 (Gradshteyn & Ryzhik 3.665), and
    y = 1 - w = (delta / big) (2 - delta / big) carries no cancellation.
    The factor big^(n-1) leaves big^(2s-1), which stays finite where
    big^(2s-n) overflows: a caller weights by (r / big)^(n-1) for r^(n-1) T.
    Where y > _NEAR_ONE, 2F1 is `special.hyp2f1`; nearer r = x it is the
    connection series of _connection_series, exact also at and near
    s = 1/2.  At n = 3, T = ((x + r)^eps - delta^eps) / (eps x r) with
    eps = 2s - 1, and (1 / (x r)) log((x + r) / delta) at s = 1/2.
    """
    big = np.asarray(big, dtype=float)
    delta = np.asarray(delta, dtype=float)
    q = delta / big
    y = q * (2.0 - q)
    F = np.empty_like(y)
    far = y > _NEAR_ONE
    F[far] = special.beta(0.5, (n - 1.0) / 2.0) * special.hyp2f1(
        (n - 2.0 * s) / 2.0, 1.0 - s, n / 2.0, 1.0 - y[far])
    g, d = _connection_series(n, s)
    near = y[~far, None]
    eps = 2.0 * s - 1.0
    lag = d - np.log(near)
    if eps != 0.0:
        lag = np.expm1(eps * lag) / eps
    F[~far] = (g * near ** (np.arange(g.size) + eps) * lag).sum(axis=1)
    return big ** (2.0 * s - 1.0) * F


def _distance_edges(x, side, near, far, K, levels):
    """Panel edges in the distance d = |r - x| on one side of x (side = -1
    toward the axis, +1 away from it), from near to far, under the widths
    set out at _RIESZ_PANEL.  From near = 0 the first panel is
    _RIESZ_GRADING^levels times the width allowed at x."""
    axis = _RIESZ_AXIS / K

    def allowed(d):
        # the nearer-to-axis end of a panel starting at distance d decides
        lowest = x + d if side > 0 else x - d - _RIESZ_PANEL / K
        return (_RIESZ_AXIS_PANEL if lowest < axis else _RIESZ_PANEL) / K

    edges = [near] if near > 0.0 else [0.0, _RIESZ_GRADING ** levels * allowed(0.0)]
    while edges[-1] < far:
        d = edges[-1]
        edges.append(d + min(allowed(d), (1.0 / _RIESZ_GRADING - 1.0) * d))
    edges[-1] = far
    return np.array(edges)


def _base_edges(K):
    """Edges of the panels shared by every x: _RIESZ_AXIS_PANEL / K wide
    on [0, _RIESZ_AXIS / K], and equal panels no wider than _RIESZ_PANEL / K
    from there to r = 1."""
    axis = min(_RIESZ_AXIS / K, 1.0)
    inner = np.linspace(0.0, axis, round(axis * K / _RIESZ_AXIS_PANEL) + 1)
    outer = np.linspace(axis, 1.0, math.ceil((1.0 - axis) * K / _RIESZ_PANEL) + 1)
    return np.concatenate([inner, outer[1:]])


def _patch(edges, x):
    """(lo, hi): the base panels lo .. hi-1 that the graded panels about x
    replace.  Every panel outside them lies on one side of x and is no
    wider than (1/_RIESZ_GRADING - 1) times its distance from x; since a
    panel further out can be wider (the first bulk panel past the axis
    zone), the patch reaches the last panel that is not."""
    a, b = edges[:-1], edges[1:]
    stretch = 1.0 / _RIESZ_GRADING - 1.0
    kept = ((a >= x) & (b - a <= stretch * (a - x))) | ((b <= x) & (b - a <= stretch * (x - b)))
    replaced = np.flatnonzero(~kept)
    return (replaced[0], replaced[-1] + 1) if replaced.size else (0, 0)


def _riesz_samples(basis, xs):
    """The samples of R(h) at the radii xs, for every h on the basis: table
    radii r_i in [0, 1] with a weight matrix W, (len(r), len(xs)), and
    tangent samples near = (index, offset, weight), three arrays, with

        R(h)(x_j) = sum_i W_ij |h(r_i)|
                    + sum_{i: index_i = j} weight_i |h(x_j) + h'(x_j) offset_i|.

    The angular integral is closed-form (_angular_kernel):

        R(h)(x) = |S^(n-2)| int_0^1 |h(r)| r^(n-1) T(x, r) dr,

    with |S^0| = 2 at n = 2, under the panel rule set out at _RIESZ_PANEL.
    At x = 0 it is T = B(1/2, (n-1)/2) r^(2s-n), the hyp2f1 branch at
    w = 0.  r^(n-1) T is (r / big)^(n-1) times _angular_kernel's
    big^(n-1) T, big = max(x, r), so that no power of a radius next to
    x = 0 leaves the floating-point range.  Its panels are the
    x-independent base panels of _base_edges, shared by every x, except
    near x: there _patch picks the base panels to replace, and graded
    panels built on each side of x in the distance from x (_distance_edges)
    take their place; at x = 0 they replace the first axis panel only.  T
    takes those distances, not differences of rounded radii.  The innermost
    panel at r = x is _RIESZ_GRADING^levels times the width allowed there,
    which puts its share of T's singularity, of order delta^min(2s, 1),
    near 1e-16.

    A graded radius r = x + offset within sqrt(eps) / j_K of its x (j_K =
    sqrt(mu_K), the largest root of the basis) is a tangent sample: h
    there is h(x) + h'(x) offset, from one table of phi and phi' at the xs.
    The term left out, h'' offset^2 / 2, is at most eps |h''| / (2 j_K^2),
    and |h''| is of order j_K^2 sum_k |c_k phi_k(x)|, so it lies below the
    rounding of h(x) itself: the distance follows from the basis and is no
    knob.  At (3, 1/2, 64) and verify's 20 radii, 7398 of 17,168 radii are
    tangent samples.  The base radii come first in r, then each x's own
    table radii; a column of W is zero at the radii of the other x and at
    the base panels it replaced.
    """
    n, s, K = basis.n, basis.s, basis.K
    if not 0.0 < s < 1.0:
        raise ValueError("need s in (0, 1)")
    area = sphere_area(n - 1)
    tangent = math.sqrt(np.finfo(float).eps / basis.mu[-1])
    # at most 300 levels, so that the innermost panel stays a normal number
    levels = min(math.ceil(math.log(1e-16) / (min(2.0 * s, 1.0) * math.log(_RIESZ_GRADING))), 300)
    edges = _base_edges(K)
    rb, wb = spectral._gauss_rule(16, edges[:-1], edges[1:])
    base = rb.size
    radii, columns = [rb.ravel()], []
    index, offset, weight = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0)]
    for j, x in enumerate(xs):
        lo, hi = _patch(edges, x)
        kept = np.ones(rb.shape[0], dtype=bool)
        kept[lo:hi] = False
        col = np.zeros(rb.shape)
        rk = rb[kept]
        big = np.maximum(rk, x)
        col[kept] = area * wb[kept] * (rk / big) ** (n - 1.0) * _angular_kernel(
            n, s, big, np.abs(rk - x))
        off, delta, w = [], [], []
        for side, near, far in ((-1.0, max(x - edges[hi], 0.0), x - edges[lo]),
                                (1.0, 0.0, edges[hi] - x)):
            if far > near:
                dist = _distance_edges(x, side, near, far, K, levels)
                d, wd = map(np.ravel, spectral._gauss_rule(16, dist[:-1], dist[1:]))
                off.append(side * d)
                delta.append(d)
                w.append(wd)
        off, delta, w = (np.concatenate(v) if v else np.zeros(0) for v in (off, delta, w))
        r = x + off
        big = np.maximum(r, x)
        w = area * w * (r / big) ** (n - 1.0) * _angular_kernel(n, s, big, delta)
        close = delta < tangent
        radii.append(r[~close])
        columns.append((col.ravel(), w[~close]))
        index.append(np.full(np.count_nonzero(close), j))
        offset.append(off[close])
        weight.append(w[close])
    r = np.concatenate(radii)
    W = np.zeros((r.size, len(xs)))
    row = base
    for j, (col, w) in enumerate(columns):
        W[:base, j] = col
        W[row:row + w.size, j] = w
        row += w.size
    return r, W, tuple(np.concatenate(v) for v in (index, offset, weight))


def riesz_potential_radial(h, x_mag):
    """int_{B_1} |h(x~)| / |x - x~|^(n-2s) dx~ at |x| = x_mag.

    h is one RadialCoeffs or a sequence of them on one basis; x_mag is one
    radius or an array of radii.  The result is a float for one function at
    one radius, an array over the functions or over the radii when one of
    the two is a sequence, and an array of shape (functions, radii) when
    both are.  At every radius, x_mag = 0 included, it is one radial
    integral of |h| against the closed-form sphere mean of the kernel
    (_angular_kernel).  The sample radii and weights depend on the basis
    and the radii only (see _riesz_samples), and the radii away from each x
    are one base grid shared by all of them, so all functions and all radii
    share one table of basis values, built in blocks of _RIESZ_BLOCK radii.
    The radii within sqrt(eps) / j_K of an x take h on its tangent line at
    x instead, from the values and slopes of h at the xs.
    """
    hs, single = _traces(h)
    basis = hs[0].basis
    C = np.stack([g.c for g in hs])
    xs = np.asarray(x_mag, dtype=float)
    r, W, (index, offset, weight) = _riesz_samples(basis, xs.ravel())
    total = np.zeros((len(hs), xs.size))
    for lo in range(0, r.size, _RIESZ_BLOCK):
        block = slice(lo, lo + _RIESZ_BLOCK)
        total += np.abs(C @ basis.phi_matrix(r[block])) @ W[block]
    at, slope = C @ basis.phi_matrix(xs.ravel()), C @ basis.phi_prime_matrix(xs.ravel())
    np.add.at(total, (slice(None), index),
              weight * np.abs(at[:, index] + slope[:, index] * offset))
    total = total.reshape(len(hs), *xs.shape)
    if not single:
        return total
    return float(total[0]) if xs.ndim == 0 else total[0]
