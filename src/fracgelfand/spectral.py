"""Radial Dirichlet eigensystem of the unit ball and the spectral fractional Laplacian.

The radial eigenfunctions of -Delta on B_1 in R^n with zero boundary data are

    phi_k(rho) = N_k * rho^(1-n/2) * J_{n/2-1}(j_k * rho),   mu_k = j_k^2,

where j_k is the k-th positive zero of J_{n/2-1} and N_k normalizes phi_k in
L^2(B_1).  Everything downstream operates on coefficient vectors in this basis;
(-Delta)^s acts diagonally as mu_k^s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import specfun


def sphere_area(n):
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / specfun.gamma(n / 2.0)


@dataclass(frozen=True)
class BallBasis:
    """Truncated radial Dirichlet eigensystem of -Delta on the unit ball."""

    n: int
    s: float
    K: int
    mu: np.ndarray            # eigenvalues j_{nu,k}^2, strictly increasing
    norm_consts: np.ndarray   # L^2(B_1) normalization constants N_k
    quad_nodes: np.ndarray    # Gauss-Legendre nodes on (0,1)
    quad_weights: np.ndarray  # weights including |S^{n-1}| rho^{n-1}
    phi_table: np.ndarray = field(repr=False)   # (K, Q) eigenfunction values at nodes

    @property
    def nu(self):
        return self.n / 2.0 - 1.0

    def phi_matrix(self, rho):
        """(K, len(rho)) table of phi_k(rho)."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        roots = np.sqrt(self.mu)
        return self.norm_consts[:, None] * _radial_kernel(
            self.nu, roots[:, None], rho[None, :]
        )

    def phi_prime_matrix(self, rho):
        """(K, len(rho)) table of d(phi_k)/d(rho); zero on the axis."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        roots = np.sqrt(self.mu)
        with np.errstate(divide="ignore"):
            pref = np.where(rho > 0, rho, 1.0) ** (-self.nu)
        out = -self.norm_consts[:, None] * roots[:, None] * pref[None, :] * special.jv(
            self.nu + 1.0, roots[:, None] * rho[None, :]
        )
        if self.nu > 0:
            out[:, rho == 0.0] = 0.0
        return out


@dataclass(frozen=True)
class RadialCoeffs:
    """A radial function represented by its eigenfunction coefficients."""

    basis: BallBasis
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.c.shape != (self.basis.K,):
            raise ValueError(f"expected {self.basis.K} coefficients, got {self.c.shape}")


def _radial_kernel(nu, lam, rho):
    """rho^(-nu) * J_nu(lam * rho) with the removable singularity at rho=0 filled in."""
    lam = np.asarray(lam, dtype=float)
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-8
    safe = np.where(small, 1.0, rho)
    out = safe ** (-nu) * special.jv(nu, lam * safe)
    if np.any(small):
        # series limit of rho^(-nu) J_nu(lam rho) as rho -> 0
        limit = (lam / 2.0) ** nu / special.gamma(nu + 1.0)
        out = np.where(small, np.broadcast_to(limit, out.shape), out)
    return out


def _gauss_rule(order, a, b):
    """Gauss-Legendre nodes and weights of the given order on [a, b].

    a and b broadcast: with arrays of shape S the result has shape
    S + (order,), one rule per interval (a panel rule passes edges[:-1] and
    edges[1:] and ravels).  The rule on [-1, 1] is
    `scipy.special.roots_legendre`: a tridiagonal (Golub-Welsch) eigenproblem
    polished by Newton, where numpy's `leggauss` takes the eigenvalues of a
    dense companion matrix, O(order^3) time and an order x order temporary.
    """
    x, w = special.roots_legendre(order)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    return 0.5 * (x + 1.0) * (b - a) + a, 0.5 * w * (b - a)


def build_basis(n, s, K, quad_order=None):
    """Construct the K-mode radial eigensystem with a Gauss-Legendre radial rule.

    quad_order defaults to 4K; it must be at least 2K for the orthonormality
    and roundtrip guarantees.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if not (0 < s <= 1):
        raise ValueError("fractional order s must lie in (0, 1]")
    if K < 1:
        raise ValueError("K must be >= 1")
    if quad_order is None:
        quad_order = 4 * K
    if quad_order < 2 * K:
        raise ValueError("quad_order must be >= 2K")

    nu = n / 2.0 - 1.0
    roots = specfun.bessel_j_zeros(nu, K)
    mu = roots ** 2

    area = sphere_area(n)
    # int_{B_1} phi^2 dx = N^2 * area * int_0^1 rho J_nu(j rho)^2 drho
    #                    = N^2 * area * J_{nu+1}(j)^2 / 2
    norm_consts = np.sqrt(2.0 / area) / np.abs(special.jv(nu + 1.0, roots))

    nodes, w = _gauss_rule(quad_order, 0.0, 1.0)
    weights = w * area * nodes ** (n - 1)

    phi_table = norm_consts[:, None] * _radial_kernel(
        nu, roots[:, None], nodes[None, :]
    )
    return BallBasis(
        n=n,
        s=float(s),
        K=K,
        mu=mu,
        norm_consts=norm_consts,
        quad_nodes=nodes,
        quad_weights=weights,
        phi_table=phi_table,
    )


def unit(basis, k):
    """The k-th basis vector (1-based)."""
    c = np.zeros(basis.K)
    c[k - 1] = 1.0
    return RadialCoeffs(basis, c)


def _filter_factors(K):
    """The filter's factors sigma_k = exp(-36 (k/K)^8), k = 1..K."""
    k = np.arange(1, K + 1)
    return np.exp(-36.0 * (k / K) ** 8)


def filtered(u):
    """Exponentially filtered copy of u: c_k -> c_k exp(-36 (k/K)^8).

    Damps the high-mode tail of a truncated expansion.  Pointwise synthesis
    of a Fourier-Bessel series rings with amplitude ~|c_K phi_K(rho)|, and
    phi_k(rho) ~ rho^{-(n-1)/2} near the axis, so in high dimension the raw
    partial sums are unusable at small radii even with exact coefficients.
    The filter is spectrally accurate on the resolved modes (the factor is
    1 - O((k/K)^8) for k << K) while suppressing the tail.
    """
    return RadialCoeffs(u.basis, u.c * _filter_factors(u.basis.K))


def evaluate(u, rho):
    """Pointwise values of u = sum_k c_k phi_k at radius rho (scalar or array)."""
    rho = np.asarray(rho, dtype=float)
    vals = u.c @ u.basis.phi_matrix(rho)
    return float(vals[0]) if rho.ndim == 0 else vals


def evaluate_deriv(u, rho):
    """Radial derivative du/drho at rho."""
    rho = np.asarray(rho, dtype=float)
    vals = u.c @ u.basis.phi_prime_matrix(rho)
    return float(vals[0]) if rho.ndim == 0 else vals


def analyze(basis, samples):
    """Project a radial function onto the basis: c_k = int_{B_1} u phi_k dx.

    `samples` is either a callable of rho or an array of values at the
    quadrature nodes.
    """
    vals = samples(basis.quad_nodes) if callable(samples) else np.asarray(samples)
    c = basis.phi_table @ (basis.quad_weights * vals)
    return RadialCoeffs(basis, c)


def frac_laplacian(u):
    """(-Delta)^s acting diagonally: c_k -> mu_k^s c_k."""
    return RadialCoeffs(u.basis, u.basis.mu ** u.basis.s * u.c)


def inv_frac_laplacian(h):
    """Inverse of the spectral fractional Laplacian: c_k -> mu_k^{-s} c_k."""
    return RadialCoeffs(h.basis, h.basis.mu ** (-h.basis.s) * h.c)


def h_norm(u):
    """Energy norm sqrt(sum mu_k^s c_k^2)."""
    return math.sqrt(float(np.sum(u.basis.mu ** u.basis.s * u.c ** 2)))
