"""Radial Dirichlet eigensystem of the unit ball and the spectral fractional Laplacian.

The radial eigenfunctions of -Delta on B_1 in R^n with zero boundary data are

    phi_k(rho) = N_k * rho^(1-n/2) * J_{n/2-1}(j_k * rho),   mu_k = j_k^2,

where j_k is the k-th positive zero of J_{n/2-1} and N_k normalizes phi_k in
L^2(B_1).  Everything downstream operates on coefficient vectors in this basis;
(-Delta)^s acts diagonally as mu_k^s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import specfun
from .specfun import gamma


def sphere_area(n):
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)


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
    # (K, Q) eigenfunction values at nodes, column-major: a node's K values are
    # contiguous, so the nonlinear term walks any run of nodes in cache-sized
    # column panels (`branchsolve._NonlinearTerm.project`)
    phi_table: np.ndarray = field(repr=False)

    @property
    def nu(self):
        return self.n / 2.0 - 1.0

    def phi_matrix(self, rho):
        """(K, len(rho)) table of phi_k(rho)."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        roots = np.sqrt(self.mu)
        table = _radial_kernel(self.nu, roots[:, None], rho[None, :])
        table *= self.norm_consts[:, None]
        return table

    @functools.cached_property
    def filtered_origin_row(self):
        """The filtered phi_k(0) as a read-only coefficient row: the filtered
        synthesis of c at the axis is row @ c.  Built on first use and kept
        for the life of the basis."""
        row = filtered(RadialCoeffs(self, self.phi_matrix(np.array([0.0]))[:, 0])).c
        row.flags.writeable = False
        return row

    def phi_prime_matrix(self, rho):
        """(K, len(rho)) table of d(phi_k)/d(rho); zero on the axis.

        d(phi_k)/d(rho) = -N_k j_k rho * rho^(-nu-1) J_{nu+1}(j_k rho), so the
        radial kernel of order nu + 1 gives it, its series included: near the
        axis rho^(-nu) alone overflows where J_{nu+1} underflows.
        """
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        roots = np.sqrt(self.mu)
        return -(self.norm_consts * roots)[:, None] * rho[None, :] * _radial_kernel(
            self.nu + 1.0, roots[:, None], rho[None, :]
        )


@dataclass(frozen=True)
class RadialCoeffs:
    """A radial function represented by its eigenfunction coefficients."""

    basis: BallBasis
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.c.shape != (self.basis.K,):
            raise ValueError(f"expected {self.basis.K} coefficients, got {self.c.shape}")


# entries per block of _bessel_j: the recurrence's temporaries stay a few MB
# whatever the size of the table, and with out=z a table build holds one
# K x Q array where a whole-table evaluation holds three; a block whose
# entries all take the recurrence skips the masks
_BESSEL_BLOCK = 2 ** 16


def _bessel_j(nu, z, out=None):
    """J_nu(z) elementwise on an array z >= 0, nu >= 0 an integer or half-integer.

    The basis needs the orders nu = n/2 - 1 and nu + 1, so one upward
    recurrence, J_{m+1} = (2m/z) J_m - J_{m-1}, covers every dimension; only
    its two seeds differ: J_0 and J_1 (`special.j0`, `j1`) for integer nu,
    J_{-1/2} = sqrt(2/(pi z)) cos z and J_{1/2} = sqrt(2/(pi z)) sin z for
    half-integer nu.  The recurrence is stable where z >= nu; below that
    (nu > 1 only) the entries come from `special.jv`: 3-6 % of a K = 1024
    basis table, 10-22 % at K = 64.  z = 0 is exact.  The rows of z are
    computed in blocks of about _BESSEL_BLOCK entries, so `out` may be z
    itself: a block is read before it is written.  A basis table is built
    node-major, so its rows and blocks are runs of nodes; `phi_matrix`
    still passes its modes as rows.  A block whose entries all take the
    recurrence (every n = 3 table, and every n = 2 table off the axis) runs
    it on the block itself, without the masks that split it from the `jv`
    and z = 0 entries.
    """
    if nu < 0 or 2.0 * nu != int(2.0 * nu):
        raise ValueError(f"order {nu} is not a non-negative integer or half-integer")
    z = np.asarray(z, dtype=float)
    if out is None:
        out = np.empty_like(z)
    step = max(1, _BESSEL_BLOCK * len(z) // max(1, z.size))
    for lo in range(0, len(z), step):
        out[lo:lo + step] = _bessel_j_block(nu, z[lo:lo + step])
    return out


def _bessel_j_block(nu, z):
    """_bessel_j on one block: jv below z = nu, the seeds and recurrence above."""
    rec = z >= nu if nu > 1 else z != 0.0
    if rec.all():
        return _bessel_j_recurrence(nu, z)
    out = np.empty_like(z)
    out[~rec] = special.jv(nu, z[~rec]) if nu > 1 else float(nu == 0)
    out[rec] = _bessel_j_recurrence(nu, z[rec])
    return out


def _bessel_j_recurrence(nu, x):
    """J_nu(x) from the seeds and the upward recurrence, on an array x > 0."""
    if nu == int(nu):
        m, cur = 0.0, special.j0(x)
        if nu >= 1:
            m, prev, cur = 1.0, cur, special.j1(x)
    else:
        amp = np.sqrt(2.0 / (math.pi * x))
        m, cur = 0.5, amp * np.sin(x)
        if nu > 0.5:
            prev = amp * np.cos(x)
    if m < nu:
        two_over_x = 2.0 / x
        while m < nu:
            prev, cur = cur, m * two_over_x * cur - prev
            m += 1.0
    return cur


def _radial_kernel(nu, lam, rho):
    """rho^(-nu) * J_nu(lam * rho) with the removable singularity at rho=0 filled in."""
    lam = np.asarray(lam, dtype=float)
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-8
    safe = np.where(small, 1.0, rho)
    z = lam * safe
    out = _bessel_j(nu, z, out=z)
    out *= safe ** (-nu)
    if np.any(small):
        # series limit of rho^(-nu) J_nu(lam rho) as rho -> 0
        limit = (lam / 2.0) ** nu / special.gamma(nu + 1.0)
        out = np.where(small, np.broadcast_to(limit, out.shape), out)
    return out


def _gauss_rule(order, a, b):
    """Gauss-Legendre nodes and weights of the given order on [a, b].

    a and b broadcast: with arrays of shape S the result has shape
    S + (order,), one rule per interval (a panel rule passes edges[:-1] and
    edges[1:] and ravels).  The rule on [-1, 1] is `_legendre_rule`.
    """
    x, w = _legendre_rule(order)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    return 0.5 * (x + 1.0) * (b - a) + a, 0.5 * w * (b - a)


@functools.cache
def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes increasing, by Newton.

    Newton on P_n from Tricomi's nodes (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2))
    on the nonnegative half, with P_n and P_{n-1} from
    `scipy.special.eval_legendre` and P_n' = n (x P_n - P_{n-1}) / (x^2 - 1);
    no eigenproblem (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  At
    every order measured up to 9000 it takes 1 to 4 steps, after which the
    steps are rounding noise (at most 1.6e-16).  It ends after the first
    step below 1e-14: Newton's error after it is x/(1-x^2) times that step
    squared, below 1e-20 at n = 4096.  The weights 2 (1-x^2) / (n
    P_{n-1}(x))^2 are mirrored and scaled to sum to 2, as
    `scipy.special.roots_legendre` scales its own.  Against numpy's
    `leggauss` at orders 1-200, 512, 1024 and 2048 the nodes agree to
    1.1e-16 and the weights to 8.6e-14.

    The rule is built once per order and cached for the life of the
    process; the arrays it returns are shared, so they are read-only.
    `_gauss_rule` maps them onto new arrays.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(10):
        p = special.eval_legendre(n, x)
        dx = p * (x * x - 1.0) / (n * (x * p - special.eval_legendre(n - 1, x)))
        x -= dx
        if np.max(np.abs(dx)) <= 1e-14:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {n} did not converge in 10 steps")
    w = 2.0 * (1.0 - x * x) / (n * special.eval_legendre(n - 1, x)) ** 2
    # x decreases from the largest node; at odd n its last node is the middle one
    half = n // 2
    x = np.concatenate([-x[:half], x[::-1]])
    w = np.concatenate([w[:half], w[::-1]])
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    norm_consts = np.sqrt(2.0 / area) / np.abs(_bessel_j(nu + 1.0, roots))

    nodes, w = _gauss_rule(quad_order, 0.0, 1.0)
    weights = w * area * nodes ** (n - 1)

    # built node-major and transposed, not copied: the same values as a
    # mode-major build, stored column-major
    phi_table = _radial_kernel(nu, roots[None, :], nodes[:, None]).T
    phi_table *= norm_consts[:, None]
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


def _gram(phi, g):
    """Phi diag(g) Phi^T as B B^T with B = Phi |g|^(1/2), exactly symmetric.

    The one kernel for every such matrix of a (K, N) table of values at N
    nodes: the nonlinear term's F (`branchsolve._NonlinearTerm.derivative`),
    the extension's moment matrices and the basis's Gram matrix.  numpy runs
    a product of a matrix with its own transpose as one SYRK, half the flops
    of a general product.  Nodes with g < 0 (f' < 0 at a negative iterate,
    which an admissible f may have) are summed apart and subtracted.
    """
    b = phi * np.sqrt(np.abs(g))
    neg = g < 0
    if not neg.any():
        return b @ b.T
    b_pos, b_neg = b[:, ~neg], b[:, neg]
    return b_pos @ b_pos.T - b_neg @ b_neg.T


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


def _zeta0(basis):
    """zeta0 = (-Delta)^(-s) 1, whose projection P[1] = Phi W needs no samples."""
    return RadialCoeffs(basis, basis.mu ** (-basis.s) * (basis.phi_table @ basis.quad_weights))


def h_norm(u):
    """Energy norm sqrt(sum mu_k^s c_k^2)."""
    return math.sqrt(float(np.sum(u.basis.mu ** u.basis.s * u.c ** 2)))
