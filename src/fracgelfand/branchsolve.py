"""Minimal-solution branch of (-Delta)^s u = lambda f(u) on the unit ball.

Two routes to the branch: monotone iteration from zero (yields the minimal
solution, diverges above the extremal parameter; where it stalls near that
parameter a Newton certificate decides) and amplitude-parametrized
Newton continuation, which passes the fold where lambda-continuation would
lose the Jacobian.  The smallest eigenvalue of the linearized operator is
tracked along the branch; it crosses zero at the fold.  One bordered fold
solve (`_fold_solve`) locates that fold: continuation starts it from its
walked fold point, the monotone iteration from an iterate that no
certificate decides.  Continuation, the certificate and the fold solve are
one Newton kernel (`_bordered_newton`) with three border equations: the
amplitude, lambda pinned, and the fold function.  All three build their J
block from the nonlinear term's F; only continuation leaves out the sigma
factor of the exact Jacobian F diag(sigma) (`_NonlinearTerm.jacobian`).
Continuation and the fold solve stop at NEWTON_TOL, the certificate at the
residual's rounding level (CERTIFY_FLOOR).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import linalg

from . import spectral

BLOWUP_THRESHOLD = 1e6
NEWTON_TOL = 1e-10
MONOTONE_TOL = 1e-9
WEIGHT_CUT = 1e-13  # relative quadrature weight below which f sees u = 0
CERTIFY_AFTER = 100  # Picard steps without a decision before the Newton certificate
NEWTON_MAX_STEPS = 60  # residual checks per Newton solve
# chord steps keep the factored Jacobian while each step at least halves the
# residual norm (the Newton-Shamanskii rule of C. T. Kelley, Solving Nonlinear
# Equations with Newton's Method, SIAM 2003, section 2.3 and its nsold), or
# contracts it no worse than the LU's own first step did when that one
# contracted it: continuation's J block leaves out sigma, so a fresh LU there
# may contract no faster than a stale one
CHORD_RATIO = 0.5
FOLD_MARGIN = 1e-9  # relative; a lambda this far above a solved fold has no minimal solution
FOLD_NU1_TOL = 1e-8  # |nu1| at which a solved fold point is accepted as the fold
# the certificate's tolerance in units of eps |mu^s c|, the residual's rounding
# level: at n = 20 (|mu^s c| = 0.63, so 5.6e-16) Newton's residual norms
# level off at 5.4e-17 to 1.1e-16 and further steps only move rounding noise
CERTIFY_FLOOR = 4.0
# default relative width of the lambda* bracket, and of the gap allowed
# between its two routes; `config` reads its bracket_tol default from here
BRACKET_REL_TOL = 1e-3


class DivergenceSignal(Exception):
    """Monotone iteration found no minimal solution at this lambda.

    Three outcomes: the iterate blew up at iteration `iterations`
    (`exhausted` False, `fold_lambda` None); the iteration ran out of its
    `iterations` steps without a Newton certificate (`exhausted` True); or
    lambda lies above the fold `fold_lambda` that the fold solve found from
    the iterate after `iterations` = CERTIFY_AFTER steps (`exhausted` False).
    """

    def __init__(self, lam, iterations, amplitude, exhausted, fold_lambda=None):
        if exhausted:
            what = f"ran out of its {iterations} iterations without a Newton certificate"
        elif fold_lambda is not None:
            what = f"lies above the fold at lambda={fold_lambda} after {iterations} iterations"
        else:
            what = f"blew up at iteration {iterations}"
        super().__init__(
            f"monotone iteration {what} at lambda={lam} (amplitude {amplitude:.3e})"
        )
        self.lam = lam
        self.iterations = iterations
        self.exhausted = exhausted
        self.fold_lambda = fold_lambda


class NewtonError(RuntimeError):
    pass


class BranchError(RuntimeError):
    """A failure after the branch walk; `branch` holds the points walked."""

    def __init__(self, message, branch):
        super().__init__(message)
        self.branch = branch


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f with derivative; f(0) > 0, f nondecreasing, superlinear."""

    kind: str
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    f0: float = field(init=False, repr=False)  # f(0), what the weight cut feeds to f

    def __post_init__(self):
        object.__setattr__(self, "f0", float(self.eval(np.array(0.0))))
        if not self.f0 > 0:
            raise ValueError("nonlinearity must satisfy f(0) > 0")
        u = np.linspace(0.0, 100.0, 257)
        if np.any(self.deriv(u) < -1e-12):
            raise ValueError("nonlinearity must be nondecreasing on [0, 100]")
        if not self.eval(np.array(100.0)) / 100.0 > self.eval(np.array(1.0)):
            raise ValueError("nonlinearity fails the superlinearity proxy")


def exponential():
    return Nonlinearity("exp", np.exp, np.exp)


def power(p):
    """f(u) = (1+u)^p, superlinear for p > 1."""
    if p <= 1:
        raise ValueError("power nonlinearity needs p > 1")
    return Nonlinearity(
        f"power:{p}",
        lambda u: (1.0 + u) ** p,
        lambda u: p * (1.0 + u) ** (p - 1.0),
    )


@dataclass(frozen=True)
class BranchPoint:
    t: float                      # amplitude u(0)
    lam: float
    u: spectral.RadialCoeffs
    nu1: float                    # smallest linearized eigenvalue
    residual: float


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    fold_index: Optional[int] = None
    stop: str = "grid end"        # why the walk stopped: "grid end" or Newton's error

    @property
    def lambda_max(self):
        return max(p.lam for p in self.points)


class _NonlinearTerm:
    """The nonlinear term P[f(u~)] of (-Delta)^s u = lambda P[f(u~)], on one basis.

    u~ is the truncated expansion as the solvers feed it into f.  Two guards
    against near-axis synthesis artifacts, which grow with the dimension
    because basis values grow like rho^(-(n-1)/2) toward the axis:

    - the synthesis is spectrally filtered (`spectral.filtered`) for every
      n, so truncation ringing of size |c_K phi_K(rho)| is damped before the
      exponential nonlinearity can amplify it;
    - nodes whose rho^(n-1) quadrature weight is below WEIGHT_CUT = 1e-13 of
      the largest weight hold u~ = 0, so f(noise) cannot overflow there.

    Both guards change the solution, not only the artifacts.  The filter
    damps every coefficient by the factor exp(-36 (k/K)^8).  The weight cut
    feeds f(0) instead of f(u) on the cut nodes, which lie next to the axis:
    0.1 % of the nodes at n = 3, 12 % at n = 10 and 29 % at n = 20
    (rho < 0.19).  At n = 20 the minimal solution near the extremal
    parameter then has a spurious maximum at the cut.

    The cut nodes are the prefix of the rho-sorted nodes before j0: the
    weights |S^(n-1)| rho^(n-1) w_GL increase from the axis to their maximum
    (rho = 0.83 at n = 3, 0.97 at n = 20), and past it they stay far above
    the cut (at least 2e-3 of the largest at K = 512).  The cut is decided
    here alone: every node array the term takes or returns holds the kept
    nodes j0, j0 + 1, ... only, and the cut nodes' f(0) share of the
    projection is one constant vector.  It stays in the sum: at n = 20 it
    is 4.5e-8 of the projection, above the Picard tolerance.
    """

    def __init__(self, basis, f):
        w = basis.quad_weights
        self.j0 = j0 = int(np.argmax(w > WEIGHT_CUT * w.max()))
        self.f = f
        self.phi = basis.phi_table[:, j0:]
        self.w = w[j0:]
        self.sigma = spectral._filter_factors(basis.K)
        self.mu_inv_s = basis.mu ** (-basis.s)
        self.cut_share = basis.phi_table[:, :j0] @ (w[:j0] * f.f0)

    def _nonlinear_nodes(self, c):
        """u~ on the kept nodes: the filtered synthesis of c."""
        return (c * self.sigma) @ self.phi

    def __call__(self, u_nodes):
        """P[f(u~)] from the kept-node values of `_nonlinear_nodes`."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.phi @ (self.w * self.f.eval(u_nodes)) + self.cut_share

    def picard(self, lam, u_nodes):
        """One monotone step: c = lambda mu^(-s) P[f(u~)] and its node values."""
        with np.errstate(over="ignore", invalid="ignore"):
            c = lam * self.mu_inv_s * self(u_nodes)
            return c, self._nonlinear_nodes(c)

    def derivative(self, u_nodes):
        """F = Phi_kept W_kept f'(u~) Phi_kept^T at the kept-node values u_nodes."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _gram(self.phi, self.w * self.f.deriv(u_nodes))

    def jacobian(self, u_nodes):
        """F diag(sigma), the Jacobian of P[f(u~)] in c (u~ filtered, 0 on the cut)."""
        return self.derivative(u_nodes) * self.sigma

    def curvature(self, u_nodes):
        """W_kept f''(u~) at the kept-node values u_nodes, by a complex step on f'.

        Im f'(u + ih) / h = f''(u) - h^2 f''''(u) / 6 + ... takes no
        difference of two values, so at h = 2^-100 it is f'' exact to
        rounding (Squire & Trapp, SIAM Rev. 40, 1998).  f' must take complex
        arguments, as numpy's exp and powers do.  f'' enters only the fold
        solve's Jacobian.
        """
        h = 2.0 ** -100
        with np.errstate(over="ignore", invalid="ignore"):
            return self.w * self.f.deriv(u_nodes + 1j * h).imag / h


def residual(u, lam, f):
    """Coefficient-space residual (-Delta)^s u - lambda * P[f(u)]."""
    term = _NonlinearTerm(u.basis, f)
    proj = term(term._nonlinear_nodes(u.c))
    return spectral.RadialCoeffs(u.basis, spectral.frac_laplacian(u).c - lam * proj)


def _gram(phi, g):
    """Phi diag(g) Phi^T as B B^T with B = Phi |g|^(1/2), exactly symmetric.

    numpy runs a product of a matrix with its own transpose as one SYRK,
    half the flops of a general product.  Nodes with g < 0 (f' < 0 at a
    negative iterate, which an admissible f may have) are summed apart and
    subtracted.
    """
    b = phi * np.sqrt(np.abs(g))
    neg = g < 0
    if not neg.any():
        return b @ b.T
    b_pos, b_neg = b[:, ~neg], b[:, neg]
    return b_pos @ b_pos.T - b_neg @ b_neg.T


def stability_eigenvalue(u, lam, f):
    """Smallest eigenvalue of diag(mu^s) - lambda sigma^(1/2) F sigma^(1/2).

    F is the nonlinear term's derivative (`_NonlinearTerm.derivative`).  The
    matrix is similar to diag(mu^s) - lambda F diag(sigma), the Jacobian of
    `residual`, and symmetric, so `eigh` gives that Jacobian's bottom
    eigenvalue.
    """
    basis = u.basis
    term = _NonlinearTerm(basis, f)
    root = np.sqrt(term.sigma)
    F = term.derivative(term._nonlinear_nodes(u.c))
    A = np.diag(basis.mu ** basis.s) - lam * (root[:, None] * F * root)
    return float(linalg.eigh(A, eigvals_only=True, subset_by_index=(0, 0))[0])


def monotone_iterate(basis, lam, f, max_iter=4000, tol=MONOTONE_TOL):
    """Minimal solution by the sub/supersolution iteration from u = 0.

    u^{m+1} = lambda * (-Delta)^{-s} P[f(u^m)]; the iterates increase
    pointwise and converge exactly when lambda is below the extremal
    parameter.  One f evaluation per step, on the kept nodes
    (`_NonlinearTerm.picard`).  The step converges when it moves the nodes
    by less than tol.

    Near the extremal parameter the contraction ratio tends to 1, so after
    CERTIFY_AFTER steps without a decision the iterate is handed once to
    `_newton_certificate`.  If that fails, `_fold_solve` looks for the fold
    from the same iterate; when lambda lies more than FOLD_MARGIN (relative)
    above it, there is no minimal solution and the iteration stops.
    Otherwise Picard goes on from the same iterate.  Raises DivergenceSignal
    with one of three outcomes: the iterate blew up, lambda lies above the
    fold (`fold_lambda` set, after CERTIFY_AFTER steps), or the iteration
    ran out of max_iter steps without a certificate (`exhausted`).
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    term = _NonlinearTerm(basis, f)
    u_nodes = np.zeros_like(term.w)
    for m in range(1, max_iter + 1):
        c_new, new_nodes = term.picard(lam, u_nodes)
        amp = float(np.max(np.abs(new_nodes)))
        if not np.isfinite(amp) or amp > BLOWUP_THRESHOLD:
            raise DivergenceSignal(lam, m, amp, exhausted=False)
        diff = float(np.max(np.abs(new_nodes - u_nodes)))
        if diff < tol:
            return spectral.RadialCoeffs(basis, c_new)
        u_nodes = new_nodes
        if m == CERTIFY_AFTER:
            u = _newton_certificate(basis, term, lam, c_new, tol)
            if u is not None:
                return u
            fold = _fold_solve(basis, term, lam, c_new)
            if fold is not None and lam > fold.lam * (1.0 + FOLD_MARGIN):
                raise DivergenceSignal(lam, m, amp, exhausted=False, fold_lambda=fold.lam)
    raise DivergenceSignal(lam, max_iter, float(np.max(np.abs(u_nodes))), exhausted=True)


def _bordered_newton(basis, term, c, lam, block, border, tol, chord):
    """Newton in (c, lambda) on {mu^s c - lambda P[f(u~)] = 0, r = 0}.

    A check takes the residual res, the border equation (r, row, corner) =
    border(c, lam, nodes, assemble) and the norm sqrt(|res|^2 + r^2).  A
    step solves with [[J, -P[f(u~)]], [row, corner]], J = diag(mu^s) -
    lambda G, factored in place in one Fortran-ordered (K+1)^2 buffer.
    G = block(nodes) is the term's F diag(sigma), or in continuation F
    alone, which differs from it only by the sigma factor.  `assemble()`
    writes J there and returns (buffer, G), for a border that solves with J
    itself.  With `chord` the LU is kept while each norm is at most
    CHORD_RATIO times the previous one, or at most r_f times it with r_f < 1,
    where r_f is that ratio for the LU's fresh step, the first step taken
    with it: a fresh LU that contracts no faster than the kept one is not
    worth its F build and factorization.  A fresh step that did not reduce
    the norm (r_f >= 1) refactors at once.  With the exact Jacobian r_f is
    at most 1/2 near the solution and the rule is Kelley's.  Without
    `chord` every step refactors, and the first check after the first whose
    norm is not below the least so far stalls the solve.  tol is NEWTON_TOL
    in continuation and the fold solve, and the residual's rounding level in
    the certificate.  Returns (outcome, best, norm):
    "converged" (norm <= tol), "stalled", "non-finite" (the norm),
    "singular" (a zero pivot) or "budget" (NEWTON_MAX_STEPS checks); best is
    (c, lam, res) of the least norm (None before a finite one), norm the last.
    """
    K = basis.K
    mus = basis.mu ** basis.s
    diag = np.arange(K)
    M = np.empty((K + 1, K + 1), order="F")
    lu, G, best, best_norm, last_norm = None, None, None, np.inf, np.inf
    fresh_ratio = None  # r_f, None until the next check rates a new LU's first step

    def assemble():
        nonlocal G
        if G is None:
            G = block(nodes)
        np.multiply(G, -lam, out=M[:K, :K])
        M[diag, diag] += mus
        return M, G

    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        # a singular matrix shows as a zero pivot, in a border's own solve as a non-finite r
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        for m in range(1, NEWTON_MAX_STEPS + 1):
            nodes = term._nonlinear_nodes(c)
            proj = term(nodes)
            res = mus * c - lam * proj
            r, row, corner = border(c, lam, nodes, assemble)
            norm = math.sqrt(float(res @ res) + r * r)
            if not math.isfinite(norm):
                return "non-finite", best, norm
            if norm < best_norm:
                best, best_norm = (c, lam, res), norm
            elif not chord:
                return "stalled", best, norm
            if norm <= tol:
                return "converged", best, norm
            if m == NEWTON_MAX_STEPS:
                return "budget", best, norm
            ratio = norm / last_norm
            if fresh_ratio is None:
                fresh_ratio = ratio
            if not (chord and lu is not None
                    and (norm <= CHORD_RATIO * last_norm or ratio <= fresh_ratio < 1.0)):
                assemble()
                M[:K, K], M[K, :K], M[K, K] = -proj, row, corner
                lu = linalg.lu_factor(M, overwrite_a=True, check_finite=False)
                if not lu[0].diagonal().all():
                    return "singular", best, norm
                fresh_ratio = None
            last_norm = norm
            # without finiteness checks a non-finite iterate is left to the next check
            step = linalg.lu_solve(lu, -np.concatenate([res, [r]]), check_finite=False)
            c, lam, G = c + step[:K], lam + float(step[K]), None


def _newton_certificate(basis, term, lam, c, tol):
    """The minimal solution by fixed-lambda Newton from the Picard iterate c, or None.

    The kernel takes full steps with lambda pinned and stops at the
    residual's rounding level, CERTIFY_FLOOR eps |mu^s c| for the Picard
    iterate c.  Its best point is accepted only if one Picard step from it
    moves the nodes by less than tol, the monotone iteration's own
    test, and nu1 > 0 there: for convex f the stable solution is the minimal
    one (Crandall & Rabinowitz, ARMA 58, 1975).  The coefficient residual is
    no test: at n = 20, Picard iterates 2.7e-3 apart at the nodes have
    residual 5e-9.
    """
    pin = np.zeros(basis.K)
    floor = CERTIFY_FLOOR * np.finfo(float).eps * float(np.linalg.norm(basis.mu ** basis.s * c))
    _, best, _ = _bordered_newton(basis, term, c, lam, term.jacobian,
                                  lambda *_: (0.0, pin, 1.0), floor, chord=False)
    if best is None:
        return None
    nodes = term._nonlinear_nodes(best[0])
    c_new, new_nodes = term.picard(lam, nodes)
    if not float(np.max(np.abs(new_nodes - nodes))) < tol:
        return None
    u = spectral.RadialCoeffs(basis, c_new)
    return u if stability_eigenvalue(u, lam, term.f) > 0 else None


def _fold_solve(basis, term, lam, c):
    """The fold of the minimal branch, by Newton from (c, lam), as a BranchPoint or None.

    Two callers start it: `monotone_iterate` from a Picard iterate that the
    certificate did not decide, and `_refine_fold` from the walked fold point.
    The kernel takes full steps with the border equation g = 0 (Griewank &
    Reddien, SIAM J. Numer. Anal. 21, 1984): g is the last entry of the
    bordered solve [[J, b], [d^T, 0]] [v; g] = [0; 1], zero exactly where J
    is singular.  b = sigma^(1/2) q and d = sigma^(-1/2) q, q the bottom
    eigenvector of the symmetric form at the start, approximate J's null
    vectors.  The transposed solve [w; .] of the same LU gives g_lambda =
    w^T F sigma v and g_c = lambda sigma Phi (W f''(u~) Phi^T w Phi^T sigma
    v) on the kept nodes, f'' by a complex step on f' (`curvature`), so a
    step costs one F, two (K+1)^2 LUs and a few products.  The best
    point is accepted, with its nu1 and coefficient residual, if that
    residual is at most NEWTON_TOL and |nu1| at most FOLD_NU1_TOL: a
    semistable solution ends the minimal branch for convex f (Crandall &
    Rabinowitz, ARMA 58, 1975), and later turning points have nu1 < 0.
    """
    K = basis.K
    sigma = term.sigma
    root = np.sqrt(sigma)
    unit = np.zeros(K + 1)
    unit[K] = 1.0
    q = None

    def fold_function(c, lam, nodes, assemble):
        nonlocal q
        M, G = assemble()
        if q is None:  # at the start, from the symmetric form sigma^(1/2) J sigma^(-1/2)
            S = root[:, None] * M[:K, :K]
            S /= root
            try:
                q = linalg.eigh(S, subset_by_index=(0, 0), overwrite_a=True)[1][:, 0]
            except (ValueError, linalg.LinAlgError):
                return np.nan, None, None
        M[:K, K], M[K, :K], M[K, K] = root * q, q / root, 0.0
        lu = linalg.lu_factor(M, overwrite_a=True, check_finite=False)
        v, g = np.split(linalg.lu_solve(lu, unit, check_finite=False), [K])
        w = linalg.lu_solve(lu, unit, trans=1, check_finite=False)[:K]
        g_c = lam * sigma * (term.phi @ (term.curvature(nodes) * (w @ term.phi)
                                         * ((sigma * v) @ term.phi)))
        return float(g[0]), g_c, w @ (G @ v)

    _, best, _ = _bordered_newton(basis, term, c, lam, term.jacobian,
                                  fold_function, NEWTON_TOL, chord=False)
    if best is None:
        return None
    c, lam, res = best
    residual_norm = math.sqrt(float(res @ res))
    if not residual_norm <= NEWTON_TOL:
        return None
    u = spectral.RadialCoeffs(basis, c)
    nu1 = stability_eigenvalue(u, lam, term.f)
    if not abs(nu1) <= FOLD_NU1_TOL:
        return None
    return BranchPoint(t=amplitude(u), lam=lam, u=u, nu1=nu1, residual=residual_norm)


def picard_bisect(basis, f, lo, hi, width):
    """Halve [lo, hi] around the largest lambda at which monotone_iterate converges.

    While hi - lo > width, the midpoint replaces lo if the iteration
    converges there (by Picard or by its Newton certificate) and hi if it
    raises DivergenceSignal: a step that blew up, one that lies above the
    fold its fold solve found, or one that ran out of its budget without a
    certificate, counts as an upper end.  The first solved fold is kept, and
    a midpoint more than FOLD_MARGIN (relative) above it is an upper end
    without an iteration: there it blows up, or its own fold solve finds the
    same fold.  Returns (lo, hi).
    width must be positive: the midpoint of two adjacent floats rounds onto
    one of them, so a zero width would never be reached.
    """
    if not width > 0:
        raise ValueError(f"bisection width must be > 0, got {width}")
    fold = None
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if fold is not None and mid > fold * (1.0 + FOLD_MARGIN):
            hi = mid
            continue
        try:
            monotone_iterate(basis, mid, f)
            lo = mid
        except DivergenceSignal as exc:
            hi = mid
            if fold is None:
                fold = exc.fold_lambda
    return lo, hi


def amplitude(u):
    """Stable value at the origin: filtered synthesis at rho = 0.

    Raw partial sums at the origin converge slowly (phi_k(0) grows like
    k^{(n-1)/2}), and in higher dimension the unfiltered value is dominated
    by the truncation tail.  The filtered value is exact to rounding for
    functions the basis resolves.  Newton's amplitude constraint uses the
    same row.
    """
    return float(_amplitude_row(u.basis) @ u.c)


def _amplitude_row(basis):
    """The filtered phi_k(0) as a coefficient-space row: amplitude(u) = row @ c."""
    row = basis.phi_matrix(np.array([0.0]))[:, 0]
    return spectral.filtered(spectral.RadialCoeffs(basis, row)).c


def newton_solve(basis, t, f, guess=None):
    """Solve {residual(u, lam) = 0, amplitude(u) = t} for (u, lam) by Newton.

    The kernel's border is the amplitude constraint phi0^T c = t, which
    keeps [[diag(mu^s) - lambda F, -P], [phi0^T, 0]] nonsingular at the
    fold, and it takes chord steps down to NEWTON_TOL.  F is the nonlinear
    term's (`_NonlinearTerm.derivative`); the residual's Jacobian block is
    F diag(sigma), so the sigma factor is the one part of it left out.
    Running out of NEWTON_MAX_STEPS checks, or a non-finite residual, raises
    NewtonError with the last residual norm.  Returns a BranchPoint with the
    stability eigenvalue attached.
    """
    if t < 0:
        raise ValueError("amplitude t must be >= 0")
    phi0 = _amplitude_row(basis)
    if guess is None:
        c = np.zeros(basis.K)
        lam = 0.0
        if t > 0:
            # first-order predictor along lambda*f(0)*zeta0
            zeta0 = spectral._zeta0(basis).c
            lam = t / (f.f0 * float(phi0 @ zeta0))
            c = lam * f.f0 * zeta0
    else:
        c, lam = np.array(guess[0].c), float(guess[1])

    term = _NonlinearTerm(basis, f)
    outcome, best, norm = _bordered_newton(
        basis, term, c, lam, term.derivative,
        lambda c, lam, nodes, assemble: (float(phi0 @ c) - t, phi0, 0.0),
        NEWTON_TOL, chord=True,
    )
    if outcome == "singular":
        raise NewtonError(f"singular augmented Jacobian at t={t}")
    if outcome != "converged":
        raise NewtonError(f"Newton did not converge at t={t} (residual {norm:.3e})")
    c, lam, _ = best
    u = spectral.RadialCoeffs(basis, c)
    return BranchPoint(t=t, lam=lam, u=u, nu1=stability_eigenvalue(u, lam, f), residual=norm)


def continue_branch(basis, t_grid, f):
    """Walk the branch over a strictly increasing amplitude grid.

    Secant predictor between consecutive solves; the walk stops at the first
    NewtonError, whose message (naming its t) becomes `Branch.stop`.  The
    fold is marked where lambda first decreases, also at the first walked
    point, and `_refine_fold` replaces it by the fold that the fold solve
    finds from there, inserted as an extra branch point; a failed refinement
    raises BranchError carrying the walked branch.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    br = Branch()
    prev = None
    prev2 = None
    for t in t_grid:
        if prev is None:
            guess = None
        elif prev2 is None:
            guess = (prev.u, prev.lam)
        else:
            frac = (t - prev.t) / (prev.t - prev2.t)
            c_pred = prev.u.c + frac * (prev.u.c - prev2.u.c)
            lam_pred = prev.lam + frac * (prev.lam - prev2.lam)
            guess = (spectral.RadialCoeffs(basis, c_pred), lam_pred)
        try:
            point = newton_solve(basis, float(t), f, guess=guess)
        except NewtonError as exc:
            br.stop = str(exc)
            break
        br.points.append(point)
        prev2, prev = prev, point
    lams = [p.lam for p in br.points]
    for i in range(1, len(lams)):
        if lams[i] < lams[i - 1]:
            br.fold_index = i - 1
            break
    if br.fold_index is not None:
        try:
            _refine_fold(basis, br, f)
        except NewtonError as exc:
            raise BranchError(f"fold refinement failed: {exc}", br) from exc
    return br


def _refine_fold(basis, br, f):
    """Replace the walked fold by the fold that `_fold_solve` finds from it.

    The fold solve starts at the walked point `br.fold_index` and needs no
    bracket, so a fold at the first walked point is refined as well; when it
    finds no fold, NewtonError names its start t.  Its point, with its own
    amplitude, nu1 and residual, is inserted in amplitude order; the fold
    stays the point of largest lambda.
    """
    start = br.points[br.fold_index]
    point = _fold_solve(basis, _NonlinearTerm(basis, f), start.lam, start.u.c)
    if point is None:
        raise NewtonError(f"the fold solve from t={start.t} found no fold")
    br.points.insert(int(np.searchsorted([p.t for p in br.points], point.t)), point)
    br.fold_index = int(np.argmax([p.lam for p in br.points]))


def estimate_lambda_star(basis, f, t_max=12.0, t_steps=48, bracket_rel_tol=BRACKET_REL_TOL):
    """Two independent brackets for the extremal parameter.

    (i) maximum of the continued branch, with the fold solved for from the
    walked fold point (`_refine_fold`);
    (ii) bisection on convergence/divergence of the monotone iteration
    (picard_bisect); a step that runs out of its budget without a Newton
    certificate, or that lies above the fold its fold solve found from the
    Picard iterate, counts as an upper end, like one that blows up.
    A BranchError, carrying the continued branch, is raised when the fold
    refinement fails, when the routes disagree by more than bracket_rel_tol,
    or when the monotone iteration gives no bracket around the fold.
    Returns (lo, hi, branch).
    """
    br = _walk(basis, f, t_max, t_steps)
    lam_fold = extremal_solution(br).lam

    lo, hi = lam_fold * (1.0 - 2.0 * bracket_rel_tol), lam_fold * (1.0 + 0.05)
    try:
        monotone_iterate(basis, lo, f)
    except DivergenceSignal:
        lo = lam_fold * 0.9  # fold estimate slightly high; widen downward
        try:
            monotone_iterate(basis, lo, f)
        except DivergenceSignal as exc:
            raise BranchError(
                f"monotone iteration diverges at lambda={lo}, "
                f"0.9 times the fold estimate {lam_fold}", br
            ) from exc
    # grow hi by 5 % until the iteration diverges, at most to 1.05^60 ~ 19x
    for _ in range(60):
        try:
            monotone_iterate(basis, hi, f)
        except DivergenceSignal:
            break
        hi *= 1.05
    else:
        raise BranchError(
            f"monotone iteration converges up to lambda={hi / 1.05}, "
            f"1.05^60 times the fold estimate {lam_fold}", br
        )
    lo, hi = picard_bisect(basis, f, lo, hi, bracket_rel_tol * lam_fold)
    if not (lo - bracket_rel_tol * lam_fold <= lam_fold <= hi + bracket_rel_tol * lam_fold):
        raise BranchError(
            f"fold estimate {lam_fold} inconsistent with bisection bracket "
            f"[{lo}, {hi}]", br
        )
    return lo, hi, br


def _walk(basis, f, t_max, t_steps):
    """`continue_branch` over the amplitude grid t_max / t_steps, 2 t_max / t_steps, ..., t_max."""
    return continue_branch(basis, np.linspace(0.0, t_max, t_steps + 1)[1:], f)


def extremal_solution(br):
    """Branch point of largest lambda (the fold); its trace approximates u*.

    A branch without a fold raises BranchError carrying it.
    """
    if br.fold_index is None:
        raise BranchError("no fold detected; increase t_max", br)
    return br.points[br.fold_index]
