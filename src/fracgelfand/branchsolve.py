"""Minimal-solution branch of (-Delta)^s u = lambda f(u) on the unit ball.

Two routes to the branch: monotone iteration from zero (yields the minimal
solution, diverges above the extremal parameter; where it stalls near that
parameter a Newton certificate decides) and amplitude-parametrized
Newton continuation, which passes the fold where lambda-continuation would
lose the Jacobian.  The smallest eigenvalue of the linearized operator is
tracked along the branch; it crosses zero at the fold.  One bordered fold
solve (`_fold_solve`) locates that fold: continuation starts it from its
walked fold point, each monotone iteration from its own iterate when no
certificate decides it.  Continuation, the certificate and the fold solve
are one Newton kernel (`_bordered_newton`) with three border equations: the
amplitude, lambda pinned, and the fold function.  All three build their J
block from the nonlinear term's F; only continuation leaves out the sigma
factor of the exact Jacobian F diag(sigma) (`_NonlinearTerm.jacobian`).
Continuation and the certificate take chord steps, the fold solve full
steps.  nu1 has one implementation, `_nu1`, which returns the F it was
computed on; a walk builds F about once a point, because the next point's
chord steps start from the F of the previous point's nu1.  Continuation
and the fold solve stop at NEWTON_TOL, the certificate at the residual's
rounding level (CERTIFY_FLOOR); the certificate tests nu1 > 0 by a
Cholesky factorization (`_is_stable`), not an eigenvalue.
Every Picard step and every Newton check reads the basis table once: the
node values and the projection come from one pass over column panels
(`_NonlinearTerm.project`).
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
# bytes of Phi per column panel of `_NonlinearTerm.project`: the synthesis
# reads a panel and the projection reads it again, so the panel should still
# sit in a core's L2 cache when the projection comes to it.  One Picard step
# at n = 20 near lambda-hat, one BLAS thread, Xeon with 2 MiB L2 per core:
# 256 KiB / 512 KiB / 1 MiB / 2 MiB / whole-table panels take 0.59 / 0.53 /
# 0.50 / 0.55 / 0.58 ms at K = 512 and 2.15 / 1.92 / 1.75 / 1.88 / 2.09 ms
# at K = 1024
_PANEL_BYTES = 2 ** 20


class DivergenceSignal(Exception):
    """Monotone iteration found no minimal solution at this lambda.

    Three outcomes: the iterate blew up at iteration `iterations`
    (`exhausted` False, `fold_lambda` None); the iteration ran out of its
    `iterations` steps without a Newton certificate (`exhausted` True); or
    lambda lies more than FOLD_MARGIN above the fold `fold_lambda`, which
    the fold solve found from the iterate after `iterations` =
    CERTIFY_AFTER steps (`exhausted` False).
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
        self.panel = max(1, _PANEL_BYTES // (basis.K * self.phi.itemsize))  # nodes per panel

    def project(self, c):
        """(u~, P[f(u~)]): the kept-node values of c and the projection, in one pass.

        Phi_kept is column-major, so a run of nodes is one contiguous
        panel of about _PANEL_BYTES.  For each panel the synthesis u~ =
        (sigma c) Phi reads it and the projection adds Phi (W f(u~)) while
        it is still in cache, so a call reads Phi_kept once, not twice.
        """
        sc = c * self.sigma
        nodes = np.empty(self.w.size)
        proj = self.cut_share.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, nodes.size, self.panel):
                panel = self.phi[:, lo:lo + self.panel]
                u = np.matmul(sc, panel, out=nodes[lo:lo + self.panel])
                proj += panel @ (self.w[lo:lo + self.panel] * self.f.eval(u))
        return nodes, proj

    def derivative(self, u_nodes):
        """F = Phi_kept W_kept f'(u~) Phi_kept^T at the kept-node values u_nodes."""
        with np.errstate(over="ignore", invalid="ignore"):
            return spectral._gram(self.phi, self.w * self.f.deriv(u_nodes))

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
    _, proj = _NonlinearTerm(u.basis, f).project(u.c)
    return spectral.RadialCoeffs(u.basis, spectral.frac_laplacian(u).c - lam * proj)


def _stability_form(basis, term, lam, F):
    """diag(mu^s) - lambda sigma^(1/2) F sigma^(1/2), in one new array.

    F is the nonlinear term's derivative (`_NonlinearTerm.derivative`) and is
    left as it is.  The matrix is similar to diag(mu^s) - lambda F
    diag(sigma), the Jacobian of `residual`, and symmetric.
    """
    root = np.sqrt(term.sigma)
    A = root[:, None] * F
    A *= root
    A *= -lam
    A[np.diag_indices_from(A)] += basis.mu ** basis.s
    return A


def _nu1(basis, term, lam, c):
    """(nu1, F) at the coefficients c: the smallest eigenvalue of the Jacobian
    of `residual`, by `eigh` on `_stability_form`, and the F it was built on.

    The one implementation of nu1: `stability_eigenvalue` wraps it, and
    `newton_solve` and `_fold_solve` call it on their own term; a walk
    hands the F on.
    """
    F = term.derivative(term.project(c)[0])
    A = _stability_form(basis, term, lam, F)
    return float(linalg.eigh(A, eigvals_only=True, subset_by_index=(0, 0), overwrite_a=True)[0]), F


def stability_eigenvalue(u, lam, f):
    """Smallest eigenvalue nu1 of the Jacobian of `residual` at (u, lam) (`_nu1`)."""
    return _nu1(u.basis, _NonlinearTerm(u.basis, f), lam, u.c)[0]


def _is_stable(basis, term, lam, nodes):
    """Whether nu1 > 0 at the kept-node values nodes, without an eigenvalue.

    The symmetric `_stability_form` has a Cholesky factor exactly when it is
    positive definite, that is when nu1 > 0 (up to rounding).  At n = 20,
    one BLAS thread, the factorization takes 3.7 ms against 12.6 ms for the
    bottom eigenvalue by `eigh` at K = 512, and 7.3 against 100 ms at
    K = 1024.
    """
    try:
        linalg.cholesky(_stability_form(basis, term, lam, term.derivative(nodes)),
                        overwrite_a=True)
    except linalg.LinAlgError:
        return False
    return True


def monotone_iterate(basis, lam, f, max_iter=4000, tol=MONOTONE_TOL):
    """Minimal solution by the sub/supersolution iteration from u = 0.

    u^{m+1} = lambda * (-Delta)^{-s} P[f(u^m)]; the iterates increase
    pointwise and converge exactly when lambda is below the extremal
    parameter.  One pass over the kept nodes per step
    (`_NonlinearTerm.project`) gives the iterate's node values and the
    projection that makes the next iterate.  The step converges when it
    moves the nodes by less than tol.

    Near the extremal parameter the contraction ratio tends to 1, so after
    CERTIFY_AFTER steps without a decision the iterate is handed once to
    `_newton_certificate`.  If that fails, `_fold_solve` looks for the fold
    from the same iterate; when lambda lies more than FOLD_MARGIN (relative)
    above it, there is no minimal solution and the iteration stops.
    Otherwise (no fold found, or lambda within FOLD_MARGIN of it) Picard
    goes on from the same iterate.  Raises DivergenceSignal with one of
    three outcomes: the iterate blew up, lambda lies above the fold
    (`fold_lambda` set, after CERTIFY_AFTER steps), or the iteration ran out
    of max_iter steps without a certificate (`exhausted`).
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    term = _NonlinearTerm(basis, f)
    scale = lam * term.mu_inv_s
    u_nodes, proj = term.project(np.zeros(basis.K))
    for m in range(1, max_iter + 1):
        c = scale * proj
        new_nodes, proj = term.project(c)
        amp = float(np.max(np.abs(new_nodes)))
        if not np.isfinite(amp) or amp > BLOWUP_THRESHOLD:
            raise DivergenceSignal(lam, m, amp, exhausted=False)
        diff = float(np.max(np.abs(new_nodes - u_nodes)))
        if diff < tol:
            return spectral.RadialCoeffs(basis, c)
        u_nodes = new_nodes
        if m == CERTIFY_AFTER:
            u = _newton_certificate(basis, term, lam, c, tol)
            if u is not None:
                return u
            fold = _fold_solve(basis, term, lam, c)
            if fold is not None and lam > fold.lam * (1.0 + FOLD_MARGIN):
                raise DivergenceSignal(lam, m, amp, exhausted=False, fold_lambda=fold.lam)
    raise DivergenceSignal(lam, max_iter, float(np.max(np.abs(u_nodes))), exhausted=True)


def _bordered_newton(basis, term, c, lam, block, border, tol, chord, stall):
    """Newton in (c, lambda) on {mu^s c - lambda P[f(u~)] = 0, r = 0}.

    A check takes the residual res, the border equation (r, row, corner) =
    border(c, lam, nodes, assemble) and the norm sqrt(|res|^2 + r^2).  A
    step solves with [[J, -P[f(u~)]], [row, corner]], J = diag(mu^s) -
    lambda G, factored in place in one Fortran-ordered (K+1)^2 buffer.
    G = block(nodes) is the term's F diag(sigma), or in continuation F
    alone, which differs from it only by the sigma factor; continuation's
    first block may be an F handed on from the walk's previous point, built
    at other nodes (`newton_solve`).  A block is dropped after the step it
    was factored for.  `assemble()`
    writes J there and returns (buffer, G), for a border that solves with J
    itself.  A check's node values and projection are one pass of
    `_NonlinearTerm.project`.  Three modes:

    - chord (`chord`, continuation): the LU is kept while each norm is at
      most CHORD_RATIO times the previous one, or at most r_f times it with
      r_f < 1, where r_f is that ratio for the LU's fresh step, the first
      step taken with it: a fresh LU that contracts no faster than the kept
      one is not worth its F build and factorization.  A fresh step that did
      not reduce the norm (r_f >= 1) refactors at once; so does the first
      step on a handed F, which is rated like any fresh LU's.  With the exact
      Jacobian r_f is at most 1/2 near the solution and the rule is Kelley's.
    - chord that stalls (`chord` and `stall`, the certificate): the same
      steps, but a fresh step whose norm is not below the least so far
      stalls the solve; a kept LU's step that does not reduce it refactors.
    - full steps (`stall` alone, the fold solve): every step refactors, so
      every step is fresh, and the first check after the first whose norm
      is not below the least so far stalls the solve.

    tol is NEWTON_TOL in continuation and the fold solve, and the residual's
    rounding level in the certificate.  Returns (outcome, best, norm):
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
            nodes, proj = term.project(c)
            res = mus * c - lam * proj
            r, row, corner = border(c, lam, nodes, assemble)
            norm = math.sqrt(float(res @ res) + r * r)
            if not math.isfinite(norm):
                return "non-finite", best, norm
            if norm < best_norm:
                best, best_norm = (c, lam, res), norm
            elif stall and lu is not None and fresh_ratio is None:  # after a fresh step
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

    The kernel takes chord steps with lambda pinned, stalls when a fresh
    LU's step does not lower the least norm, and stops at the residual's
    rounding level, CERTIFY_FLOOR eps |mu^s c| for the Picard iterate c.
    Its best point is accepted only if one Picard step from it moves the
    nodes by less than tol, the monotone iteration's own test, and nu1 > 0
    there (`_is_stable`): for convex f the stable solution is the minimal
    one (Crandall & Rabinowitz, ARMA 58, 1975).  The coefficient residual is
    no test: at n = 20, Picard iterates 2.7e-3 apart at the nodes have
    residual 5e-9.
    """
    pin = np.zeros(basis.K)
    floor = CERTIFY_FLOOR * np.finfo(float).eps * float(np.linalg.norm(basis.mu ** basis.s * c))
    _, best, _ = _bordered_newton(basis, term, c, lam, term.jacobian,
                                  lambda *_: (0.0, pin, 1.0), floor, chord=True, stall=True)
    if best is None:
        return None
    nodes, proj = term.project(best[0])
    c_new = lam * term.mu_inv_s * proj
    new_nodes, _ = term.project(c_new)
    if not float(np.max(np.abs(new_nodes - nodes))) < tol:
        return None
    if not _is_stable(basis, term, lam, new_nodes):
        return None
    return spectral.RadialCoeffs(basis, c_new)


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
    step costs one F, two (K+1)^2 LUs and a few products.  The best point
    is accepted, with its nu1 (`_nu1` on the solve's own term) and its
    coefficient residual, if that residual is at most NEWTON_TOL and |nu1|
    at most FOLD_NU1_TOL: a semistable solution ends the minimal branch for
    convex f (Crandall & Rabinowitz, ARMA 58, 1975), and later turning
    points have nu1 < 0.
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
                                  fold_function, NEWTON_TOL, chord=False, stall=True)
    if best is None:
        return None
    c, lam, res = best
    residual_norm = math.sqrt(float(res @ res))
    if not residual_norm <= NEWTON_TOL:
        return None
    nu1, _ = _nu1(basis, term, lam, c)
    if not abs(nu1) <= FOLD_NU1_TOL:
        return None
    u = spectral.RadialCoeffs(basis, c)
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
    same fold, so a skip saves an iteration and, near the fold, a fold
    solve.  A midpoint below that, within FOLD_MARGIN of the fold included,
    is iterated as any other.  Returns (lo, hi).
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
    return float(u.basis.filtered_origin_row @ u.c)


def _zeta0_guess(basis, t, f):
    """(u, lam) on the first-order branch lambda f(0) zeta0 with amplitude t."""
    if t == 0:
        return spectral.RadialCoeffs(basis, np.zeros(basis.K)), 0.0
    zeta0 = spectral._zeta0(basis).c
    lam = t / (f.f0 * float(basis.filtered_origin_row @ zeta0))
    return spectral.RadialCoeffs(basis, lam * f.f0 * zeta0), lam


def newton_solve(basis, t, f, guess=None):
    """Solve {residual(u, lam) = 0, amplitude(u) = t} for (u, lam) by Newton.

    The kernel's border is the amplitude constraint phi0^T c = t, which
    keeps [[diag(mu^s) - lambda F, -P], [phi0^T, 0]] nonsingular at the
    fold, and it takes chord steps down to NEWTON_TOL.  F is the nonlinear
    term's (`_NonlinearTerm.derivative`); the residual's Jacobian block is
    F diag(sigma), so the sigma factor is the one part of it left out.
    Running out of NEWTON_MAX_STEPS checks, or a non-finite residual, raises
    NewtonError with the last residual norm.  Returns a BranchPoint with the
    stability eigenvalue nu1 attached (`_nu1`).

    guess is (u, lam), by default on the first-order branch (`_zeta0_guess`).
    `continue_branch` adds a third item, a one-item list that carries F from
    one solve to the next: the F held there, if any, is the J block of the
    first LU in place of a build at the guess, and is let go once used; the
    F that nu1 was computed on is put there for the next solve.
    """
    if t < 0:
        raise ValueError("amplitude t must be >= 0")
    phi0 = basis.filtered_origin_row
    if guess is None:
        guess = _zeta0_guess(basis, t, f)
    c, lam = np.array(guess[0].c), float(guess[1])
    handed = guess[2] if len(guess) > 2 else [None]

    term = _NonlinearTerm(basis, f)

    def block(nodes):
        F, handed[0] = handed[0], None
        return term.derivative(nodes) if F is None else F

    outcome, best, norm = _bordered_newton(
        basis, term, c, lam, block,
        lambda c, lam, nodes, assemble: (float(phi0 @ c) - t, phi0, 0.0),
        NEWTON_TOL, chord=True, stall=False,
    )
    if outcome == "singular":
        raise NewtonError(f"singular augmented Jacobian at t={t}")
    if outcome != "converged":
        raise NewtonError(f"Newton did not converge at t={t} (residual {norm:.3e})")
    c, lam, _ = best
    nu1, handed[0] = _nu1(basis, term, lam, c)
    return BranchPoint(t=t, lam=lam, u=spectral.RadialCoeffs(basis, c), nu1=nu1, residual=norm)


def continue_branch(basis, t_grid, f):
    """Walk the branch over a strictly increasing amplitude grid.

    Secant predictor between consecutive solves (the first-order branch for
    the first); the walk stops at the first NewtonError, whose message
    (naming its t) becomes `Branch.stop`.  Each solve starts its chord steps
    from the F on which the previous point's nu1 was computed, in place of a
    build at its predictor, so the walk builds F about once a point.  The
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
    handed = [None]  # F of the last point's nu1, for the next solve's first LU
    for t in t_grid:
        if prev is None:
            u_pred, lam_pred = _zeta0_guess(basis, float(t), f)
        elif prev2 is None:
            u_pred, lam_pred = prev.u, prev.lam
        else:
            frac = (t - prev.t) / (prev.t - prev2.t)
            c_pred = prev.u.c + frac * (prev.u.c - prev2.u.c)
            lam_pred = prev.lam + frac * (prev.lam - prev2.lam)
            u_pred = spectral.RadialCoeffs(basis, c_pred)
        try:
            point = newton_solve(basis, float(t), f, guess=(u_pred, lam_pred, handed))
        except NewtonError as exc:
            br.stop = str(exc)
            break
        br.points.append(point)
        prev2, prev = prev, point
    handed[0] = None  # let the last F go before the fold solve builds its own
    lams = [p.lam for p in br.points]
    for i in range(1, len(lams)):
        if lams[i] < lams[i - 1]:
            br.fold_index = i - 1
            break
    if br.fold_index is not None:
        _refine_fold(basis, br, f)
    return br


def _refine_fold(basis, br, f):
    """Replace the walked fold by the fold that `_fold_solve` finds from it.

    The fold solve starts at the walked point `br.fold_index` and needs no
    bracket, so a fold at the first walked point is refined as well; when it
    finds no fold, a BranchError carrying the walked branch names its start
    t.  Its point, with its own amplitude, nu1 and residual, is inserted in
    amplitude order; the fold stays the point of largest lambda.
    """
    start = br.points[br.fold_index]
    point = _fold_solve(basis, _NonlinearTerm(basis, f), start.lam, start.u.c)
    if point is None:
        raise BranchError(
            f"fold refinement failed: the fold solve from t={start.t} found no fold", br
        )
    br.points.insert(int(np.searchsorted([p.t for p in br.points], point.t)), point)
    br.fold_index = int(np.argmax([p.lam for p in br.points]))


def estimate_lambda_star(basis, f, t_max=12.0, t_steps=48, bracket_rel_tol=BRACKET_REL_TOL):
    """Two independent brackets for the extremal parameter.

    (i) lambda_F, the fold of the continued branch, solved for from the
    walked fold point (`_refine_fold`);
    (ii) bisection on convergence/divergence of the monotone iteration
    (picard_bisect) from lambda_F (1 - 2 bracket_rel_tol) to 1.05 lambda_F,
    each end checked by one iteration; a step that runs out of its budget
    without a Newton certificate, or that lies above the fold its fold solve
    found from the Picard iterate, counts as an upper end, like one that
    blows up.
    A BranchError, carrying the continued branch, is raised when the fold
    refinement fails, when the iteration diverges at the bracket's lower end
    or converges at its upper end, or when the routes disagree by more than
    bracket_rel_tol.  Returns (lo, hi, branch).
    """
    br = _walk(basis, f, t_max, t_steps)
    lam_fold = extremal_solution(br).lam

    lo, hi = lam_fold * (1.0 - 2.0 * bracket_rel_tol), lam_fold * 1.05
    try:
        monotone_iterate(basis, lo, f)
    except DivergenceSignal as exc:
        raise BranchError(
            f"monotone iteration diverges at lambda={lo}, below the fold {lam_fold}", br
        ) from exc
    try:
        monotone_iterate(basis, hi, f)
    except DivergenceSignal:
        pass
    else:
        raise BranchError(
            f"monotone iteration converges at lambda={hi}, above the fold {lam_fold}", br
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
