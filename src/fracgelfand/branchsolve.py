"""Minimal-solution branch of (-Delta)^s u = lambda f(u) on the unit ball.

Two routes to the branch: monotone iteration from zero (yields the minimal
solution, diverges above the extremal parameter) and amplitude-parametrized
Newton continuation, which passes the fold where lambda-continuation would
lose the Jacobian.  The smallest eigenvalue of the linearized operator is
tracked along the branch; it crosses zero at the fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import linalg

from . import spectral

BLOWUP_THRESHOLD = 1e6
NEWTON_TOL = 1e-10
MONOTONE_TOL = 1e-9
WEIGHT_CUT = 1e-13  # relative quadrature weight below which f sees u = 0


class DivergenceSignal(Exception):
    """Monotone iteration blew up: no minimal solution at this lambda."""

    def __init__(self, lam, iterations, amplitude):
        super().__init__(
            f"monotone iteration diverged at lambda={lam} "
            f"(iter {iterations}, amplitude {amplitude:.3e})"
        )
        self.lam = lam
        self.iterations = iterations


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
    the cut (at least 2e-3 of the largest at K = 512).  So synthesis, f and
    the projection run on the kept nodes only, and the cut nodes' f(0) share
    of the projection is one constant vector.  It stays in the sum: at
    n = 20 it is 4.5e-8 of the projection, above the Picard tolerance.
    """

    def __init__(self, basis, f):
        w = basis.quad_weights
        self.j0 = int(np.argmax(w > WEIGHT_CUT * w.max()))
        self.f = f
        self.phi = basis.phi_table[:, self.j0:]
        self.w = w[self.j0:]
        self.sigma = spectral._filter_factors(basis.K)
        self.cut_share = basis.phi_table[:, : self.j0] @ (w[: self.j0] * f.f0)

    def _nonlinear_nodes(self, c):
        """u~ at every node: the filtered synthesis of c, zero on the cut."""
        return np.concatenate([np.zeros(self.j0), (c * self.sigma) @ self.phi])

    def __call__(self, u_nodes):
        """P[f(u~)] from the node values of `_nonlinear_nodes`."""
        with np.errstate(over="ignore", invalid="ignore"):
            fu = self.f.eval(u_nodes[self.j0:])
            return self.phi @ (self.w * fu) + self.cut_share


def residual(u, lam, f):
    """Coefficient-space residual (-Delta)^s u - lambda * P[f(u)]."""
    term = _NonlinearTerm(u.basis, f)
    proj = term(term._nonlinear_nodes(u.c))
    return spectral.RadialCoeffs(u.basis, spectral.frac_laplacian(u).c - lam * proj)


def _fprime_matrix(basis, u_nodes, f):
    with np.errstate(over="ignore", invalid="ignore"):
        w = basis.quad_weights * f.deriv(u_nodes)
        return (basis.phi_table * w) @ basis.phi_table.T


def stability_eigenvalue(u, lam, f):
    """Smallest eigenvalue of diag(mu^s) - lambda * F, F_jk = int f'(u) phi_j phi_k."""
    basis = u.basis
    u_nodes = _NonlinearTerm(basis, f)._nonlinear_nodes(u.c)
    A = np.diag(basis.mu ** basis.s) - lam * _fprime_matrix(basis, u_nodes, f)
    return float(linalg.eigh(A, eigvals_only=True, subset_by_index=(0, 0))[0])


def monotone_iterate(basis, lam, f, max_iter=4000, tol=MONOTONE_TOL):
    """Minimal solution by the sub/supersolution iteration from u = 0.

    u^{m+1} = lambda * (-Delta)^{-s} P[f(u^m)]; the iterates increase
    pointwise and converge exactly when lambda is below the extremal
    parameter.  Raises DivergenceSignal otherwise.  One f evaluation per
    step, on the kept nodes (see _NonlinearTerm).
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    term = _NonlinearTerm(basis, f)
    scale = lam * basis.mu ** (-basis.s)
    u_nodes = np.zeros_like(basis.quad_nodes)
    for m in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            c_new = scale * term(u_nodes)
            new_nodes = term._nonlinear_nodes(c_new)
        amp = float(np.max(np.abs(new_nodes)))
        if not np.isfinite(amp) or amp > BLOWUP_THRESHOLD:
            raise DivergenceSignal(lam, m, amp)
        diff = float(np.max(np.abs(new_nodes - u_nodes)))
        if diff < tol:
            return spectral.RadialCoeffs(basis, c_new)
        u_nodes = new_nodes
    raise DivergenceSignal(lam, max_iter, float(np.max(np.abs(u_nodes))))


def picard_bisect(basis, f, lo, hi, width):
    """Halve [lo, hi] around the largest lambda at which monotone_iterate converges.

    While hi - lo > width, the midpoint replaces lo if the iteration
    converges there and hi if it raises DivergenceSignal.  Returns (lo, hi).
    width must be positive: the midpoint of two adjacent floats rounds onto
    one of them, so a zero width would never be reached.
    """
    if not width > 0:
        raise ValueError(f"bisection width must be > 0, got {width}")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        try:
            monotone_iterate(basis, mid, f)
            lo = mid
        except DivergenceSignal:
            hi = mid
    return lo, hi


def amplitude(u):
    """Stable value at the origin: filtered synthesis at rho = 0.

    Raw partial sums at the origin converge slowly (phi_k(0) grows like
    k^{(n-1)/2}), and in higher dimension the unfiltered value is dominated
    by the truncation tail.  The filtered value is exact to rounding for
    functions the basis resolves.
    """
    return spectral.evaluate(spectral.filtered(u), 0.0)


def _amplitude_row(basis):
    """Linear functional c -> amplitude(u) as a coefficient-space row."""
    row = basis.phi_matrix(np.array([0.0]))[:, 0]
    return spectral.filtered(spectral.RadialCoeffs(basis, row)).c


def newton_solve(basis, t, f, guess=None):
    """Solve {residual(u, lam) = 0, amplitude(u) = t} for (u, lam) by Newton.

    The amplitude constraint keeps the augmented Jacobian nonsingular at the
    fold.  Returns a BranchPoint with the stability eigenvalue attached.
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
    mus = basis.mu ** basis.s
    for _ in range(60):
        u_nodes = term._nonlinear_nodes(c)
        proj = term(u_nodes)
        res = mus * c - lam * proj
        amp_res = float(phi0 @ c) - t
        norm = math.sqrt(float(res @ res) + amp_res ** 2)
        if norm <= NEWTON_TOL:
            u = spectral.RadialCoeffs(basis, c)
            return BranchPoint(
                t=t,
                lam=lam,
                u=u,
                nu1=stability_eigenvalue(u, lam, f),
                residual=norm,
            )
        J = np.diag(mus) - lam * _fprime_matrix(basis, u_nodes, f)
        A = np.zeros((basis.K + 1, basis.K + 1))
        A[: basis.K, : basis.K] = J
        A[: basis.K, basis.K] = -proj
        A[basis.K, : basis.K] = phi0
        rhs = -np.concatenate([res, [amp_res]])
        try:
            step = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular augmented Jacobian at t={t}") from exc
        # damped update for large amplitudes
        scale = 1.0
        if np.max(np.abs(step[:-1] @ basis.phi_table)) > 5.0:
            scale = 0.5
        c = c + scale * step[: basis.K]
        lam = lam + scale * step[basis.K]
    raise NewtonError(f"Newton did not converge at t={t} (residual {norm:.3e})")


def continue_branch(basis, t_grid, f):
    """Walk the branch over a strictly increasing amplitude grid.

    Secant predictor between consecutive solves; the walk stops at the first
    NewtonError, whose message (naming its t) becomes `Branch.stop`.  The
    fold is marked where lambda first decreases, refined by maximizing
    lambda(t) and inserted as an extra branch point; a failed refinement
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
            dt = prev.t - prev2.t
            frac = (t - prev.t) / dt if dt > 0 else 0.0
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
    if br.fold_index not in (None, 0):
        try:
            _refine_fold(basis, br, f)
        except NewtonError as exc:
            raise BranchError(f"fold refinement failed: {exc}", br) from exc
    return br


def _refine_fold(basis, br, f):
    """Golden-section maximization of lambda(t) around the detected fold."""
    i = br.fold_index
    a = br.points[max(i - 1, 0)].t
    b = br.points[min(i + 1, len(br.points) - 1)].t
    guess = (br.points[i].u, br.points[i].lam)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    p1 = newton_solve(basis, x1, f, guess=guess)
    p2 = newton_solve(basis, x2, f, guess=guess)
    for _ in range(40):
        if b - a < 1e-7 * max(1.0, b):
            break
        if p1.lam < p2.lam:
            a, x1, p1 = x1, x2, p2
            x2 = a + invphi * (b - a)
            p2 = newton_solve(basis, x2, f, guess=(p1.u, p1.lam))
        else:
            b, x2, p2 = x2, x1, p1
            x1 = b - invphi * (b - a)
            p1 = newton_solve(basis, x1, f, guess=(p2.u, p2.lam))
    best = p1 if p1.lam >= p2.lam else p2
    # insert the refined fold point in amplitude order
    ts = [p.t for p in br.points]
    pos = int(np.searchsorted(ts, best.t))
    br.points.insert(pos, best)
    lams = [p.lam for p in br.points]
    br.fold_index = int(np.argmax(lams))


def estimate_lambda_star(basis, f, t_max=12.0, t_steps=48, bracket_rel_tol=1e-3):
    """Two independent brackets for the extremal parameter.

    (i) maximum of the continued branch, refined at the fold;
    (ii) bisection on convergence/divergence of the monotone iteration
    (picard_bisect).
    A BranchError, carrying the continued branch, is raised when the fold
    refinement fails, when the routes disagree by more than bracket_rel_tol,
    or when the monotone iteration gives no bracket around the fold.
    Returns (lo, hi, branch).
    """
    t_grid = np.linspace(0.0, t_max, t_steps + 1)[1:]
    br = continue_branch(basis, t_grid, f)
    if br.fold_index is None:
        raise BranchError("no fold detected; increase t_max", br)
    lam_fold = br.lambda_max

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


def extremal_solution(br):
    """Branch point of largest lambda (the fold); its trace approximates u*."""
    if br.fold_index is None:
        raise ValueError("branch has no fold")
    return br.points[br.fold_index]
