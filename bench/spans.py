"""Span tracing of fracgelfand from outside the package, for the per-layer metrics.

`Tracer.install()` replaces the public functions of each traced module (and
the two private ones named in EXTRA) with wrappers that record a span per
call: name, start, end, parent span and a few call details.  The
nonlinearity handed out by `branchsolve.exponential` is wrapped too, so that
Newton steps and Picard steps are counted where f is evaluated.  Spans stay
in memory; `write()` dumps them at the end and `metrics()` reduces them.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import numpy as np

from fracgelfand import branchsolve, cli, extension, regularity, specfun, spectral

MODULES = (specfun, spectral, branchsolve, extension, regularity, cli)
# private functions whose spans the metrics need: golden-section fold
# refinement (fold_refine_solves) and the CLI's file writes (bytes_written)
EXTRA = ((branchsolve, "_refine_fold"), (cli, "_atomic_write"))
FITS = ("regularity.fit_decay_exponent", "regularity.decay_envelope_constant",
        "regularity.boundary_decay_rate")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "error", "info")

    def __init__(self, id, name, parent):
        self.id, self.name, self.parent = id, name, parent
        self.error = None
        self.info = {}


def _basis_of(bound):
    first = next(iter(bound.arguments.values()))
    return first if isinstance(first, spectral.BallBasis) else first.basis


HOOKED = ("branchsolve.newton_solve", "branchsolve.stability_eigenvalue",
          "branchsolve.monotone_iterate", "branchsolve.continue_branch",
          "spectral.evaluate", "cli._atomic_write")


def _on_call(name, span, bound):
    """Record the call details the metrics need, from the bound arguments."""
    if name in ("branchsolve.newton_solve", "branchsolve.stability_eigenvalue",
                "branchsolve.monotone_iterate"):
        span.info["K"] = _basis_of(bound).K
    if name == "branchsolve.monotone_iterate":
        span.info["max_iter"] = bound.arguments["max_iter"]
    elif name == "branchsolve.continue_branch":
        span.info["grid"] = len(bound.arguments["t_grid"])
    elif name == "spectral.evaluate":
        span.info["radii"] = int(np.size(bound.arguments["rho"]))
    elif name == "cli._atomic_write":
        span.info["bytes"] = len(bound.arguments["text"].encode())


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name):
        span = Span(len(self.spans), name, self._stack[-1].id if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span, exc):
        span.end = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            span.error = type(exc).__name__
            if isinstance(exc, branchsolve.DivergenceSignal):
                span.info["outcome"] = (
                    "exhausted" if exc.iterations == span.info["max_iter"] else "blew_up"
                )

    def _wrap(self, module, attr):
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        sig = inspect.signature(fn) if name in HOOKED else None

        def traced(*args, **kwargs):
            span = self._open(name)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                _on_call(name, span, bound)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span, None)
            return out

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def _count(self, kind, u):
        """Attribute one evaluation of f or f' to the innermost open span."""
        if not self._stack:
            return
        span = self._stack[-1]
        span.info[kind] = span.info.get(kind, 0) + 1
        span.info["Q"] = int(np.size(u))

    def _counted(self, f):
        def eval_(u):
            self._count("eval", u)
            return f.eval(u)

        def deriv(u):
            self._count("deriv", u)
            return f.deriv(u)

        return branchsolve.Nonlinearity(f.kind, eval_, deriv)

    def install(self):
        """Wrap every traced function; call once, before the traced work."""
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._wrap(module, attr)
        for module, attr in EXTRA:
            self._wrap(module, attr)
        exponential = branchsolve.exponential
        self._saved.append((branchsolve, "exponential", exponential))
        branchsolve.exponential = lambda: self._counted(exponential())

    def uninstall(self):
        """Put the original functions back, so later calls record nothing."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "parent": sp.parent,
                    "start": sp.start, "end": sp.end, "error": sp.error,
                    **sp.info,
                }) + "\n")

    def metrics(self, rounds):
        """Per-layer metrics per round, as {name: (value, unit)}."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        count = defaultdict(int)  # integers, so sums do not depend on order
        for sp in self.spans:
            dur = sp.end - sp.start
            calls[sp.name] += 1
            total[sp.name] += dur
            self_s[sp.name] += dur
            parent = self.spans[sp.parent].name if sp.parent is not None else None
            if parent is not None:
                self_s[parent] -= dur
            info = sp.info
            if sp.name in ("branchsolve.newton_solve", "branchsolve.stability_eigenvalue"):
                # f' is evaluated once per F-matrix build, 2 K^2 Q flops
                count["jacobian_flop"] += info.get("deriv", 0) * 2 * info["K"] ** 2 * info.get("Q", 0)
            if sp.name == "branchsolve.newton_solve":
                # ... which directly inside newton_solve is once per Newton step
                count["newton_steps"] += info.get("deriv", 0)
                count["fold_refine_solves"] += parent == "branchsolve._refine_fold"
                count["grid_points_solved"] += (parent == "branchsolve.continue_branch"
                                                and sp.error is None)
            elif sp.name == "branchsolve.monotone_iterate":
                # f is evaluated once per Picard step: two K x Q products
                count["picard_steps"] += info.get("eval", 0)
                count["picard_flop"] += info.get("eval", 0) * 4 * info["K"] * info.get("Q", 0)
                count["converged" if sp.error is None else info.get("outcome", "error")] += 1
            elif sp.name == "branchsolve.continue_branch":
                count["grid_points"] += info["grid"]
            elif sp.name == "spectral.evaluate":
                count["radii"] += info["radii"]
            elif sp.name == "cli._atomic_write":
                count["bytes"] += info["bytes"]

        out = {}

        def put(metric, value, unit):
            out[metric] = (value / rounds, unit)

        for name in ("specfun.bessel_j_zeros", "spectral.build_basis", "spectral.evaluate",
                     "branchsolve.newton_solve", "branchsolve.stability_eigenvalue",
                     "branchsolve.monotone_iterate", "extension.riesz_potential_radial",
                     "regularity.a_constant"):
            put(f"{name}.calls", calls[name], "count")
            put(f"{name}.self_s", self_s[name], "s")
        put("spectral.evaluate.radii", count["radii"], "count")
        for name in ("branchsolve.estimate_lambda_star", "branchsolve.continue_branch",
                     "cli.run_branch", "cli.run_verify"):
            put(f"{name}.s", total[name], "s")
        for name in ("newton_steps", "fold_refine_solves", "grid_points_solved",
                     "picard_steps"):
            put(f"branchsolve.{name}", count[name], "count")
        put("branchsolve.grid_points_dropped",
            count["grid_points"] - count["grid_points_solved"], "count")
        put("branchsolve.jacobian_gflop", count["jacobian_flop"] / 1e9, "GFLOP")
        put("branchsolve.picard_gflop", count["picard_flop"] / 1e9, "GFLOP")
        for outcome in ("converged", "blew_up", "exhausted"):
            put(f"branchsolve.monotone_iterate.{outcome}", count[outcome], "count")
        for name in ("extension.weighted_vrho_integral",
                     "extension.stability_weighted_inequality",
                     "extension.extension_energy", "extension.flux_constant"):
            put(f"{name}.self_s", self_s[name], "s")
        put("regularity.fits.self_s", sum(self_s[n] for n in FITS), "s")
        put("cli.bytes_written", count["bytes"], "B")
        return out
