"""The private functions that the benchmark's span tracer wraps still exist and still count.

bench/spans.py wraps `branchsolve._refine_fold` and `cli._atomic_write` by
name; a renamed or re-signed function would only show when a traced
benchmark run crashes.  This walks a tiny traced branch instead.  The
tracer also rebuilds the nonlinearity positionally as
`Nonlinearity(kind, eval, deriv)`, so traced Picard steps must take the
same fold path as untraced ones, and its counting f' must pass the fold
solve's complex step through: a traced curvature equals the plain one bit for
bit.  The per-layer metrics also name public
functions, such as `specfun.bessel_j_zeros`; a traced basis build checks
that the zero search still records its one span.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from fracgelfand import branchsolve, cli, spectral

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions(modules):
    return {(m.__name__, attr): obj for m in modules
            for attr, obj in vars(m).items() if inspect.isfunction(obj)}


def test_traced_walk_counts_fold_refinement(tmp_path):
    spans = _load_spans()
    before = _functions(spans.MODULES)
    exponential = branchsolve.exponential
    tracer = spans.Tracer()
    try:
        tracer.install()  # inside the try: a failed install still restores
        basis = spectral.build_basis(2, 1.0, 32)
        br = branchsolve.continue_branch(basis, np.linspace(0.0, 3.0, 13)[1:],
                                         branchsolve.exponential())
        cli._atomic_write(tmp_path / "out.txt", "four")
    finally:
        tracer.uninstall()
    assert br.fold_index is not None
    metrics = tracer.metrics(1)
    # the walk's one fold is refined once, and its point inserted without a
    # newton_solve
    assert [sp.name for sp in tracer.spans].count("branchsolve._refine_fold") == 1
    assert metrics["branchsolve.fold_refine_solves"][0] == 0
    assert metrics["cli.bytes_written"][0] == 4
    assert _functions(spans.MODULES) == before
    assert branchsolve.exponential is exponential


def test_traced_basis_build_counts_one_zero_search():
    # the benchmark's per-layer metric for the zeros is this span's count:
    # an inlined or renamed search would read 0 there
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        spectral.build_basis(3, 0.5, 16)
    finally:
        tracer.uninstall()
    assert [sp.name for sp in tracer.spans].count("specfun.bessel_j_zeros") == 1
    assert tracer.metrics(1)["specfun.bessel_j_zeros.calls"][0] == 1


def _traced_picard(spans, basis, lam):
    """monotone_iterate under a tracer: (its DivergenceSignal, the round's metrics)."""
    tracer = spans.Tracer()
    try:
        tracer.install()
        with pytest.raises(branchsolve.DivergenceSignal) as got:
            branchsolve.monotone_iterate(basis, lam, branchsolve.exponential())
    finally:
        tracer.uninstall()
    return got.value, tracer.metrics(1)


def test_traced_picard_takes_the_fold_path(monkeypatch):
    # lambda* = 2 at (2, 1); Picard alone blows up at step 200 here
    spans = _load_spans()
    basis = spectral.build_basis(2, 1.0, 32)
    got, metrics = _traced_picard(spans, basis, 2.000875)
    assert got.fold_lambda is not None
    assert got.iterations == branchsolve.CERTIFY_AFTER
    assert metrics["branchsolve.monotone_iterate.blew_up"][0] == 1
    monkeypatch.setattr(branchsolve, "_fold_solve", lambda *args: None)
    fallback, fallback_metrics = _traced_picard(spans, basis, 2.000875)
    assert fallback.fold_lambda is None and fallback.iterations == 200
    steps = metrics["branchsolve.picard_steps"][0]
    assert steps < 0.7 * fallback_metrics["branchsolve.picard_steps"][0]


def test_counted_nonlinearity_keeps_the_complex_step():
    # the tracer's f' only counts and forwards, so Im f'(u + ih) survives it
    spans = _load_spans()
    basis = spectral.build_basis(6, 0.5, 32)
    for plain in (branchsolve.exponential(), branchsolve.power(2.5)):
        term = branchsolve._NonlinearTerm(basis, plain)
        u = np.linspace(-0.5, 8.0, term.w.size)
        counted = branchsolve._NonlinearTerm(basis, spans.Tracer()._counted(plain))
        assert np.all(term.curvature(u) > 0)
        assert np.array_equal(counted.curvature(u), term.curvature(u))
