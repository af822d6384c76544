"""The private functions that the benchmark's span tracer wraps still exist and still count.

bench/spans.py wraps `branchsolve._refine_fold` and `cli._atomic_write` by
name; a renamed or re-signed function would only show when a traced
benchmark run crashes.  This walks a tiny traced branch instead.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

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
    assert metrics["branchsolve.fold_refine_solves"][0] > 0
    assert metrics["cli.bytes_written"][0] == 4
    assert _functions(spans.MODULES) == before
    assert branchsolve.exponential is exponential
