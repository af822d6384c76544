"""Every printed number of four CLI runs against its stored value.

The stored files in tests/data/ are written by scripts/stored_outputs.py,
which also names the runs.  Strings, statuses, nulls, keys and row counts
must match exactly; numbers to RTOL relative, and the rounding residues
named in RESIDUES to RESIDUE_ATOL absolute on top of it.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stored_outputs.py"
_spec = importlib.util.spec_from_file_location("stored_outputs", SCRIPT)
stored_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stored_outputs)

# Refactors that only reorder floating-point sums move these outputs by up
# to 5.6e-14 relative (weighted_key_estimate, a ratio of two quadratic
# forms, when the extension's moment matrices became one SYRK each; the
# weighted integrals as quadratic forms moved them by up to 2.5e-14).  One
# and two BLAS threads give identical files at these sizes.
RTOL = 1e-12
# Values that are rounding residues of order 1e-17 to 1e-10, whose relative
# change under reordering is large (energy_identity 9.0e-15 -> 8.8e-15):
# relative errors of identities that hold exactly, the bottom eigenvalue at
# the solved fold, and Newton's final residual norms.  The bound is ten
# times the rounding of the K x K stability form, |mu_K^s| eps = 400 x
# 2.2e-16 at K = 128 (n = 3, s = 1/2).
RESIDUE_ATOL = 1e-12
RESIDUES = {"energy_identity", "orthonormality", "max_principle", "flux_constant",
            "phi1_identity", "nu1", "residual"}


def _close(got, want, field):
    atol = RESIDUE_ATOL if field in RESIDUES else 0.0
    return math.isfinite(got) and abs(got - want) <= RTOL * abs(want) + atol


def _compare_json(got, want, where, field=None):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            # a check's margin is named by its check
            _compare_json(got[key], want[key], f"{where}.{key}",
                          field if key == "margin" else key)
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)) and _close(float(got), want, field), (
            f"{where}: {got!r}, stored {want!r}")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r}, stored {want!r}"


def _compare_csv(got, want, where):
    got, want = list(csv.reader(got.open())), list(csv.reader(want.open()))
    assert len(got) == len(want), f"{where}: {len(got)} rows, stored {len(want)}"
    header = want[0]
    assert got[0] == header, where
    for i, (row, stored) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row) == len(stored), f"{where} row {i}"
        for field, a, b in zip(header, row, stored):
            assert _close(float(a), float(b), field), f"{where} row {i} {field}: {a}, stored {b}"


@pytest.mark.parametrize("name", sorted(stored_outputs.RUNS))
def test_outputs_match_the_stored_ones(name, tmp_path):
    stored = stored_outputs.DATA / name
    stored_outputs.run(name, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in stored.iterdir())
    for want in sorted(stored.iterdir()):
        got = tmp_path / want.name
        if want.suffix == ".json":
            _compare_json(json.loads(got.read_text()), json.loads(want.read_text()),
                          f"{name}/{want.name}")
        else:
            _compare_csv(got, want, f"{name}/{want.name}")


def test_a_moved_number_is_caught(tmp_path):
    # the comparison itself: a margin moved by 1e-10 relative fails, the
    # same move inside a residue's absolute bound passes
    want = {"riesz_bound": {"margin": 0.5, "status": "pass"},
            "orthonormality": {"margin": 1e-14, "status": "pass"}}
    moved = json.loads(json.dumps(want))
    moved["orthonormality"]["margin"] = 5e-13
    _compare_json(moved, want, "x")
    moved["riesz_bound"]["margin"] = 0.5 * (1.0 + 1e-10)
    with pytest.raises(AssertionError, match="riesz_bound"):
        _compare_json(moved, want, "x")
    moved["riesz_bound"] = {"margin": 0.5, "status": "fail"}
    with pytest.raises(AssertionError, match="status"):
        _compare_json(moved, want, "x")
