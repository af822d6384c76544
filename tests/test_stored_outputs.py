"""Every printed number of the stored CLI runs against its stored value.

The stored files in tests/data/ are written by scripts/stored_outputs.py,
which also names the runs and holds the comparison, `moved_values`:
strings, statuses, nulls, keys in their order, row counts and row lengths
must match exactly; numbers
to RTOL relative, and the rounding residues named in RESIDUES to
RESIDUE_ATOL absolute on top of it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stored_outputs.py"
_spec = importlib.util.spec_from_file_location("stored_outputs", SCRIPT)
stored_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stored_outputs)


@pytest.mark.parametrize("name", sorted(stored_outputs.RUNS))
def test_outputs_match_the_stored_ones(name, tmp_path):
    stored_outputs.run(name, tmp_path)
    moved = stored_outputs.moved_values(stored_outputs.read_run(tmp_path),
                                        stored_outputs.read_run(stored_outputs.DATA / name), name)
    assert not moved, f"{len(moved)} moved values, the first: {moved[:5]}"


def test_a_moved_number_is_caught(tmp_path):
    # the comparison itself: a margin moved by 1e-10 relative is listed, the
    # same move inside a residue's absolute bound is not
    want = {"riesz_bound": {"margin": 0.5, "status": "pass"},
            "orthonormality": {"margin": 1e-14, "status": "pass"}}
    moved = json.loads(json.dumps(want))
    moved["orthonormality"]["margin"] = 5e-13
    assert stored_outputs.moved_values(moved, want, "x") == []
    moved["riesz_bound"]["margin"] = 0.5 * (1.0 + 1e-10)
    assert stored_outputs.moved_values(moved, want, "x") == [
        ("x/riesz_bound/margin", 0.5, 0.5 * (1.0 + 1e-10))]
    moved["riesz_bound"] = {"margin": 0.5, "status": "fail"}
    assert stored_outputs.moved_values(moved, want, "x") == [
        ("x/riesz_bound/status", "pass", "fail")]

    # a CSV's header is compared in its order, even where every value
    # agrees, and a row longer than the header is refused
    for name, text in [("want", "t,lam\n0.5,1.0\n"), ("swapped", "lam,t\n1.0,0.5\n"),
                       ("ragged", "t,lam\n0.5,1.0\n0.75,1.5,2.0\n")]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "branch.csv").write_text(text)
    assert stored_outputs.moved_values(stored_outputs.read_run(tmp_path / "swapped"),
                                       stored_outputs.read_run(tmp_path / "want"), "x") == [
        ("x/branch.csv keys", ["t", "lam"], ["lam", "t"])]
    with pytest.raises(ValueError, match="row 2 has 3 fields"):
        stored_outputs.read_run(tmp_path / "ragged")
