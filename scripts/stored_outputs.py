#!/usr/bin/env python3
"""Rewrite the stored CLI outputs in tests/data/ from the current code.

tests/test_stored_outputs.py reruns the same runs and asserts that
`moved_values` finds nothing.  After a change that moves an output on
purpose, rerun this script.  Before it rewrites a run's files it prints
every moved value of the run, stored -> new, which is the list that goes
into CHANGES.md.

Usage:
    python3 scripts/stored_outputs.py
"""

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from fracgelfand import cli

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"

# name -> the fracgelfand arguments of the run, without --out-dir
RUNS = {
    "verify_n3_s0.5_k64_seed1": ["verify", "--n", "3", "--s", "0.5", "--modes", "64", "--seed", "1"],
    "verify_n2_s0.7_k32_seed2": ["verify", "--n", "2", "--s", "0.7", "--modes", "32", "--seed", "2"],
    "branch_n3_s0.5_k128": ["branch", "--n", "3", "--s", "0.5", "--modes", "128"],
    "branch_n5_s0.3_k128_power3": ["branch", "--n", "5", "--s", "0.3", "--modes", "128",
                                   "--f", "power:3"],
    "extremal_n3_s0.5_k128": ["extremal", "--n", "3", "--s", "0.5", "--modes", "128"],
    # the no-fold stops: Newton fails at t = 0.5, and at t = 4.75 with a nan residual
    "branch_n10_s0.5_k128": ["branch", "--n", "10", "--s", "0.5", "--modes", "128"],
    "branch_n12_s1_k128": ["branch", "--n", "12", "--s", "1", "--modes", "128"],
}

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


def run(name, out_dir):
    """Run RUNS[name] into out_dir, its printed output discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*RUNS[name], "--out-dir", str(out_dir)])


def read_run(out_dir):
    """The files of one run as one value, {file name: contents}: a JSON file
    as parsed, a CSV file as {column: [its values, one per row]}.  A CSV row
    with more or fewer fields than the header raises ValueError."""
    files = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".json":
            files[path.name] = json.loads(path.read_text())
        else:
            with path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            for i, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    raise ValueError(f"{path}: row {i} has {len(row)} fields, "
                                     f"the header {len(header)}")
            files[path.name] = {field: [float(row[i]) for row in rows]
                                for i, field in enumerate(header)}
    return files


def moved_values(new, stored, where, field=None):
    """Every value of `new` that differs from its counterpart in `stored`,
    as a list of (where, stored value, new value).

    Dicts with the same keys in the same order are compared key by key, and
    lists of the same length item by item; dicts with other keys or another
    key order (a CSV's header) are reported by their keys, lists of different
    lengths by their lengths.  Numbers must match to RTOL relative, and those
    of the RESIDUES fields to RESIDUE_ATOL absolute on top of it; anything
    else must match exactly.
    """
    if isinstance(stored, dict) and isinstance(new, dict):
        if list(new) != list(stored):
            return [(f"{where} keys", list(stored), list(new))]
        # a check's margin is named by its check
        return [m for key in stored
                for m in moved_values(new[key], stored[key], f"{where}/{key}",
                                      field if key == "margin" else key)]
    if isinstance(stored, list) and isinstance(new, list):
        if len(new) != len(stored):
            return [(f"{where} rows", len(stored), len(new))]
        return [m for i, (a, b) in enumerate(zip(new, stored))
                for m in moved_values(a, b, f"{where}[{i}]", field)]
    if isinstance(stored, float) and isinstance(new, (int, float)) and not isinstance(new, bool):
        atol = RESIDUE_ATOL if field in RESIDUES else 0.0
        same = math.isfinite(new) and abs(new - stored) <= RTOL * abs(stored) + atol
    else:
        same = type(new) is type(stored) and new == stored
    return [] if same else [(where, stored, new)]


def main():
    for name in RUNS:
        out = DATA / name
        with tempfile.TemporaryDirectory() as tmp:
            code = run(name, tmp)
            moved = moved_values(read_run(tmp), read_run(out), name) if out.exists() else []
            for where, old, new in moved:
                print(f"  {where}: {old!r} -> {new!r}")
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(tmp, out)
        print(f"{name}: exit {code}, {len(moved)} moved values, "
              f"wrote {', '.join(sorted(p.name for p in out.iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
