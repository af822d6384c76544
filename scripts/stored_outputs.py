#!/usr/bin/env python3
"""Rewrite the stored CLI outputs in tests/data/ from the current code.

tests/test_stored_outputs.py reruns the same four runs and compares every
printed number with the stored one.  After a change that moves an output on
purpose, rerun this script and list each moved value, old -> new, in
CHANGES.md.

Usage:
    python3 scripts/stored_outputs.py
"""

import contextlib
import io
import shutil
import sys
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
}


def run(name, out_dir):
    """Run RUNS[name] into out_dir, its printed output discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*RUNS[name], "--out-dir", str(out_dir)])


def main():
    for name in RUNS:
        out = DATA / name
        shutil.rmtree(out, ignore_errors=True)
        code = run(name, out)
        print(f"{name}: exit {code}, wrote {', '.join(sorted(p.name for p in out.iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
