"""scripts/supercritical_decay.py run at a small size."""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np

from fracgelfand import branchsolve, spectral

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "supercritical_decay.py"


def _decay_script():
    spec = importlib.util.spec_from_file_location("supercritical_decay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decay_script_lambda_hat_in_lambda_star_bracket(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    _decay_script().main(["--n", "3", "--s", "0.5", "--modes", "16", "--out", str(out)])
    rows = out.read_text().splitlines()
    assert rows[0] == "rho,u,envelope"
    assert len(rows[1:]) == 120
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(","))
    # the two routes to lambda*: the script's Picard threshold lies inside the
    # bracket of the fold and the bisection on the same basis
    lam_hat = float(re.search(r"lambda_hat = (\S+)", capsys.readouterr().out).group(1))
    basis = spectral.build_basis(3, 0.5, 16)
    lo, hi, _ = branchsolve.estimate_lambda_star(basis, branchsolve.exponential())
    assert lo <= lam_hat <= hi


def test_decay_script_leaves_out_the_weight_cut(tmp_path, capsys):
    # at n = 20 the weight cut feeds f(0) to the nodes below rho ~ 0.19: the
    # CSV starts at the first kept node, and the script counts what it left out
    out = tmp_path / "decay.csv"
    _decay_script().main(["--n", "20", "--s", "0.5", "--modes", "32", "--out", str(out)])
    rows = [[float(v) for v in row.split(",")] for row in out.read_text().splitlines()[1:]]
    left_out = int(re.search(r"left out (\d+)", capsys.readouterr().out).group(1))
    assert left_out > 100 and len(rows) + left_out == 120
    basis = spectral.build_basis(20, 0.5, 32)
    rho_cut = basis.quad_nodes[branchsolve._NonlinearTerm(basis, branchsolve.exponential()).j0]
    assert np.geomspace(1e-3, 0.3, 120)[left_out - 1] < rho_cut <= rows[0][0]
    assert all(math.isfinite(v) for row in rows for v in row)
