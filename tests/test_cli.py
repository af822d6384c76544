"""Config parsing and the command-line front end.

CLI tests run small (modes=16..24) problems so the whole file stays fast;
determinism is asserted byte-for-byte on the persisted branch.csv.
"""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fracgelfand import branchsolve, cli, config, spectral


class TestConfigParsing:
    def test_defaults(self):
        cfg = config.parse_config("")
        assert cfg.n == 3
        assert cfg.s == 0.5
        assert cfg.f == "exp"
        assert cfg.modes == 256
        assert cfg.bracket_tol == config.DEFAULT_TOLERANCES["bracket_tol"]
        # the quadrature order is build_basis's 4K, not a setting
        with pytest.raises(config.ConfigError, match="unknown key 'quad_order'"):
            config.parse_config("quad_order = 512\n")
        with pytest.raises(config.ConfigError, match="unknown f spec"):
            config.parse_config("f = table:f.csv\n")

    def test_simple_file(self):
        text = "n = 5\ns = 0.7  # fractional order\n\nmodes=32\nf=power:2\n"
        cfg = config.parse_config(text)
        assert (cfg.n, cfg.s, cfg.modes, cfg.f) == (5, 0.7, 32, "power:2")
        assert cfg.nonlinearity().eval(np.array(1.0)) == pytest.approx(4.0)

    def test_tolerance_key(self):
        cfg = config.parse_config("bracket_tol = 1e-4\n")
        assert cfg.bracket_tol == 1e-4
        # the solvers' own tolerances are not configurable
        for key in ("newton_tol", "monotone_tol", "eig_tol"):
            with pytest.raises(config.ConfigError, match="unknown key"):
                config.parse_config(f"{key} = 1e-3\n")

    def test_overrides_beat_file(self):
        cfg = config.parse_config("n=3\nmodes=64\n", overrides={"n": 4, "s": None})
        assert cfg.n == 4
        assert cfg.modes == 64

    def test_out_of_range_s_names_field(self):
        with pytest.raises(config.ConfigError, match="s must lie"):
            config.parse_config("s = 1.5\n")

    def test_bad_line_reports_number(self):
        with pytest.raises(config.ConfigError, match="line 2"):
            config.parse_config("n=3\nnot a setting\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(config.ConfigError, match="unknown key"):
            config.parse_config("gamma = 1\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(config.ConfigError, match="bad value for modes"):
            config.parse_config("modes = many\n")

    def test_bad_override_reports_key(self):
        with pytest.raises(config.ConfigError, match="^line 1: bad value for modes: 'many'$"):
            config.parse_config("modes = many\n")
        with pytest.raises(config.ConfigError, match="^bad value for modes: 'many'$"):
            config.parse_config("", {"modes": "many"})

    def test_every_field_is_a_file_key(self):
        defaults = config.ExperimentConfig()
        for field in dataclasses.fields(config.ExperimentConfig):
            value = getattr(defaults, field.name)
            cfg = config.parse_config(f"{field.name} = {value}\n")
            assert getattr(cfg, field.name) == value

    @pytest.mark.parametrize("value", ["0", "-1", "0.75", "nan"])
    def test_bracket_tol_out_of_range_rejected(self, value):
        # a zero width never ends the lambda* bisection, and above 1/2 its
        # lower start lambda_fold (1 - 2 bracket_tol) is negative
        with pytest.raises(config.ConfigError, match="bracket_tol must lie"):
            config.parse_config(f"bracket_tol = {value}\n")

    @pytest.mark.parametrize(
        "line", ["t_max = 0", "t_max = -1", "t_max = nan", "t_max = inf", "seed = -1"]
    )
    def test_out_of_range_rejected(self, line):
        with pytest.raises(config.ConfigError, match=line.split()[0] + " must be"):
            config.parse_config(line + "\n")

    def test_bad_bracket_tol_reports_line(self):
        with pytest.raises(config.ConfigError, match="line 2: bad value for bracket_tol"):
            config.parse_config("n = 3\nbracket_tol = abc\n")

    @pytest.mark.parametrize("spec", ["power:1", "power:0.5", "power:abc"])
    def test_bad_power_spec_is_config_error(self, spec):
        with pytest.raises(config.ConfigError, match="bad f spec"):
            config.parse_config(f"f = {spec}\n")


ARGS = ["--n", "3", "--s", "0.5", "--modes", "16", "--t-max", "8", "--t-steps", "16"]


def _count_walks(monkeypatch):
    """Count the calls of continue_branch (one per walk of the branch)."""
    real, walks = branchsolve.continue_branch, []

    def counted(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(branchsolve, "continue_branch", counted)
    return walks


class TestCli:
    def test_branch_writes_outputs(self, tmp_path):
        rc = cli.main(["branch", *ARGS, "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error"] is None
        assert summary["lambda_star_lo"] < summary["lambda_star_hi"]
        rows = (tmp_path / "branch.csv").read_text().splitlines()
        assert rows[0] == "t,lambda,u0,nu1,h_norm,residual"
        assert len(rows) > 6

    def test_branch_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["branch", *ARGS, "--out-dir", str(a)])
        cli.main(["branch", *ARGS, "--out-dir", str(b)])
        assert (a / "branch.csv").read_bytes() == (b / "branch.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_branch_records_lower_bracket_divergence(self, tmp_path, monkeypatch):
        # with no lambda at which the iteration converges there is no bracket;
        # the run still writes both files and names the reason
        def always_diverges(basis, lam, f, max_iter=4000):
            raise branchsolve.DivergenceSignal(lam, 1, float("inf"), exhausted=False)

        monkeypatch.setattr(branchsolve, "monotone_iterate", always_diverges)
        rc = cli.main(["branch", *ARGS, "--out-dir", str(tmp_path)])
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "monotone iteration diverges at lambda=" in summary["error"]
        assert summary["lambda_star_lo"] is None
        assert len((tmp_path / "branch.csv").read_text().splitlines()) > 6

    def test_branch_walks_once_when_iteration_diverges(self, tmp_path, monkeypatch):
        def always_diverges(basis, lam, f, max_iter=4000):
            raise branchsolve.DivergenceSignal(lam, 1, float("inf"), exhausted=False)

        walks = _count_walks(monkeypatch)
        monkeypatch.setattr(branchsolve, "monotone_iterate", always_diverges)
        assert cli.main(["branch", *ARGS, "--out-dir", str(tmp_path)]) == 1
        assert len(walks) == 1
        assert len((tmp_path / "branch.csv").read_text().splitlines()) > 6

    def test_branch_records_failed_fold_refinement(self, tmp_path, monkeypatch):
        # the walked points are written once, and the summary names the failure
        def fails(basis, br, f):
            raise branchsolve.NewtonError("Newton did not converge at t=1.5 (injected)")

        walks = _count_walks(monkeypatch)
        monkeypatch.setattr(branchsolve, "_refine_fold", fails)
        assert cli.main(["branch", *ARGS, "--out-dir", str(tmp_path)]) == 1
        assert len(walks) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error"] == (
            "fold refinement failed: Newton did not converge at t=1.5 (injected)"
        )
        assert summary["lambda_star_lo"] is None
        # the walk passes the fold (t = 1.53) and stops at t = 3.5, unrefined
        ts = [float(r.split(",")[0]) for r in
              (tmp_path / "branch.csv").read_text().splitlines()[1:]]
        assert ts == [0.5 * k for k in range(1, 7)]

    def test_branch_records_why_continuation_stopped(self, tmp_path, monkeypatch):
        real_solve = branchsolve.newton_solve

        def fails_at_fifth_point(basis, t, f, guess=None):
            if t == 2.5:
                raise branchsolve.NewtonError(f"Newton did not converge at t={t} (injected)")
            return real_solve(basis, t, f, guess=guess)

        basis = spectral.build_basis(3, 0.5, 16)
        walk = branchsolve.continue_branch(basis, [0.5, 1.0], branchsolve.exponential())
        assert walk.stop == "grid end"

        monkeypatch.setattr(branchsolve, "newton_solve", fails_at_fifth_point)
        assert cli.main(["branch", *ARGS, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["branch_stop"] == "Newton did not converge at t=2.5 (injected)"
        # the four points before t = 2.5 and the refined fold
        assert len((tmp_path / "branch.csv").read_text().splitlines()) == 1 + 5

    def test_branch_and_extremal_walk_alike(self, tmp_path, capsys):
        printed = {}
        for command in ("branch", "extremal"):
            assert cli.main([command, *ARGS, "--out-dir", str(tmp_path)]) == 0
            printed[command] = json.loads(capsys.readouterr().out)
        for key in ("fold_t", "extremal_u0"):
            assert printed["branch"][key] == printed["extremal"][key]
        rows = (tmp_path / "branch.csv").read_text().splitlines()[1:]
        assert printed["extremal"]["fold_lambda"] == max(float(r.split(",")[1]) for r in rows)

    def test_common_flags_name_fields(self, capsys):
        fields = {field.name for field in dataclasses.fields(config.ExperimentConfig)}
        for command in ("branch", "extremal"):
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            flags = set(re.findall(r"(?<![\w-])--([a-z-]+)", capsys.readouterr().out))
            # bracket_tol is a file key only
            assert {f.replace("-", "_") for f in flags} - {"help", "config"} == (
                fields - {"bracket_tol"}
            )

    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["branch", "--modes", "many", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "bad value for modes: 'many'" in capsys.readouterr().err

    def test_table_output(self, capsys):
        rc = cli.main(["table", "--n-values", "3,10", "--s-values", "0.5,1.0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,s,critical_dim,decay_bound"
        assert len(lines) == 5
        # the classical threshold appears in the s=1 rows
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(row["critical_dim"]) == pytest.approx(10.0)

    def test_extremal_report(self, tmp_path):
        rc = cli.main(["extremal", *ARGS, "--out-dir", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "extremal.json").read_text())
        assert rep["fold_lambda"] > 0
        assert rep["critical_dim"] == pytest.approx(2 * (2.5 + np.sqrt(3.0)))
        assert rep["error"] is None
        # as in branch's summary.json: the walk passes the fold, then Newton fails
        assert rep["branch_stop"].startswith("Newton did not converge at t=3.5")

    def test_extremal_without_fold_writes_report(self, tmp_path):
        # the walk ends at t = 0.5, before the fold at t = 1.53
        argv = ["--n", "3", "--s", "0.5", "--modes", "16", "--t-max", "0.5", "--t-steps", "2"]
        rc = cli.main(["extremal", *argv, "--out-dir", str(tmp_path)])
        assert rc == 1
        rep = json.loads((tmp_path / "extremal.json").read_text())
        assert rep["error"] == "no fold detected; increase t_max"
        assert rep["branch_stop"] == "grid end"
        for key in ("fold_t", "fold_lambda", "extremal_u0", "fitted_interior_decay",
                    "fit_r_squared", "envelope_constant"):
            assert rep[key] is None
        assert rep["boundary_rate"] > 0

    def test_extremal_failed_decay_fit_writes_report(self, tmp_path, monkeypatch):
        # the fit raises as at (5, 0.3, 128), where the fold's raw synthesis
        # is negative near the axis; its message goes to `error`, the fold
        # fields stay
        def no_fit(u, rho):
            raise ValueError("decay fit needs positive samples")

        monkeypatch.setattr(cli.regularity, "fit_decay_exponent", no_fit)
        argv = ["--n", "2", "--s", "1", "--modes", "64", "--t-max", "3", "--t-steps", "2"]
        assert cli.main(["extremal", *argv, "--out-dir", str(tmp_path)]) == 1
        rep = json.loads((tmp_path / "extremal.json").read_text())
        assert rep["error"] == "decay fit needs positive samples"
        assert rep["fold_lambda"] == pytest.approx(2.0, rel=1e-9)
        assert rep["fold_t"] is not None and rep["extremal_u0"] is not None
        for key in ("fitted_interior_decay", "fit_r_squared", "envelope_constant"):
            assert rep[key] is None

    def test_extremal_refines_a_fold_at_the_first_walked_point(self, tmp_path):
        # grid [1.5, 3]: lambda decreases from the first point, past the
        # fold lambda* = 2 at t = ln 4 of (2, 1), which is still refined
        argv = ["--n", "2", "--s", "1", "--modes", "64", "--t-max", "3", "--t-steps", "2"]
        assert cli.main(["extremal", *argv, "--out-dir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "extremal.json").read_text())
        assert rep["error"] is None
        assert rep["fold_t"] == pytest.approx(np.log(4.0), abs=1e-9)
        assert rep["fold_lambda"] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("argv", [["--s-values", "1.5"], ["--n-values", "x"]])
    def test_table_bad_grid_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", *argv])
        assert exc.value.code == 2
        assert "usage: fracgelfand table" in capsys.readouterr().err

    def test_verify_empty_check_list(self, tmp_path):
        rc = cli.main(
            ["verify", *ARGS, "--out-dir", str(tmp_path), "--checks", ""]
        )
        assert rc == 0
        assert json.loads((tmp_path / "verify.json").read_text()) == {}

    def test_verify_subset_passes(self, tmp_path):
        rc = cli.main(
            [
                "verify", *ARGS, "--out-dir", str(tmp_path),
                "--checks", "orthonormality,phi1_identity,max_principle",
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert set(report) == {"orthonormality", "phi1_identity", "max_principle"}
        assert all(e["status"] == "pass" for e in report.values())

    def test_verify_rejects_unknown_check(self, tmp_path, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("basis built for an unknown check")

        monkeypatch.setattr(cli.spectral, "build_basis", no_build)
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["verify", *ARGS, "--out-dir", str(tmp_path),
                 "--checks", "orthonormality,bogus"]
            )
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_verify_walks_a_failing_branch_once(self, tmp_path, monkeypatch):
        # every branch check records the error of the one walk
        def fails(basis, br, f):
            raise branchsolve.NewtonError("Newton did not converge at t=1.5 (injected)")

        names = ["riesz_bound", "radial_monotonicity", "weighted_key_estimate",
                 "stability_weighted_inequality", "exp_decay_y", "phi1_identity"]
        walks = _count_walks(monkeypatch)
        monkeypatch.setattr(branchsolve, "_refine_fold", fails)
        rc = cli.main(["verify", *ARGS, "--out-dir", str(tmp_path),
                       "--checks", ",".join(names)])
        assert rc == 1
        assert len(walks) == 1
        report = json.loads((tmp_path / "verify.json").read_text())
        assert set(report) == set(names)
        assert {e["error"] for e in report.values()} == {
            "fold refinement failed: Newton did not converge at t=1.5 (injected)"
        }

    def test_verify_without_branch_points_passes_no_branch_check(self, tmp_path, monkeypatch):
        # the walk stops at its first t with zero points: every branch check
        # must fail with its cause, and verify.json must stay strict JSON
        def fails(basis, t, f, guess=None):
            raise branchsolve.NewtonError(f"Newton did not converge at t={t} (injected)")

        names = ["riesz_bound", "radial_monotonicity", "weighted_key_estimate",
                 "stability_weighted_inequality", "exp_decay_y", "phi1_identity"]
        monkeypatch.setattr(branchsolve, "newton_solve", fails)
        rc = cli.main(["verify", *ARGS, "--out-dir", str(tmp_path),
                       "--checks", ",".join(names)])
        assert rc == 1

        def reject(token):
            raise ValueError(f"non-finite number {token} in verify.json")

        report = json.loads((tmp_path / "verify.json").read_text(), parse_constant=reject)
        assert set(report) == set(names)
        stop = "(walk: Newton did not converge at t=0.5 (injected))"
        assert {e["error"] for e in report.values()} == {
            "no branch points",
            f"no branch point before the fold {stop}",
            f"no stable branch points before the fold {stop}",
        }
        assert all(e["status"] == "fail" and e["margin"] is None for e in report.values())

    def test_verify_fails_a_non_finite_margin(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.checks, "gram_error", lambda basis: float("inf"))
        rc = cli.main(["verify", *ARGS, "--out-dir", str(tmp_path), "--checks", "orthonormality"])
        assert rc == 1
        text = (tmp_path / "verify.json").read_text()
        assert "Infinity" not in text
        assert json.loads(text)["orthonormality"] == {
            "status": "fail", "margin": None, "error": "margin is inf",
        }

    def test_verify_detects_injected_fault(self, tmp_path, monkeypatch):
        # perturb the second mode's samples; orthonormality must trip
        real_build = spectral.build_basis

        def broken(n, s, K, quad_order=None):
            basis = real_build(n, s, K, quad_order)
            tab = basis.phi_table.copy()
            tab[1] *= 1.0 + 1e-4
            object.__setattr__(basis, "phi_table", tab)
            return basis

        monkeypatch.setattr(cli.spectral, "build_basis", broken)
        rc = cli.main(
            ["verify", *ARGS, "--out-dir", str(tmp_path), "--checks", "orthonormality"]
        )
        assert rc == 1
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["orthonormality"]["status"] == "fail"

    def test_config_file_plus_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=2\ns=0.5\nmodes=16\nt_max=8\nt_steps=16\n")
        rc = cli.main(
            ["branch", "--config", str(cfgfile), "--s", "1.0",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["n"], summary["s"], summary["modes"]) == (2, 1.0, 16)
        # s=1, n=2, f=exp has the classical extremal parameter 2
        assert summary["lambda_star_lo"] < 2.0 < summary["lambda_star_hi"] * 1.01

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--s", "1.5"], "s must lie in"),
            (["--f", "power:abc"], "bad f spec"),
            (["--f", "power:1"], "needs p > 1"),
            (["--config", "/nonexistent.cfg"], "No such file"),
            (["--n", "130", "--modes", "8"], "n must be an integer in [2, 122]"),
        ],
    )
    def test_bad_configuration_is_usage_error(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["branch", *argv, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """argv of each `fracgelfand ...` line in README's sh blocks without a
    shell variable."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [
        shlex.split(line, comments=True)[1:]
        for line in lines
        if line.startswith("fracgelfand ") and "$" not in line
    ]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_exists(argv, capsys):
    # argparse exits 0 on --help even after an unknown flag, so each flag
    # must also appear in the subcommand's help
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for flag in (a for a in argv if a.startswith("--")):
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", usage), (
            f"{flag} is not an option of {argv[0]}"
        )
