"""Config parsing and the command-line front end.

CLI tests run small (modes=16..24) problems so the whole file stays fast;
determinism is asserted byte-for-byte on the persisted branch.csv.
"""

import json

import numpy as np
import pytest

from fracgelfand import cli, config, spectral


class TestConfigParsing:
    def test_defaults(self):
        cfg = config.parse_config("")
        assert cfg.n == 3
        assert cfg.s == 0.5
        assert cfg.f_spec == "exp"
        assert cfg.modes == 256
        assert cfg.quad_order == 4 * 256

    def test_simple_file(self):
        text = "n = 5\ns = 0.7  # fractional order\n\nmodes=32\nf=power:2\n"
        cfg = config.parse_config(text)
        assert (cfg.n, cfg.s, cfg.modes, cfg.f_spec) == (5, 0.7, 32, "power:2")
        assert cfg.nonlinearity().eval(np.array(1.0)) == pytest.approx(4.0)

    def test_tolerance_key(self):
        cfg = config.parse_config("bracket_tol = 1e-4\n")
        assert cfg.tolerances == {"bracket_tol": 1e-4}
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

    def test_table_nonlinearity(self, tmp_path):
        path = tmp_path / "f.csv"
        u = np.linspace(0.0, 110.0, 2201)
        np.savetxt(path, np.column_stack([u, np.exp(u)]), delimiter=",")
        cfg = config.parse_config(f"f=table:{path}\nmodes=16\n")
        assert cfg.nonlinearity().eval(np.array(2.0)) == pytest.approx(
            np.exp(2.0), rel=1e-4
        )

    def test_missing_table_rejected(self):
        with pytest.raises(config.ConfigError, match="not found"):
            config.parse_config("f=table:/nonexistent/f.csv\n")


ARGS = ["--n", "3", "--s", "0.5", "--modes", "16", "--t-max", "8", "--t-steps", "16"]


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

    def test_lambda_star_prints_bracket(self, tmp_path, capsys):
        rc = cli.main(["lambda-star", *ARGS, "--out-dir", str(tmp_path)])
        assert rc == 0
        lo, hi = map(float, capsys.readouterr().out.split())
        assert 0.0 < lo < hi

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

    def test_verify_detects_injected_fault(self, tmp_path, monkeypatch):
        # perturb the second mode's samples; orthonormality must trip
        real_build = spectral.build_basis

        def broken(n, s, K, quad_order=0):
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

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=2\ns=0.5\nmodes=16\nt_max=8\nt_steps=16\n")
        rc = cli.main(
            ["table", "--n-values", "2", "--s-values", "0.5"]
        )
        assert rc == 0
        capsys.readouterr()
        rc = cli.main(
            ["lambda-star", "--config", str(cfgfile), "--s", "1.0",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        lo, hi = map(float, capsys.readouterr().out.split())
        # s=1, n=2, f=exp has the classical extremal parameter 2
        assert lo < 2.0 < hi * 1.01
