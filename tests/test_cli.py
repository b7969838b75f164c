"""Tests for the `ctrl` command line front end: exit codes, determinism,
and the CSV trajectory format."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import ctrlkit
from ctrlkit.cli import main

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


def spec(name):
    return os.path.join(SPECS, name)


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestExitCodes:
    def test_missing_spec_file(self, capsys):
        assert main(["analyze", "/nonexistent/nowhere.json"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_bad_version(self, tmp_path):
        path = write_spec(tmp_path, {"version": 2, "kind": "lti", "A": [[0]], "B": [[1]]})
        assert main(["analyze", path]) == 2

    def test_unknown_field(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"version": 1, "kind": "lti", "A": [[0]], "B": [[1]], "bogus": 3},
        )
        assert main(["analyze", path]) == 2

    def test_wrong_kind_for_command(self, tmp_path):
        path = write_spec(tmp_path, {"version": 1, "kind": "lq", "A": [[0]], "B": [[1]]})
        assert main(["analyze", path]) == 2

    def test_stabilize_needs_poles(self):
        assert main(["stabilize", spec("pendulum.json")]) == 2

    def test_stabilize_wrong_pole_count(self):
        assert main(["stabilize", spec("pendulum.json"), "--poles=-1,-2"]) == 2

    def test_shoot_nonconvergent_is_numerical_failure(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            {
                "version": 1,
                "kind": "oc-problem",
                "name": "double-integrator-min-time",
                "params": {"x0": [1.0, 0.0]},
                "guess": [50.0, 50.0, 0.01],
            },
        )
        assert main(["shoot", path]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_uncontrollable_placement_is_numerical_failure(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "version": 1,
                "kind": "lti",
                "A": [[1.0, 0.0], [0.0, 1.0]],
                "B": [[1.0], [0.0]],
            },
        )
        assert main(["stabilize", path, "--poles=-1,-2"]) == 3

    def test_success_exit_code(self, capsys):
        assert main(["analyze", spec("rlc.json")]) == 0
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert rep["results"]["kalman"]["controllable"] is True
        assert rep["tool_version"] == ctrlkit.__version__ == "0.1.0"

    @pytest.mark.parametrize("flag", ["--steps=0", "--steps=-3"])
    def test_nonpositive_steps_is_input_error(self, flag, capsys):
        assert main(["analyze", spec("rlc.json"), flag]) == 2
        assert "input error: --steps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol=2", "--tol=nan", "--tol=0", "--tol=-1e-9"])
    def test_tol_outside_unit_interval_is_input_error(self, flag, capsys):
        assert main(["lq", spec("scalar_lq.json"), flag]) == 2
        assert "input error: --tol" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["analyze", spec("rlc.json")],
        ["analyze", spec("dubins.json"), "--T=6.283185307179586"],
        ["lq", spec("scalar_lq.json")],
        ["stabilize", spec("pendulum.json"), "--poles=-1,-1,-1,-1"],
    ])
    def test_reports_byte_identical(self, argv, tmp_path, monkeypatch):
        monkeypatch.setenv("CTRL_OUT_DIR", str(tmp_path))
        assert main(argv + ["--out", "a.json"]) == 0
        assert main(argv + ["--out", "b.json"]) == 0
        a = (tmp_path / "a.json").read_bytes()
        b = (tmp_path / "b.json").read_bytes()
        assert a == b and len(a) > 0

    def test_report_has_digest_and_no_timing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTRL_OUT_DIR", str(tmp_path))
        assert main(["analyze", spec("rlc.json"), "--out", "r.json"]) == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["input_digest"].startswith("sha256:")
        assert "elapsed" not in json.dumps(rep)


class TestShootReport:
    def test_results_carry_newton_history(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTRL_OUT_DIR", str(tmp_path))
        assert main(["shoot", spec("zermelo.json"), "--out", "z.json"]) == 0
        res = json.loads((tmp_path / "z.json").read_text())["results"]
        steps = res["history_steps"]
        assert len(res["residual_history"]) == len(steps)
        assert steps == sorted(steps) and steps[-1] == 2000
        assert res["residual_history"][-1] == res["residual_norm"]
        assert res["newton_iterations"] == len(steps) - len(set(steps))

    def test_tol_flag_stops_the_shoot(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTRL_OUT_DIR", str(tmp_path))
        argv = ["shoot", spec("brachistochrone.json"), "--steps", "400"]
        assert main(argv + ["--tol=1e-3", "--out", "loose.json"]) == 0
        assert main(argv + ["--out", "tight.json"]) == 0
        loose = json.loads((tmp_path / "loose.json").read_text())
        tight = json.loads((tmp_path / "tight.json").read_text())["results"]
        assert loose["diagnostics"]["tol"] == 1e-3
        res = loose["results"]
        hist, steps = res["residual_history"], res["history_steps"]
        assert 1e-9 < res["residual_norm"] < 1e-3
        # On each grid Newton stops at the first residual below the flag.
        for grid in set(steps):
            level = [r for r, s in zip(hist, steps) if s == grid]
            assert all(r >= 1e-3 for r in level[:-1])
        assert res["newton_iterations"] < tight["newton_iterations"]


class TestTabulatedLtv:
    def tabulated(self, times):
        # x1' = u, x2' = t x1: controllable, A(t) linear in t.
        return {
            "version": 1,
            "kind": "ltv-tabulated",
            "times": times,
            "A": [[[0.0, 0.0], [t, 0.0]] for t in times],
            "B": [[[1.0], [0.0]] for _ in times],
        }

    def test_analyze(self, tmp_path, capsys):
        path = write_spec(tmp_path, self.tabulated([0.0, 0.5, 2.0]))
        assert main(["analyze", path, "--t=1.0", "--T=2.0"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["ltv_kalman"]["satisfied"] is True
        assert res["gramian"]["invertible"] is True

    @pytest.mark.parametrize("times", [[0.0], [0.0, 1.0, 1.0], [1.0, 0.0]])
    def test_bad_time_grid_is_input_error(self, tmp_path, times):
        path = write_spec(tmp_path, self.tabulated(times))
        assert main(["analyze", path, "--T=1.0"]) == 2

    def test_stack_length_mismatch_is_input_error(self, tmp_path):
        obj = self.tabulated([0.0, 1.0])
        obj["B"] = obj["B"][:1]
        assert main(["analyze", write_spec(tmp_path, obj), "--T=1.0"]) == 2


class TestCsv:
    def test_lq_csv_sibling_and_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTRL_OUT_DIR", str(tmp_path))
        code = main(
            ["lq", spec("scalar_lq.json"), "--out", "lq.json", "--format", "csv"]
        )
        assert code == 0
        lines = (tmp_path / "lq.csv").read_text().splitlines()
        assert lines[0] == "t,x1,c1"
        # 17 significant digits survive a parse/print round trip
        for tok in lines[1].split(",") + lines[len(lines) // 2].split(","):
            v = float(tok)
            assert float(f"{v:.17g}") == v
        assert len(lines) == 2002  # header + steps + 1 rows

    def test_csv_to_stdout(self, capsys):
        assert main(["lq", spec("scalar_lq.json"), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,x1,c1\n")


class TestRouth:
    def test_routh_flag(self, capsys):
        assert main(["stabilize", "--routh=1,6,11,6"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["hurwitz"] is True
        assert rep["results"]["routh"]["sign_changes"] == 0

    def test_routh_unstable(self, capsys):
        assert main(["stabilize", "--routh=1,-1,1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["routh"]["hurwitz"] is False


class TestEntryPoint:
    @pytest.mark.skipif(
        shutil.which("ctrl") is None,
        reason="console script `ctrl` is missing from PATH (package not installed)",
    )
    def test_installed_script(self):
        proc = subprocess.run(
            ["ctrl", "analyze", spec("double_integrator.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["command"] == "analyze"
        assert re.match(r"\d+\.\d+\.\d+", rep["tool_version"])
