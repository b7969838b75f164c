"""Tests for the `ctrl` command line front end: exit codes, determinism,
and the CSV trajectory format."""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ctrlkit
from ctrlkit import cli
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

    @pytest.mark.parametrize(
        "name, change",
        [
            ("di_min_time.json", {"params": {"x0": [1e150, 0.0]}}),
            ("brachistochrone.json", {"params": {"x1": 1e150, "g": 9.81}}),
            ("brachistochrone.json", {"params": {"x1": 1.0, "g": 1e150}}),
            ("brachistochrone.json", {"guess": [1e150, 0.1, 0.7]}),
            ("brachistochrone.json", {"guess": [1e300, 0.1, 0.7]}),
        ],
    )
    def test_shoot_with_extreme_numbers_is_numerical_failure(self, name, change, tmp_path, capsys):
        # Newton can end on an iterate with t_f <= 0, whose extremal has no grid.
        with open(spec(name)) as fh:
            obj = json.load(fh)
        obj.update(change)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["shoot", write_spec(tmp_path, obj)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err

    def test_unresolved_ltv_model_is_numerical_failure(self, capsys):
        assert main(["analyze", spec("rotating_frame.json"), "--t=1e12"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: no local model" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command, name", [("lq", "scalar_lq.json"), ("pde", "wave_hum.json")])
    def test_steps_above_cap_is_input_error(self, command, name, capsys):
        # Each command allocates --steps + 1 rows; without the cap this one
        # asked numpy for petabytes and ended in a traceback.
        assert main([command, spec(name), "--steps=1000000000000000"]) == 2
        err = capsys.readouterr().err
        assert "input error: --steps" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--tol=2", "--tol=nan", "--tol=0", "--tol=-1e-9"])
    def test_tol_outside_unit_interval_is_input_error(self, flag, capsys):
        assert main(["lq", spec("scalar_lq.json"), flag]) == 2
        assert "input error: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("U", [[0.0]], "positive definite"),
            ("T", -1.0, "horizon T"),
            ("x0", [1.0, 0.0], "x0 must have 1 entries"),
            ("W", [[1.0, 0.0], [0.0, 1.0]], "W and Q must be 1 x 1"),
        ],
    )
    def test_bad_lq_data_is_input_error(self, field, value, message, tmp_path, capsys):
        with open(spec("scalar_lq.json")) as fh:
            obj = json.load(fh)
        obj[field] = value
        assert main(["lq", write_spec(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("task, N", [("wave-hum", 0), ("semilinear", -3)])
    def test_nonpositive_mode_count_is_input_error(self, task, N, tmp_path, capsys):
        obj = {"version": 1, "kind": "spectral-1d", "task": task, "N": N}
        assert main(["pde", write_spec(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "N >= 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--T=-1", "--T=0", "--T=inf", "--T=nan"])
    def test_bad_gramian_horizon_is_input_error(self, flag, capsys):
        assert main(["analyze", spec("rlc.json"), flag]) == 2
        assert "input error: --T" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--routh=1,abc"], "--routh needs comma-separated numbers"),
            (["--routh=0,1"], "nonzero leading coefficient"),
            ([spec("pendulum.json"), "--poles=-1,nan,-1,-1"], "--poles needs finite numbers"),
        ],
    )
    def test_bad_polynomial_flags_are_input_errors(self, argv, message, capsys):
        assert main(["stabilize", *argv]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err

    @pytest.mark.parametrize(
        "command, name, change, flags, message",
        [
            ("analyze", "double_integrator.json", {"A": [[1.0, 2.0]]}, [], "A must be square"),
            ("analyze", "double_integrator.json", {"A": [[math.nan, 1.0], [0.0, 0.0]]}, [], "'A' must be finite"),
            ("analyze", "double_integrator.json", {"r": [0.0, 0.0]}, [], "unknown fields ['r']"),
            ("analyze", "rlc.json", {"params": {"Q": 1.0}}, [], "unexpected params ['Q'] for builtin 'rlc'"),
            ("analyze", "triangular_ltv.json", {}, ["--depth=-1"], "--depth must be >= 1"),
            ("shoot", "zermelo.json", {"params": {"v": "a"}}, [], "params 'v' missing or not numeric"),
            ("shoot", "zermelo.json", {"guess": [-1.0, 1.5e-5]}, [], "'guess' must be a vector of 3 numbers"),
            ("pde", "wave_hum.json", {"y0_a": [1.0, 0.0]}, [], "'y0_a' must be a vector of 8 numbers"),
            ("pde", "wave_hum.json", {"T": math.inf}, [], "'T' must be finite"),
            ("pde", "wave_hum.json", {"N": "a"}, [], "'N' missing or not numeric"),
            ("pde", "moment_heat.json", {"L": 1.0}, [], "the moment task needs L = pi"),
            ("pde", "damping.json", {"T": -1.0}, [], "'T' must be a positive number"),
            ("pde", "semilinear.json", {"T_sim": -1.0}, [], "'T_sim' must be a positive number"),
            ("analyze", "triangular_ltv.json", {}, ["--depth=17"], "--depth must be >= 1 and <= 16"),
            ("analyze", "triangular_ltv.json", {}, ["--depth=1000000000"], "--depth must be >= 1 and <= 16"),
            # A non-whole family is refused, not rounded.
            ("analyze", "maxwell_bloch_f2.json", {"params": {"family": 2.5}}, [], "params 'family' must be a whole number"),
            ("analyze", "heisenberg.json", {"params": {"x": [0.0, 0.0]}}, [], "params 'x' must be a vector of 3 numbers"),
            # force is a JSON boolean, not any truthy value.
            ("pde", "wave_hum.json", {"T": 1.5, "force": "false"}, [], "field 'force' must be true or false"),
            ("pde", "wave_hum.json", {"T": 1.5, "force": 1}, [], "field 'force' must be true or false"),
            # T_sim mu_N / 2.5 overflows to inf: no step count to check against the grid cap.
            ("pde", "semilinear.json", {"T_sim": 1e300, "L": 1e-3}, [], "needs more RK4 steps than a float can count"),
        ],
    )
    def test_malformed_spec_is_input_error(self, command, name, change, flags, message, tmp_path, capsys):
        with open(spec(name)) as fh:
            obj = json.load(fh)
        obj.update(change)
        assert main([command, write_spec(tmp_path, obj), *flags]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["report", "csv"])
    def test_non_finite_result_is_numerical_failure(self, fmt, tmp_path, capsys):
        # The states stay finite, but |z| and the Lyapunov function overflow.
        with open(spec("semilinear.json")) as fh:
            obj = json.load(fh)
        obj["y0"] = [1e300]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["pde", write_spec(tmp_path, obj), f"--format={fmt}"]) == 3
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err and "non-finite" in captured.err
        assert captured.out == ""

    def test_out_into_missing_directory_is_input_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "r.json")
        assert main(["analyze", spec("rlc.json"), "--out", out]) == 2
        assert "input error: cannot write the report" in capsys.readouterr().err


BUILTINS = [
    (command, kind, name)
    for command, kind, table in [
        ("analyze", "nonlinear-builtin", cli._ANALYZE_BUILTINS),
        ("stabilize", "nonlinear-builtin", cli._STABILIZE_BUILTINS),
        ("shoot", "oc-problem", cli._OC_BUILDERS),
    ]
    for name in table
]
TASK_FIELDS = set().union(*(fields for fields, _ in cli._PDE_TASKS.values()))


class _Allocates(Exception):
    """Raised by a stubbed pde task function: the task's grid passed the cap."""


class TestSpecSchema:
    @pytest.mark.parametrize("command, kind, name", BUILTINS)
    def test_unknown_param_is_input_error(self, command, kind, name, tmp_path, capsys):
        obj = {"version": 1, "kind": kind, "name": name, "params": {"bogus": 1.0}}
        assert main([command, write_spec(tmp_path, obj)]) == 2
        assert f"unexpected params ['bogus'] for builtin '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, field",
        [(task, field) for task, (fields, _) in cli._PDE_TASKS.items() for field in sorted(TASK_FIELDS - fields)],
    )
    def test_another_tasks_field_is_input_error(self, task, field, tmp_path, capsys):
        obj = {"version": 1, "kind": "spectral-1d", "task": task, field: 1.0}
        assert main(["pde", write_spec(tmp_path, obj)]) == 2
        assert f"unknown fields ['{field}'] for kind spectral-1d" in capsys.readouterr().err

    @pytest.mark.parametrize("force, code", [(True, 0), (False, 3)])
    def test_force_is_a_json_boolean(self, force, code, tmp_path, capsys):
        # T = 1.5 < 2L: only a forced run attempts the control.
        with open(spec("wave_hum.json")) as fh:
            obj = json.load(fh)
        obj.update(T=1.5, force=force)
        assert main(["pde", write_spec(tmp_path, obj), "--out", str(tmp_path / "r.json")]) == code

    @pytest.mark.parametrize(
        "task, N, steps, allowed",
        [
            ("wave-hum", 1000, 10**6, False),  # (steps + 1) x 2N = 2.0e9 values
            ("wave-hum", 8, 624999, True),  # exactly 1e7
            ("wave-hum", 8, 625000, False),
            ("damping", 1000, 10**6, False),
            ("semilinear", 1000, 10**6, False),
            ("semilinear", 10, 10**6, False),  # (steps + 1) x (N + 1) = 1.1e7
            ("semilinear", 8, 10**6, True),
            ("semilinear", 1000, 1, False),  # the RK4 refinement alone: 3.9e7 steps
        ],
    )
    def test_grid_cap(self, task, N, steps, allowed, tmp_path, monkeypatch, capsys):
        # The stubs stand for the task functions, so no grid is ever allocated.
        def stub(*args, **kwargs):
            raise _Allocates

        for fn in ("hum_wave_boundary", "damping_decay_experiment", "semilinear_stabilize"):
            monkeypatch.setattr(cli, fn, stub)
        argv = ["pde", write_spec(tmp_path, {"version": 1, "kind": "spectral-1d", "task": task, "N": N})]
        if allowed:
            with pytest.raises(_Allocates):
                main([*argv, f"--steps={steps}"])
        else:
            assert main([*argv, f"--steps={steps}"]) == 2
            assert "more than 1e7" in capsys.readouterr().err


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


class TestSemilinearReport:
    @pytest.mark.parametrize("steps, integrated", [(2000, 2527), (3000, 3000)])
    def test_reports_the_steps_integrated(self, steps, integrated, tmp_path, monkeypatch):
        # RK4 stability refines the grid to ceil(T_sim mu_N / 2.5) = 2527 steps.
        monkeypatch.setenv("CTRL_OUT_DIR", str(tmp_path))
        assert main(["pde", spec("semilinear.json"), f"--steps={steps}", "--out", "s.json"]) == 0
        rep = json.loads((tmp_path / "s.json").read_text())
        assert rep["diagnostics"]["steps"] == steps
        assert rep["results"]["diagnostics"] == {"steps_integrated": integrated}
        assert rep["results"]["V_monotone"] is True


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

    def test_kinked_gramian_is_split_at_the_tabulated_times(self, tmp_path, capsys):
        # A_21 = |t - 0.7|: one Chebyshev piece over the kink is not resolved
        # below the degree cap; the pieces [0, 0.7] and [0.7, 2] are at N = 16.
        times = [0.0, 0.7, 2.0]
        obj = {
            "version": 1,
            "kind": "ltv-tabulated",
            "times": times,
            "A": [[[0.0, 0.0], [abs(t - 0.7), 0.0]] for t in times],
            "B": [[[1.0], [0.0]] for _ in times],
        }
        assert main(["analyze", write_spec(tmp_path, obj), "--T=2.0"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["gramian"]["invertible"] is True
        assert rep["diagnostics"]["gramian"] == {"chebyshev_degree": 16, "pieces": 2}


class TestLtvGramianReport:
    def test_unresolved_gramian_is_numerical_failure(self, tmp_path, capsys):
        # A Dubins loop of period 1e-3 turns 6283 times over T = 2 pi: beyond
        # the Chebyshev degree cap, so no Gramian is reported.
        obj = {"version": 1, "kind": "nonlinear-builtin", "name": "dubins", "params": {"T": 1e-3}}
        assert main(["analyze", write_spec(tmp_path, obj), "--T=6.283185307179586"]) == 3
        err = capsys.readouterr().err
        assert "not resolved at Chebyshev degree" in err and "Traceback" not in err

    @pytest.mark.parametrize("steps", [1, 2000])
    def test_steps_do_not_set_the_gramian(self, steps, capsys):
        argv = ["analyze", spec("dubins.json"), "--T=6.283185307179586", f"--steps={steps}"]
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["diagnostics"] == {
            "tol": 1e-9, "steps": steps, "gramian": {"chebyshev_degree": 32, "pieces": 1}
        }
        assert rep["results"]["gramian"]["C_T"] == pytest.approx(1.377422462266884, rel=1e-13)

    def test_lti_report_has_no_gramian_diagnostics(self, capsys):
        assert main(["analyze", spec("rlc.json"), "--T=1.0"]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"] == {"tol": 1e-9, "steps": 2000}


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
