"""Batch command-line front end.

`ctrl analyze|stabilize|lq|shoot|pde <spec.json> [flags]` parses a declarative
JSON system description, dispatches to the library, and writes a
deterministic JSON report (and optional CSV trajectories).  Exit codes:
0 success, 2 input/schema error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, problems
from .numcore import DenseOutput, IntegrationBlowup
from .lincontrol import (
    LtiSystem,
    LtvSystem,
    NotControllableError,
    controllable_decomposition,
    gramian,
    hautus_test,
    hum_control_finite,
    kalman_test,
    larc_rank,
    ltv_kalman_test,
)
from .stabilize import hurwitz, linearize, pole_place, routh
from .optctrl import (
    LqProblem,
    ShootingError,
    check_extremal,
    lq_cost,
    lq_feedback,
    pmp_shoot,
    riccati_solve,
)
from .specpde import (
    IllPosedError,
    IntervalUnion,
    KTooLargeError,
    SineBasis,
    WaveState,
    damping_decay_experiment,
    hum_wave_boundary,
    moment_heat_control,
    semilinear_stabilize,
)

_NUMERICAL_ERRORS = (
    NotControllableError,
    IllPosedError,
    KTooLargeError,
    ShootingError,
    IntegrationBlowup,  # RiccatiBlowup too
    np.linalg.LinAlgError,
)


class SchemaError(ValueError):
    """Raised for malformed spec files (exit code 2)."""


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _load_spec(path: str, allowed_kinds) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read spec file {path}: {exc}")
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(spec, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if spec.get("version") != 1:
        raise SchemaError(f"{path}: missing or unsupported 'version' (expected 1)")
    kind = spec.get("kind")
    if kind not in allowed_kinds:
        raise SchemaError(f"{path}: kind {kind!r} not valid here; expected {sorted(allowed_kinds)}")
    unknown = set(spec) - _FIELDS[kind]
    if unknown:
        raise SchemaError(f"{path}: unknown fields {sorted(unknown)} for kind {kind}")
    spec["_digest"] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return spec


_FIELDS = {
    "lti": {"version", "kind", "A", "B", "r"},
    "ltv-tabulated": {"version", "kind", "times", "A", "B"},
    "nonlinear-builtin": {"version", "kind", "name", "params"},
    "spectral-1d": {
        "version", "kind", "task", "L", "N", "T", "omega", "y0_a", "y0_b",
        "y1_a", "y1_b", "y0", "n", "c", "gamma", "T_sim", "force",
    },
    "oc-problem": {"version", "kind", "name", "params", "guess"},
    "lq": {"version", "kind", "A", "B", "W", "U", "Q", "T", "x0"},
}


def _matrix(spec, key, path):
    try:
        return np.array(spec[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{path}: field {key!r} missing or not numeric")


def _tabulated_ltv(spec, path) -> LtvSystem:
    times = _matrix(spec, "times", path)
    Astack = _matrix(spec, "A", path)
    Bstack = _matrix(spec, "B", path)
    if Astack.ndim != 3 or Bstack.ndim != 3 or times.ndim != 1:
        raise SchemaError(f"{path}: ltv-tabulated needs 1D times and 3D A/B stacks")
    if times.shape[0] < 2 or not np.all(np.diff(times) > 0):
        raise SchemaError(f"{path}: ltv-tabulated needs >= 2 strictly increasing times")
    if Astack.shape[0] != times.shape[0] or Bstack.shape[0] != times.shape[0]:
        raise SchemaError(f"{path}: ltv-tabulated needs one A and one B per time")
    # Tabulated data carry no derivatives: the dense output is piecewise linear.
    return LtvSystem(
        Astack.shape[1],
        Bstack.shape[2],
        DenseOutput(times, Astack),
        DenseOutput(times, Bstack),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> dict:
    spec = _load_spec(args.spec, {"lti", "ltv-tabulated", "nonlinear-builtin"})
    if spec["kind"] == "lti":
        sys_ = LtiSystem(_matrix(spec, "A", args.spec), _matrix(spec, "B", args.spec))
        results = _analyze_lti(sys_, args)
    elif spec["kind"] == "ltv-tabulated":
        results = _analyze_ltv(_tabulated_ltv(spec, args.spec), args)
    else:
        name = spec.get("name")
        if name not in _ANALYZE_BUILTINS:
            raise SchemaError(f"{args.spec}: unknown builtin {name!r}")
        results = {"builtin": name}
        results.update(_ANALYZE_BUILTINS[name](spec.get("params", {}) or {}, args))
    return _report("analyze", spec, results, args)


def _analyze_maxwell_bloch(params, args) -> dict:
    xbar, ubar = problems.maxwell_bloch_equilibrium(
        int(params.get("family", 1)), float(params.get("first", 1.0)), float(params.get("c", 0.0))
    )
    lin = linearize(problems.maxwell_bloch_dynamics(), xbar, ubar)
    return {"equilibrium": {"x": xbar, "u": ubar}, **_analyze_lti(lin, args)}


def _analyze_heisenberg(params, args) -> dict:
    x = np.asarray(params.get("x", [0.0, 0.0, 0.0]), dtype=float)
    rank, ok = larc_rank(problems.heisenberg_fields(), x, depth=2)
    return {"larc": {"rank": rank, "satisfied": ok}}


def _analyze_lti(sys_: LtiSystem, args) -> dict:
    tol = args.tol
    rep = kalman_test(sys_, tol)
    ok, per_eig = hautus_test(sys_, tol)
    _, _, _, _, _, r = controllable_decomposition(sys_, tol)
    out = {
        "kalman": {"rank": rep.rank, "controllable": rep.controllable},
        "hautus": {
            "controllable": ok,
            "per_eigenvalue": [
                {"eigenvalue": lam, "rank": rk} for lam, rk in per_eig
            ],
        },
        "controllable_subspace_dim": r,
    }
    if args.T is not None:
        g = gramian(sys_, args.T, args.steps)
        out["gramian"] = {
            "T": g.horizon,
            "C_T": g.C_T,
            "invertible": g.invertible,
        }
    return out


def _analyze_ltv(sys_: LtvSystem, args) -> dict:
    rank, ok = ltv_kalman_test(sys_, args.t, depth=args.depth, tol=max(args.tol, 1e-7))
    out = {"ltv_kalman": {"t": args.t, "depth": args.depth, "rank": rank, "satisfied": ok}}
    if args.T is not None:
        g = gramian(sys_, args.T, args.steps)
        out["gramian"] = {"T": g.horizon, "C_T": g.C_T, "invertible": g.invertible}
    return out


# Builtin name -> (params, args) -> analyze results.
_ANALYZE_BUILTINS = {
    "dubins": lambda p, a: _analyze_ltv(
        problems.dubins_linearized(float(p.get("T", 2.0 * np.pi))), a
    ),
    "rotating-frame": lambda p, a: _analyze_ltv(problems.rotating_frame(), a),
    "triangular-ltv": lambda p, a: _analyze_ltv(problems.triangular_ltv(), a),
    "rlc": lambda p, a: _analyze_lti(problems.rlc(**p), a),
    "double-integrator": lambda p, a: _analyze_lti(problems.double_integrator(), a),
    "coupled-springs": lambda p, a: _analyze_lti(
        problems.coupled_springs(float(p.get("k1", 1.0)), float(p.get("k2", 1.0))), a
    ),
    "pendulum": lambda p, a: _analyze_lti(
        linearize(problems.pendulum_dynamics(**p), np.zeros(4), np.zeros(1)), a
    ),
    "maxwell-bloch": _analyze_maxwell_bloch,
    "heisenberg": _analyze_heisenberg,
}

# Builtin name -> params -> the LtiSystem whose poles stabilize places.
_STABILIZE_BUILTINS = {
    "pendulum": lambda p: problems.pendulum_linear(**p),
    "double-integrator": lambda p: problems.double_integrator(),
    "rlc": lambda p: problems.rlc(**p),
}


def cmd_stabilize(args) -> dict:
    if args.routh is not None:
        coeffs = _numbers(args.routh, "--routh")
        if coeffs[0] == 0.0:
            raise SchemaError("--routh needs a nonzero leading coefficient")
        rep = routh(coeffs)
        minors, hur = hurwitz(coeffs) if coeffs[0] > 0 else (np.array([]), False)
        results = {
            "polynomial": coeffs,
            "routh": {
                "complete": rep.complete,
                "first_column": rep.first_column,
                "sign_changes": rep.sign_changes,
                "hurwitz": rep.hurwitz,
            },
            "hurwitz_minors": minors,
            "hurwitz": bool(hur),
        }
        spec = {"_digest": "sha256:" + hashlib.sha256(args.routh.encode()).hexdigest()}
        return _report("stabilize", spec, results, args)
    if args.spec is None:
        raise SchemaError("stabilize needs a spec file or --routh")
    spec = _load_spec(args.spec, {"lti", "nonlinear-builtin"})
    if spec["kind"] == "lti":
        sys_ = LtiSystem(_matrix(spec, "A", args.spec), _matrix(spec, "B", args.spec))
    else:
        name = spec.get("name")
        if name not in _STABILIZE_BUILTINS:
            raise SchemaError(f"{args.spec}: builtin {name!r} not supported by stabilize")
        sys_ = _STABILIZE_BUILTINS[name](spec.get("params", {}) or {})
    if args.poles is None:
        raise SchemaError("stabilize needs --poles when a spec is given")
    poles = _numbers(args.poles, "--poles")
    if len(poles) != sys_.n:
        raise SchemaError(f"expected {sys_.n} poles, got {len(poles)}")
    target = np.poly(poles)
    K = pole_place(sys_, target, args.tol)
    eigs = np.sort_complex(np.linalg.eigvals(sys_.A + sys_.B @ K))
    results = {
        "target_polynomial": target,
        "K": K,
        "closed_loop_eigenvalues": [complex(e) for e in eigs],
    }
    return _report("stabilize", spec, results, args)


def cmd_lq(args) -> dict:
    spec = _load_spec(args.spec, {"lq"})
    A, B, W, U, Q, x0 = (_matrix(spec, k, args.spec) for k in ("A", "B", "W", "U", "Q", "x0"))
    try:
        prob = LqProblem(LtiSystem(A, B), W, U, Q, float(spec.get("T", 1.0)))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{args.spec}: {exc}")
    x0 = x0.reshape(-1)
    if x0.shape != (prob.sys.n,):
        raise SchemaError(f"{args.spec}: x0 must have {prob.sys.n} entries, got {x0.size}")
    sol = riccati_solve(prob, args.steps)
    law = lq_feedback(sol, prob)
    cost, traj, controls = lq_cost(prob, law, x0, args.steps)
    results = {
        "E0": sol.E[0],
        "closed_loop_cost": cost,
        "value_identity": float(x0 @ (-sol.E[0]) @ x0),
    }
    return _report("lq", spec, results, args, (traj.times, traj.states, controls))


_OC_BUILDERS = {
    "zermelo": lambda p: problems.zermelo_min_drift(
        v=float(p.get("v", 1.0)), ell=float(p.get("ell", 1.0))
    ),
    "brachistochrone": lambda p: problems.brachistochrone_free_y(
        x1=float(p.get("x1", 1.0)), g=float(p.get("g", 9.81))
    ),
    "double-integrator-min-time": lambda p: problems.double_integrator_min_time(
        p.get("x0", [1.0, 0.0])
    ),
}


def cmd_shoot(args) -> dict:
    spec = _load_spec(args.spec, {"oc-problem"})
    name = spec.get("name")
    if name not in _OC_BUILDERS:
        raise SchemaError(f"{args.spec}: unknown optimal control builtin {name!r}")
    params = spec.get("params", {}) or {}
    prob = _OC_BUILDERS[name](params)
    guess = spec.get("guess")
    if guess is None:
        raise SchemaError(f"{args.spec}: oc-problem requires a 'guess' vector")
    ext = pmp_shoot(prob, np.asarray(guess, dtype=float), steps=args.steps, tol=args.tol)
    if not ext.converged:
        raise ShootingError(
            f"shooting did not converge (residual {ext.residual_history[-1]:.3e})",
            ext.residual_history,
        )
    diag = check_extremal(ext, prob)
    results = {
        "tf": ext.tf,
        "converged": ext.converged,
        "residual_norm": float(np.linalg.norm(ext.residual)),
        "p0": ext.p0,
        "adjoint_initial": ext.adjoint.states[0],
        "diagnostics": diag,
        "singular_arc": ext.singular_arc,
        "residual_history": ext.residual_history,
        "history_steps": ext.history_steps,
        "newton_iterations": ext.newton_iterations,
    }
    columns = (ext.state.times, ext.state.states, ext.control, ext.adjoint.states)
    return _report("shoot", spec, results, args, columns)


def cmd_pde(args) -> dict:
    spec = _load_spec(args.spec, {"spectral-1d"})
    task = spec.get("task")
    L = float(spec.get("L", 1.0))
    N = int(spec.get("N", 8))
    try:
        basis = SineBasis(L, N)
    except ValueError as exc:
        raise SchemaError(f"{args.spec}: {exc}")
    columns = None
    if task == "wave-hum":
        T = float(spec.get("T", 2.0 * L))
        y0 = WaveState(
            np.asarray(spec.get("y0_a", [1.0] + [0.0] * (N - 1)), dtype=float),
            np.asarray(spec.get("y0_b", [0.0] * N), dtype=float),
        )
        y1 = WaveState(
            np.asarray(spec.get("y1_a", [0.0] * N), dtype=float),
            np.asarray(spec.get("y1_b", [0.0] * N), dtype=float),
        )
        res = hum_wave_boundary(
            basis, y0, y1, T, steps=args.steps, force=bool(spec.get("force", False))
        )
        results = {
            "task": task,
            "endpoint_error": res.endpoint_error,
            "condition_number": res.condition_number,
            "cost": res.cost,
            "control_l2_sq": res.control_l2_sq,
        }
        columns = (res.times, res.control.reshape(-1, 1))
    elif task == "moment":
        T = float(spec.get("T", 1.0))
        omega = IntervalUnion(spec.get("omega", [[0.0, L / 2.0]]))
        y0 = np.asarray(spec.get("y0", [1.0] + [0.0] * (N - 1)), dtype=float)
        res = moment_heat_control(basis, omega, y0, T, N)
        results = {
            "task": task,
            "final_modes": res.final_modes,
            "max_final": res.max_final,
            "denominators": res.denominators,
        }
    elif task == "damping":
        T = float(spec.get("T", 10.0))
        omega_spec = spec.get("omega")
        omega = IntervalUnion(omega_spec) if omega_spec else None
        res = damping_decay_experiment(basis, omega, T, samples=args.steps)
        results = {
            "task": task,
            "delta": res.delta,
            "C1": res.C1,
            "observability_value": res.observability_value,
        }
        columns = (res.times, res.energy.reshape(-1, 1))
    elif task == "semilinear":
        plant = problems.semilinear_heat(
            L=L,
            c=float(spec.get("c", 12.0)),
            n=spec.get("n"),
            N_sim=N,
            gamma=spec.get("gamma"),
        )
        y0 = np.asarray(spec.get("y0", [0.01]), dtype=float)
        res = semilinear_stabilize(plant, y0, float(spec.get("T_sim", 10.0)), args.steps)
        results = {
            "task": task,
            "K": res.K,
            "final_u": float(res.u[-1]),
            "final_z_norm": float(np.linalg.norm(res.z[-1])),
            "V_monotone": bool(np.all(np.diff(res.V) <= 1e-9 * max(1.0, res.V[0]))),
        }
        columns = (res.times, np.column_stack([res.u, res.z]), res.v.reshape(-1, 1))
    else:
        raise SchemaError(f"{args.spec}: unknown pde task {task!r}")
    return _report("pde", spec, results, args, columns)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _traj_csv(times, states, *extra) -> str:
    cols = [np.asarray(times).reshape(-1, 1), np.atleast_2d(np.asarray(states))]
    for e in extra:
        cols.append(np.atleast_2d(np.asarray(e)))
    M = np.hstack(cols)
    header = ["t"]
    header += [f"x{i + 1}" for i in range(np.atleast_2d(np.asarray(states)).shape[1])]
    k = len(header)
    header += [f"c{i + 1}" for i in range(M.shape[1] - k)]
    lines = [",".join(header)]
    for row in M:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _report(command: str, spec: dict, results: dict, args, columns=None) -> dict:
    """The JSON report; `columns` are the `_traj_csv` arguments of its CSV, if any."""
    report = {
        "command": command,
        "tool_version": __version__,
        "input_digest": spec.get("_digest", ""),
        "diagnostics": {
            "tol": args.tol,
            "steps": args.steps,
        },
        "results": _jsonable(results),
    }
    report["_columns"] = columns
    return report


def _emit(report: dict, args) -> None:
    columns = report.pop("_columns", None)
    csv = _traj_csv(*columns) if columns is not None and args.format == "csv" else None
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out_dir = os.environ.get("CTRL_OUT_DIR", ".")
    if args.out:
        path = args.out
        if not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if csv is not None:
                with open(os.path.splitext(path)[0] + ".csv", "w", encoding="utf-8") as fh:
                    fh.write(csv)
        except OSError as exc:
            raise SchemaError(f"cannot write the report: {exc}")
    else:
        if csv is not None:
            sys.stdout.write(csv)
        else:
            sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctrl", description="Batch control-theory analysis and synthesis"
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, spec_required=True):
        if spec_required:
            p.add_argument("spec", help="path to a JSON system spec")
        else:
            p.add_argument("spec", nargs="?", default=None)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--steps", type=int, default=2000)
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--format", choices=["report", "csv"], default="report")

    p = sub.add_parser("analyze", help="controllability analysis")
    common(p)
    p.add_argument("--T", type=float, default=None, help="Gramian horizon")
    p.add_argument("--t", type=float, default=0.0, help="time for the LTV rank test")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("stabilize", help="Routh/Hurwitz tests and pole placement")
    common(p, spec_required=False)
    p.add_argument("--routh", default=None, help="comma-separated polynomial coefficients")
    p.add_argument("--poles", default=None, help="comma-separated target poles")
    p.set_defaults(fn=cmd_stabilize)

    p = sub.add_parser("lq", help="finite-horizon LQ synthesis")
    common(p)
    p.set_defaults(fn=cmd_lq)

    p = sub.add_parser("shoot", help="PMP single shooting")
    common(p)
    p.set_defaults(fn=cmd_shoot)

    p = sub.add_parser("pde", help="spectral 1D PDE control tasks")
    common(p)
    p.set_defaults(fn=cmd_pde)
    return ap


def _numbers(text: str, flag: str) -> list:
    """The finite numbers of a comma-separated flag value."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise SchemaError(f"{flag} needs comma-separated numbers, got {text!r}")
    if not all(np.isfinite(values)):
        raise SchemaError(f"{flag} needs finite numbers, got {text!r}")
    return values


def _check_flags(args) -> None:
    if args.steps < 1:
        raise SchemaError(f"--steps must be >= 1, got {args.steps}")
    if not 0.0 < args.tol < 1.0:
        raise SchemaError(f"--tol must lie in (0, 1), got {args.tol}")
    T = getattr(args, "T", None)  # analyze only
    if T is not None and not 0.0 < T < np.inf:
        raise SchemaError(f"--T must be positive and finite, got {T}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check_flags(args)
        _emit(args.fn(args), args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
