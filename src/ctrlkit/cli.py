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
from functools import lru_cache

import numpy as np

from . import __version__, problems
from .numcore import DenseOutput, IntegrationBlowup
from .lincontrol import (
    _CHEB_DEG,
    LtiSystem,
    LtvSystem,
    NotControllableError,
    gramian,
    hautus_test,
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
    semilinear_steps,
)


class NonFiniteResult(ArithmeticError):
    """Raised when a result to be written is infinite or NaN (exit code 3)."""


_NUMERICAL_ERRORS = (
    NotControllableError,
    IllPosedError,
    KTooLargeError,
    ShootingError,
    IntegrationBlowup,  # RiccatiBlowup too
    np.linalg.LinAlgError,
    ArithmeticError,  # NonFiniteResult, overflow, and expm of an overflowed matrix
)


class SchemaError(ValueError):
    """Raised for malformed spec files (exit code 2)."""


def _json_default(x):
    """The JSON value of a numpy array or scalar, or of a complex number."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


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
    if not isinstance(kind, str) or kind not in allowed_kinds:
        raise SchemaError(f"{path}: kind {kind!r} not valid here; expected {sorted(allowed_kinds)}")
    fields = _FIELDS[kind]
    if kind == "spectral-1d":
        task = spec.get("task")
        if not isinstance(task, str) or task not in _PDE_TASKS:
            raise SchemaError(f"{path}: unknown pde task {task!r}")
        fields = fields | _PDE_TASKS[task][0]
    unknown = set(spec) - fields
    if unknown:
        raise SchemaError(f"{path}: unknown fields {sorted(unknown)} for kind {kind}")
    spec["_digest"] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return spec


_FIELDS = {
    "lti": {"version", "kind", "A", "B"},
    "ltv-tabulated": {"version", "kind", "times", "A", "B"},
    "nonlinear-builtin": {"version", "kind", "name", "params"},
    "spectral-1d": {"version", "kind", "task", "L", "N"},  # and the fields of its task
    "oc-problem": {"version", "kind", "name", "params", "guess"},
    "lq": {"version", "kind", "A", "B", "W", "U", "Q", "T", "x0"},
}


def _matrix(spec, key, path, default=None, what="field") -> np.ndarray:
    """spec[key] (or `default`) as a float array whose entries are all finite."""
    value = spec.get(key, default)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or value is None:
        raise SchemaError(f"{path}: {what} {key!r} missing or not numeric")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: {what} {key!r} must be finite")
    return arr


def _vector(spec, key, path, default, lengths, what="field") -> np.ndarray:
    """A 1-D field whose length lies in the range `lengths`."""
    v = _matrix(spec, key, path, default, what)
    if v.ndim != 1 or v.shape[0] not in lengths:
        count = lengths.start if len(lengths) == 1 else f"{lengths.start} to {lengths.stop - 1}"
        raise SchemaError(f"{path}: {what} {key!r} must be a vector of {count} numbers")
    return v


def _number(spec, key, path, default, kind="", what="field"):
    """A number field, `kind` "positive" or "whole" if not empty; None if both it and `default` are."""
    if default is None and spec.get(key) is None:
        return None
    x = _matrix(spec, key, path, default, what)
    if x.ndim != 0 or (kind == "positive" and not x > 0.0) or (kind == "whole" and x != int(x)):
        raise SchemaError(f"{path}: {what} {key!r} must be a {(kind + ' number').strip()}")
    return int(x) if kind == "whole" else float(x)


def _construct(path, build, *args, **kwargs):
    """build(*args, **kwargs) on spec data: the object's own checks are input errors."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{path}: {exc}")


def _lti(spec, path) -> LtiSystem:
    return _construct(path, LtiSystem, _matrix(spec, "A", path), _matrix(spec, "B", path))


def _builtin(table, spec, path):
    """What the spec's builtin `name` builds from its `params`, and the rest of its `table` entry.

    Each param takes the shape of its default: a float is a finite number, an
    int a whole number, and a list a vector of as many numbers.
    """
    name, params = spec.get("name"), spec.get("params") or {}
    if not isinstance(name, str) or name not in table:
        raise SchemaError(f"{path}: builtin {name!r} unknown here; expected {sorted(table)}")
    if not isinstance(params, dict):
        raise SchemaError(f"{path}: field 'params' must be an object")
    build, defaults, *rest = table[name]
    unknown = set(params) - set(defaults)
    if unknown:
        raise SchemaError(
            f"{path}: unexpected params {sorted(unknown)} for builtin {name!r}; expected {sorted(defaults)}"
        )
    values = {}
    for key, default in defaults.items():
        if isinstance(default, list):
            size = range(len(default), len(default) + 1)
            values[key] = _vector(params, key, path, default, size, "params")
        else:
            kind = "whole" if isinstance(default, int) else ""
            values[key] = _number(params, key, path, default, kind, "params")
    return (_construct(path, build, **values), *rest)


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
    # Tabulated data carry no derivatives: the dense output is piecewise
    # linear, with a kink at each tabulated time.
    return LtvSystem(
        Astack.shape[1],
        Bstack.shape[2],
        DenseOutput(times, Astack),
        DenseOutput(times, Bstack),
        tuple(times.tolist()),
    )


# ---------------------------------------------------------------------------
# Commands: each returns (spec, results, CSV columns or None[, diagnostics])
# for _emit.
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    spec = _load_spec(args.spec, {"lti", "ltv-tabulated", "nonlinear-builtin"})
    if spec["kind"] == "lti":
        results = _analyze_lti(_lti(spec, args.spec), args)
    elif spec["kind"] == "ltv-tabulated":
        results = _analyze_ltv(_tabulated_ltv(spec, args.spec), args)
    else:
        built, analyze = _builtin(_ANALYZE_BUILTINS, spec, args.spec)
        results = {"builtin": spec["name"], **analyze(built, args)}
    diagnostics = results.pop("diagnostics", {})
    return spec, results, None, diagnostics


def _analyze_maxwell_bloch(equilibrium, args) -> dict:
    xbar, ubar = equilibrium
    lin = linearize(problems.maxwell_bloch_dynamics(), xbar, ubar)
    return {"equilibrium": {"x": xbar, "u": ubar}, **_analyze_lti(lin, args)}


def _analyze_heisenberg(x, args) -> dict:
    rank, ok = larc_rank(problems.heisenberg_fields(), x, depth=2)
    return {"larc": {"rank": rank, "satisfied": ok}}


def _analyze_lti(sys_: LtiSystem, args) -> dict:
    tol = args.tol
    rep = kalman_test(sys_, tol)
    ok, per_eig = hautus_test(sys_, tol)
    return {
        "kalman": {"rank": rep.rank, "controllable": rep.controllable},
        "hautus": {
            "controllable": ok,
            "per_eigenvalue": [{"eigenvalue": lam, "rank": rk} for lam, rk in per_eig],
        },
        "controllable_subspace_dim": rep.rank,
        **_gramian_results(sys_, args),
    }


def _analyze_ltv(sys_: LtvSystem, args) -> dict:
    rank, ok = ltv_kalman_test(sys_, args.t, depth=args.depth, tol=max(args.tol, 1e-7))
    return {
        "ltv_kalman": {"t": args.t, "depth": args.depth, "rank": rank, "satisfied": ok},
        **_gramian_results(sys_, args),
    }


def _gramian_results(sys_, args) -> dict:
    """The Gramian over [0, --T], if --T is given.

    An LTV Gramian's Chebyshev degree and piece count come under the key
    "diagnostics", which cmd_analyze moves to the report's diagnostics.
    """
    if args.T is None:
        return {}
    g = gramian(sys_, args.T)
    res = {"gramian": {"T": g.horizon, "C_T": g.C_T, "invertible": g.invertible}}
    if g.degree is not None:
        res["diagnostics"] = {"gramian": {"chebyshev_degree": g.degree, "pieces": g.pieces}}
    return res


# Builtin name -> (builder, {param: default}[, analyze(built, args) -> results]).
# _builtin calls the builder under _construct, so only its errors are input
# errors.  Builders look `problems` functions up at call time, so that a
# patched one (perfbench's tracer patches them) is the one that runs.
_RLC = {"R": 1.0, "L": 1.0, "C": 1.0}
_PENDULUM = {"m": 1.0, "M": 1.0, "l": 1.0, "g": 1.0}
_ANALYZE_BUILTINS = {
    "dubins": (lambda **p: problems.dubins_linearized(**p), {"T": 2.0 * np.pi}, _analyze_ltv),
    "rotating-frame": (lambda: problems.rotating_frame(), {}, _analyze_ltv),
    "triangular-ltv": (lambda: problems.triangular_ltv(), {}, _analyze_ltv),
    "rlc": (lambda **p: problems.rlc(**p), _RLC, _analyze_lti),
    "double-integrator": (lambda: problems.double_integrator(), {}, _analyze_lti),
    "coupled-springs": (
        lambda **p: problems.coupled_springs(**p), {"k1": 1.0, "k2": 1.0}, _analyze_lti
    ),
    "pendulum": (
        lambda **p: linearize(problems.pendulum_dynamics(**p), np.zeros(4), np.zeros(1)),
        _PENDULUM,
        _analyze_lti,
    ),
    "maxwell-bloch": (
        lambda **p: problems.maxwell_bloch_equilibrium(**p),
        {"family": 1, "first": 1.0, "c": 0.0},
        _analyze_maxwell_bloch,
    ),
    "heisenberg": (lambda x: x, {"x": [0.0, 0.0, 0.0]}, _analyze_heisenberg),
}

# The builder gives the LtiSystem whose poles stabilize places.
_STABILIZE_BUILTINS = {
    "pendulum": (lambda **p: problems.pendulum_linear(**p), _PENDULUM),
    "double-integrator": (lambda: problems.double_integrator(), {}),
    "rlc": (lambda **p: problems.rlc(**p), _RLC),
}


def cmd_stabilize(args):
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
        return spec, results, None
    if args.spec is None:
        raise SchemaError("stabilize needs a spec file or --routh")
    spec = _load_spec(args.spec, {"lti", "nonlinear-builtin"})
    if spec["kind"] == "lti":
        sys_ = _lti(spec, args.spec)
    else:
        sys_ = _builtin(_STABILIZE_BUILTINS, spec, args.spec)[0]
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
    return spec, results, None


def cmd_lq(args):
    spec = _load_spec(args.spec, {"lq"})
    path = args.spec
    sys_ = _lti(spec, path)
    W, U, Q, x0 = (_matrix(spec, k, path) for k in ("W", "U", "Q", "x0"))
    prob = _construct(path, LqProblem, sys_, W, U, Q, _number(spec, "T", path, 1.0))
    x0 = x0.reshape(-1)
    if x0.shape != (prob.sys.n,):
        raise SchemaError(f"{path}: x0 must have {prob.sys.n} entries, got {x0.size}")
    sol = riccati_solve(prob, args.steps)
    law = lq_feedback(sol, prob)
    cost, traj, controls = lq_cost(prob, law, x0, args.steps)
    results = {
        "E0": sol.E[0],
        "closed_loop_cost": cost,
        "value_identity": float(x0 @ (-sol.E[0]) @ x0),
        "diagnostics": {"steps_integrated": len(traj.times) - 1},
    }
    return spec, results, (traj.times, traj.states, controls)


_OC_BUILDERS = {
    "zermelo": (lambda **p: problems.zermelo_min_drift(**p), {"v": 1.0, "ell": 1.0}),
    "brachistochrone": (lambda **p: problems.brachistochrone_free_y(**p), {"x1": 1.0, "g": 9.81}),
    "double-integrator-min-time": (
        lambda **p: problems.double_integrator_min_time(**p), {"x0": [1.0, 0.0]}
    ),
}


def cmd_shoot(args):
    spec = _load_spec(args.spec, {"oc-problem"})
    prob = _builtin(_OC_BUILDERS, spec, args.spec)[0]
    # p(0), then t_f when the horizon is free.
    entries = prob.dimension + (prob.horizon is None)
    guess = _vector(spec, "guess", args.spec, None, range(entries, entries + 1))
    ext = pmp_shoot(prob, guess, steps=args.steps, tol=args.tol)
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
    return spec, results, (ext.state.times, ext.state.states, ext.control, ext.adjoint.states)


def _check_grid(path, steps, width) -> None:
    """Refuse a time grid of `steps` steps and `width` values per node: one array holds <= 1e7 values."""
    if (steps + 1) * width > 1e7:
        raise SchemaError(f"{path}: the task needs a grid of {steps + 1:.0f} x {width} values, more than 1e7")


def _wave_hum(spec, path, basis, args):
    N = basis.N
    T = _number(spec, "T", path, 2.0 * basis.L, "positive")
    e1, zero = [1.0] + [0.0] * (N - 1), [0.0] * N
    a0, b0, a1, b1 = (
        _vector(spec, key, path, default, range(N, N + 1))
        for key, default in (("y0_a", e1), ("y0_b", zero), ("y1_a", zero), ("y1_b", zero))
    )
    force = spec.get("force", False)
    if not isinstance(force, bool):
        raise SchemaError(f"{path}: field 'force' must be true or false")
    _check_grid(path, args.steps, 2 * N)
    res = hum_wave_boundary(basis, WaveState(a0, b0), WaveState(a1, b1), T, args.steps, force)
    return {
        "endpoint_error": res.endpoint_error,
        "condition_number": res.condition_number,
        "cost": res.cost,
        "control_l2_sq": res.control_l2_sq,
        "diagnostics": {"steps_integrated": len(res.times) - 1},
    }, (res.times, res.control.reshape(-1, 1))


def _moment(spec, path, basis, args):
    L, N = basis.L, basis.N
    if abs(L - np.pi) > 1e-12:
        raise SchemaError(f"{path}: the moment task needs L = pi, got {L}")
    T = _number(spec, "T", path, 1.0, "positive")
    omega = _intervals(spec, path, [[0.0, L / 2.0]])
    if omega.measure <= 0.0:
        raise SchemaError(f"{path}: field 'omega' must have positive measure")
    y0 = _vector(spec, "y0", path, [1.0] + [0.0] * (N - 1), range(N, 1001))
    res = moment_heat_control(basis, omega, y0, T, N)
    return {
        "final_modes": res.final_modes,
        "max_final": res.max_final,
        "denominators": res.denominators,
    }, None


def _damping(spec, path, basis, args):
    T = _number(spec, "T", path, 10.0, "positive")
    omega = _intervals(spec, path, None) if spec.get("omega") else None
    _check_grid(path, args.steps, 2 * basis.N)
    res = damping_decay_experiment(basis, omega, T, samples=args.steps)
    return {
        "delta": res.delta,
        "C1": res.C1,
        "observability_value": res.observability_value,
    }, (res.times, res.energy.reshape(-1, 1))


def _semilinear(spec, path, basis, args):
    L, N = basis.L, basis.N
    c = _number(spec, "c", path, 12.0)
    if c * L * L > (N * np.pi) ** 2:
        raise SchemaError(f"{path}: c = {c} makes all N = {N} simulated modes unstable")
    T_sim = _number(spec, "T_sim", path, 10.0, "positive")
    _check_grid(path, _construct(path, semilinear_steps, L, N, T_sim, args.steps), N + 1)
    n, gamma = _number(spec, "n", path, None, "whole"), _number(spec, "gamma", path, None)
    plant = _construct(path, problems.semilinear_heat, L=L, c=c, n=n, N_sim=N, gamma=gamma)
    y0 = _vector(spec, "y0", path, [0.01], range(N + 1))
    res = semilinear_stabilize(plant, y0, T_sim, args.steps)
    return {
        "K": res.K,
        "final_u": float(res.u[-1]),
        "final_z_norm": float(np.linalg.norm(res.z[-1])),
        "V_monotone": bool(np.all(np.diff(res.V) <= 1e-9 * max(1.0, res.V[0]))),
        "diagnostics": {"steps_integrated": len(res.times) - 1},
    }, (res.times, np.column_stack([res.u, res.z]), res.v.reshape(-1, 1))


# pde task -> (its fields, handler(spec, path, basis, args) -> (results, CSV columns or None)).
_PDE_TASKS = {
    "wave-hum": ({"T", "y0_a", "y0_b", "y1_a", "y1_b", "force"}, _wave_hum),
    "moment": ({"T", "omega", "y0"}, _moment),
    "damping": ({"T", "omega"}, _damping),
    "semilinear": ({"c", "T_sim", "n", "gamma", "y0"}, _semilinear),
}


def cmd_pde(args):
    spec = _load_spec(args.spec, {"spectral-1d"})
    path = args.spec
    L = _number(spec, "L", path, 1.0)
    N = _number(spec, "N", path, 8, "whole")
    if N > 1000:  # bounds the N x N matrices; _check_grid bounds the time grids
        raise SchemaError(f"{path}: field 'N' must be at most 1000, got {N}")
    basis = _construct(path, SineBasis, L, N)
    results, columns = _PDE_TASKS[spec["task"]][1](spec, path, basis, args)
    return spec, {"task": spec["task"], **results}, columns


def _intervals(spec, path, default) -> IntervalUnion:
    return _construct(path, IntervalUnion, _matrix(spec, "omega", path, default).tolist())


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _traj_csv(times, states, *extra) -> str:
    M = np.column_stack([times, states, *extra])
    k = np.shape(states)[1]
    header = ["t"] + [f"x{i + 1}" for i in range(k)] + [f"c{i + 1}" for i in range(M.shape[1] - 1 - k)]
    rows = (",".join(f"{v:.17g}" for v in row) for row in M)
    return "\n".join([",".join(header), *rows]) + "\n"


def _emit(args, spec: dict, results: dict, columns, diagnostics=None) -> None:
    """Write the report of `results`, or with --format csv the `_traj_csv` of `columns` if any.

    The report's diagnostics echo --tol and --steps, plus any `diagnostics` of the command.
    """
    if columns is not None and not all(np.isfinite(c).all() for c in columns):
        raise NonFiniteResult("the trajectory has non-finite values")
    csv = _traj_csv(*columns) if columns is not None and args.format == "csv" else None
    report = {
        "command": args.cmd,
        "tool_version": __version__,
        "input_digest": spec["_digest"],
        "diagnostics": {"tol": args.tol, "steps": args.steps, **(diagnostics or {})},
        "results": results,
    }
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False, default=_json_default)
    except ValueError:  # strict JSON has no Infinity or NaN
        raise NonFiniteResult("the report has non-finite numbers")
    text += "\n"
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
        sys.stdout.write(text if csv is None else csv)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first `main` call and kept for the process."""
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
    if not 1 <= args.steps <= 10**6:
        raise SchemaError(f"--steps must lie in [1, 10**6], got {args.steps}")
    if not 0.0 < args.tol < 1.0:
        raise SchemaError(f"--tol must lie in (0, 1), got {args.tol}")
    if args.cmd == "analyze":
        if args.T is not None and not 0.0 < args.T < np.inf:
            raise SchemaError(f"--T must be positive and finite, got {args.T}")
        if not np.isfinite(args.t):
            raise SchemaError(f"--t must be finite, got {args.t}")
        if not 1 <= args.depth <= _CHEB_DEG:
            raise SchemaError(f"--depth must be >= 1 and <= {_CHEB_DEG}, got {args.depth}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error (code 2) or --help (0)
        return exc.code
    t0 = time.perf_counter()
    try:
        _check_flags(args)
        _emit(args, *args.fn(args))
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
