"""One workload, run in its own interpreter by run.py.

Runs passes over the workload's items until the time budget is spent, checks
every item's output, and prints one JSON object on the last line of stdout.
The seed only shuffles item order within a pass; ctrlkit sees nothing but
the corpus spec files, CLI flags and library arguments.

Usage (from the repository root, with PYTHONPATH=src):
    python perfbench/child.py --workload linear --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np
from ctrlkit import cli, lincontrol, optctrl, problems
from ctrlkit.lincontrol import LtiSystem

import stats
from tracer import Tracer, layer_metrics

SPECS = "specs"
LADDER = (250, 500, 1000, 2000)

# ---------------------------------------------------------------------------
# Correctness checks on CLI reports: the published acceptance tolerances, and
# for analyze the exact discrete outcomes (ranks, flags, Gramian
# invertibility) of the code this benchmark was defined on.
# ---------------------------------------------------------------------------


def _discrete(x, path=""):
    """Every bool and int leaf of a report, keyed by its dotted path."""
    out = {}
    if isinstance(x, dict):
        for k, v in x.items():
            out.update(_discrete(v, f"{path}.{k}" if path else k))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            out.update(_discrete(v, f"{path}.{i}"))
    elif isinstance(x, (bool, int)):
        out[path] = x
    return out


def _lti_outcome(rank, eigs):
    out = {
        "controllable_subspace_dim": rank,
        "hautus.controllable": True,
        "kalman.controllable": True,
        "kalman.rank": rank,
    }
    out.update({f"hautus.per_eigenvalue.{i}.rank": rank for i in range(eigs)})
    return out


def _ltv_outcome(rank, ok, invertible=None):
    out = {"ltv_kalman.depth": 3, "ltv_kalman.rank": rank, "ltv_kalman.satisfied": ok}
    if invertible is not None:
        out["gramian.invertible"] = invertible
    return out


_ANALYZE = {
    "rlc.json": _lti_outcome(2, 2),
    "double_integrator.json": _lti_outcome(2, 2),
    "coupled_springs.json": _lti_outcome(4, 4),
    "maxwell_bloch_f2.json": _lti_outcome(3, 3),
    "heisenberg.json": {"larc.rank": 3, "larc.satisfied": True},
    "dubins.json": _ltv_outcome(3, True, True),
    "rotating_frame.json": _ltv_outcome(1, False, False),
    "triangular_ltv.json": _ltv_outcome(3, True),
}


# Closed-form minimal time from x0 = (1, 0), computed before any tracing.
DI_MIN_TIME_TF = problems.double_integrator_min_time_tf([1.0, 0.0])


def _check_shoot(r, tf_ref):
    d = r["diagnostics"]
    ok = r["converged"] and d["hamiltonian_deviation"] < 1e-5 and d["free_time_residual"] < 1e-6
    if tf_ref is not None:
        ok = ok and abs(r["tf"] - tf_ref) / tf_ref < 1e-4
    return ok


def _check_pendulum(r):
    eigs = [complex(e["re"], e["im"]) for e in r["closed_loop_eigenvalues"]]
    return len(eigs) == 4 and max(abs(e + 1.0) for e in eigs) < 1e-3


# Spec file -> check on the report's "results".
CHECKS = {
    **{spec: (lambda r, want=want: _discrete(r) == want) for spec, want in _ANALYZE.items()},
    "pendulum.json": _check_pendulum,
    "scalar_lq.json": lambda r: abs(r["E0"][0][0] + math.tanh(2.0)) < 1e-8,
    "brachistochrone.json": lambda r: _check_shoot(r, math.sqrt(2.0 * math.pi / 9.81)),
    "zermelo.json": lambda r: _check_shoot(r, None),
    "di_min_time.json": lambda r: _check_shoot(r, DI_MIN_TIME_TF),
    "wave_hum.json": lambda r: r["endpoint_error"] < 1e-6,
    "moment_heat.json": lambda r: r["max_final"] < 1e-6,
    "damping.json": lambda r: r["delta"] > 0.0,
    "semilinear.json": lambda r: r["V_monotone"] is True,
}


# ---------------------------------------------------------------------------
# Items.  Each returns (ok, digest, rungs); rungs is a list of
# (steps, seconds, error, met) for converge items and None otherwise.
# ---------------------------------------------------------------------------


def cli_item(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        args = [argv[0], os.path.join(SPECS, argv[1])] + argv[2:]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        text = out.getvalue()
        if code != 0:
            sys.stderr.write(f"{argv} exited with {code}: {err.getvalue()}")
            return False, None, None
        ok = CHECKS[argv[1]](json.loads(text)["results"])
        return ok, hashlib.sha256(text.encode()).hexdigest(), None

    return run


def _lq(steps):
    p = optctrl.LqProblem(
        sys=LtiSystem(np.zeros((1, 1)), np.ones((1, 1))),
        W=np.eye(1),
        U=np.eye(1),
        Q=np.zeros((1, 1)),
        T=2.0,
    )
    sol = optctrl.riccati_solve(p, steps)
    law = optctrl.lq_feedback(sol, p)
    cost, _, _ = optctrl.lq_cost(p, law, np.array([1.0]), steps)
    err = abs(cost - math.tanh(2.0))
    return err, err <= 5e-8, (cost,)


def _hum_lti(steps):
    res = lincontrol.hum_control_finite(
        problems.double_integrator(), 1.0, np.zeros(2), np.array([1.0, 0.0]), steps
    )
    u_err = float(np.max(np.abs(res.samples[:, 0] - (6.0 - 12.0 * res.times))))
    met = res.endpoint_error <= 1e-6 and u_err <= 1e-6 and abs(res.cost - 12.0) <= 1e-8
    return res.endpoint_error, met, (res.cost, res.endpoint_error)


def _hum_ltv(steps):
    T = 2.0 * math.pi
    res = lincontrol.hum_control_finite(
        problems.dubins_linearized(T), T, np.zeros(3), np.array([1.0, 0.0, 0.0]), steps
    )
    return res.endpoint_error, res.endpoint_error <= 1e-6, (res.cost, res.endpoint_error)


def ladder_item(solve):
    def run():
        rungs, values = [], []
        for steps in LADDER:
            start = perf_counter()
            err, met, vals = solve(steps)
            rungs.append((steps, perf_counter() - start, err, bool(met)))
            values.append(vals)
        ok = stats.first_rung_time([(s, met) for _, s, _, met in rungs]) is not None
        return ok, hashlib.sha256(repr(values).encode()).hexdigest(), rungs

    return run


# The corpus specs and flags of CLI_CORPUS in tests/test_acceptance.py.
CORPUS = {
    "shoot": [
        ["shoot", "brachistochrone.json"],
        ["shoot", "zermelo.json"],
        ["shoot", "di_min_time.json"],
    ],
    "linear": [
        ["analyze", "rlc.json"],
        ["analyze", "double_integrator.json"],
        ["analyze", "coupled_springs.json"],
        ["analyze", "maxwell_bloch_f2.json"],
        ["analyze", "heisenberg.json"],
        ["analyze", "dubins.json", "--T=6.283185307179586"],
        ["analyze", "rotating_frame.json", "--T=1.0"],
        ["analyze", "triangular_ltv.json", "--t=1.0"],
        ["stabilize", "pendulum.json", "--poles=-1,-1,-1,-1"],
        ["lq", "scalar_lq.json"],
    ],
    "pde": [
        ["pde", "wave_hum.json"],
        ["pde", "moment_heat.json"],
        ["pde", "damping.json"],
        ["pde", "semilinear.json"],
    ],
}

CONVERGE = {"lq": _lq, "hum_lti": _hum_lti, "hum_ltv": _hum_ltv}


def items_for(workload):
    if workload == "converge":
        return {name: ladder_item(solve) for name, solve in CONVERGE.items()}
    return {f"{a[0]}:{a[1]}": cli_item(a) for a in CORPUS[workload]}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Run:
    """Outcomes, timings and report digests of every pass in one process."""

    def __init__(self, items, rng):
        self.items = items
        self.rng = rng
        self.outcomes = []
        self.digests = {name: set() for name in items}
        self.failed_items = set()
        self.trace_log = []

    def one_pass(self, tracer=None):
        """Run every item once in seeded order; returns (pass_s, tts_s, rungs)."""
        order = sorted(self.items)
        self.rng.shuffle(order)
        pass_s = tts_s = 0.0
        rungs = {}
        for name in order:
            if tracer is not None:
                tracer.item = name
            start = perf_counter()
            try:
                ok, digest, item_rungs = self.items[name]()
            except Exception:  # an item that raises is a failed item
                print(f"item {name} raised:", file=sys.stderr)
                traceback.print_exc()
                ok, digest, item_rungs = False, None, None
            seconds = perf_counter() - start
            pass_s += seconds
            if item_rungs is None:
                tts_s += seconds
            else:
                rungs[name] = item_rungs
                first = stats.first_rung_time([(s, met) for _, s, _, met in item_rungs])
                tts_s += first if first is not None else seconds
            self.outcomes.append(ok)
            if not ok:
                self.failed_items.add(name)
            self.digests[name].add(digest)
        return pass_s, tts_s, rungs

    def passes(self, seconds, minimum, tracer=None):
        """Timed passes until `seconds` have elapsed (at least `minimum`).

        Each pass gives (pass_s, tts_s, rungs, layer metrics or None).
        """
        out = []
        start = perf_counter()
        while len(out) < minimum or perf_counter() - start < seconds:
            if tracer is None:
                out.append(self.one_pass() + (None,))
                continue
            tracer.reset()
            timing = self.one_pass(tracer)
            self.trace_log.append(tracer.records)
            out.append(timing + (layer_metrics(tracer.records),))
        return out


def _converge_rows(passes):
    """converge.<p>.err.<steps> and converge.<p>.s.<steps> (median seconds)."""
    rows = {}
    for p in CONVERGE:
        for i, steps in enumerate(LADDER):
            rungs = [r[2][p][i] for r in passes if p in r[2]]
            rows[f"converge.{p}.err.{steps}"] = rungs[0][2] if rungs else 0.0
            rows[f"converge.{p}.s.{steps}"] = statistics.median([r[1] for r in rungs]) if rungs else 0.0
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["shoot", "linear", "pde", "converge"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-out", default=None, help="JSON-lines file for the trace records")
    args = ap.parse_args()

    run = Run(items_for(args.workload), random.Random(args.seed))
    run.one_pass()  # warm-up: first-call costs and lazy imports, not timed
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run.passes(budget, minimum=2 if args.trace else 3)
    result = {
        "passes": [[p[0], p[1]] for p in plain],
        "pass_s": statistics.median([p[0] for p in plain]),
        "tts_s": statistics.median([p[1] for p in plain]),
        "converge_rows": _converge_rows(plain),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.passes(budget, minimum=2, tracer=tracer)
        finally:
            tracer.uninstall()
        names = traced[0][3].keys()
        layer = {k: statistics.median([p[3][k] for p in traced]) for k in names}
        traced_s = statistics.median([p[0] for p in traced])
        layer["trace.overhead_s"] = traced_s - result["pass_s"]
        result["traced_passes"] = [p[0] for p in traced]
        result["layer"] = layer
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                for i, records in enumerate(run.trace_log):
                    for rec in records:
                        fh.write(json.dumps([i] + rec) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = len(run.outcomes)
    result["failed"] = sum(1 for ok in run.outcomes if not ok)
    result["fail_frac"] = stats.fail_frac(run.outcomes)
    result["failed_items"] = sorted(run.failed_items)
    result["digests"] = {k: sorted(d for d in v if d) for k, v in run.digests.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
