"""Per-module timing of ctrlkit from outside the package.

`Tracer.install` replaces each public function of the layer modules with a
timing wrapper at every module that binds it (`from .numcore import
rk4_step` gives optctrl, lincontrol and specpde their own binding, so
patching numcore alone would miss them), plus two hot methods and the
callables that `problems` builders return.  ctrlkit itself is not changed;
`uninstall` restores every binding.

A record is [name, parent, item, start, end, calls, total, info].  Most
boundaries keep one record per call (a span).  Boundaries hit up to millions
of times per pass (HOT) keep one record per calling context instead, with a
call count and summed time.  Either way a record's self time is its total
minus the totals of the records whose parent it is.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

NAME, PARENT, ITEM, START, END, CALLS, TOTAL, INFO = range(8)

LAYERS = ("cli", "numcore", "lincontrol", "stabilize", "optctrl", "specpde", "problems")

HOT = {
    "numcore.rk4_step",
    "numcore.expm",
    "numcore.interp",
    "optctrl.riccati_at",
    "problems.callback",
}


class Tracer:
    def __init__(self):
        self.records = []
        self.item = None
        self._stack = [-1]
        self._contexts = {}
        self._patches = []

    def reset(self):
        """Start a fresh record list (one per pass)."""
        self.records = []
        self._contexts = {}

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, info=None):
        wrapper = self._counted(name, fn) if name in HOT else self._span(name, fn, info)
        return functools.wraps(fn)(wrapper)

    def _span(self, name, fn, info):
        stack = self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1], self.item, 0.0, 0.0, 1, 0.0, None]
            stack.append(len(self.records))
            self.records.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[START], rec[END], rec[TOTAL] = start, end, end - start
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            key = (name, stack[-1])
            idx = self._contexts.get(key)
            start = perf_counter()
            if idx is None:
                idx = self._contexts[key] = len(self.records)
                self.records.append([name, stack[-1], self.item, start, start, 0, 0.0, None])
            rec = self.records[idx]
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[CALLS] += 1
                rec[TOTAL] += end - start
                rec[END] = end

        return wrapper

    def _wrap_returned(self, obj):
        """Count calls into the callables a `problems` builder returns."""
        if callable(obj) and not isinstance(obj, type):
            return self._wrap_callback(obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if callable(value):
                    object.__setattr__(obj, f.name, self._wrap_callback(value))
        return obj

    def _wrap_callback(self, fn):
        wrapped = self.wrap("problems.callback", fn)
        # Bang-bang maximizers carry their switching function as an attribute.
        if callable(getattr(fn, "switching", None)):
            wrapped.switching = self.wrap("problems.callback", fn.switching)
        return wrapped

    # -- patching ---------------------------------------------------------

    def install(self):
        """Patch every binding of the layer modules' public functions."""
        import ctrlkit.cli  # noqa: F401  (loads every layer module)
        from ctrlkit.numcore import Trajectory
        from ctrlkit.optctrl import RiccatiSolution

        mods = [m for k, m in sys.modules.items() if k == "ctrlkit" or k.startswith("ctrlkit.")]
        for layer in LAYERS:
            mod = sys.modules["ctrlkit." + layer]
            for attr in getattr(mod, "__all__", ["main"]):  # cli has no __all__
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn, _INFO.get(f"{layer}.{attr}"))
                if layer == "problems":
                    wrapper = self._returning_wrapped(wrapper)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapper)
        self._patch(Trajectory, "interp", self.wrap("numcore.interp", Trajectory.interp))
        self._patch(RiccatiSolution, "at", self.wrap("optctrl.riccati_at", RiccatiSolution.at))

    def _returning_wrapped(self, builder):
        @functools.wraps(builder)
        def wrapper(*args, **kwargs):
            return self._wrap_returned(builder(*args, **kwargs))

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _shoot_info(args, kwargs, result):
    """Step count and Newton iterations of one pmp_shoot call."""
    steps = kwargs.get("steps", args[2] if len(args) > 2 else 1000)
    return {"steps": steps, "newton_iters": len(result.residual_history) - 1}


_INFO = {"optctrl.pmp_shoot": _shoot_info}


# -- arithmetic over records ------------------------------------------------


def self_times(records):
    """Self time per record: its total minus its direct children's totals."""
    out = [rec[TOTAL] for rec in records]
    for rec in records:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[TOTAL]
    return out


def layer_metrics(records):
    """Per-layer metrics of one pass, keyed by the names in BENCHMARK.json."""
    calls = defaultdict(int)
    seconds = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for rec, own in zip(records, self_times(records)):
        calls[rec[NAME]] += rec[CALLS]
        seconds[rec[NAME]] += rec[TOTAL]
        layer_self[rec[NAME].split(".")[0]] += own

    # Sweeps: rk4_step calls under each pmp_shoot call over its step count.
    def shoot_of(idx):
        while idx >= 0 and records[idx][NAME] != "optctrl.pmp_shoot":
            idx = records[idx][PARENT]
        return idx

    rk4_in_shoot = defaultdict(int)
    for r in records:
        if r[NAME] == "numcore.rk4_step":
            rk4_in_shoot[shoot_of(r[PARENT])] += r[CALLS]
    sweeps = newton = 0
    for idx, r in enumerate(records):
        if r[NAME] == "optctrl.pmp_shoot":
            sweeps += rk4_in_shoot[idx] / r[INFO]["steps"]
            newton += r[INFO]["newton_iters"]

    m = {}
    for name in ("numcore.rk4_step", "numcore.expm", "numcore.interp", "lincontrol.gramian"):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = seconds[name]
    for name in (
        "lincontrol.hum_control_finite",
        "lincontrol.ltv_kalman_test",
        "stabilize.pole_place",
        "stabilize.linearize",
        "optctrl.pmp_shoot",
        "optctrl.check_extremal",
        "optctrl.riccati_solve",
        "optctrl.lq_cost",
        "specpde.hum_wave_boundary",
        "specpde.biorthogonal_family",
        "specpde.moment_heat_control",
        "specpde.damping_decay_experiment",
        "specpde.semilinear_stabilize",
        "cli.main",
    ):
        m[name + ".s"] = seconds[name]
    m["optctrl.riccati_at.calls"] = calls["optctrl.riccati_at"]
    m["problems.callback.calls"] = calls["problems.callback"]
    m["optctrl.newton_iters"] = newton
    m["optctrl.shoot_sweeps"] = sweeps
    m["optctrl.sweeps_per_newton"] = sweeps / newton if newton else 0.0
    for layer, own in layer_self.items():
        m[layer + ".self_s"] = own
    return m
