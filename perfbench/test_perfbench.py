"""Self-test of the benchmark's own arithmetic, on synthetic spans and items.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import stats  # noqa: E402
from tracer import HOT, Tracer, layer_metrics, self_times  # noqa: E402


def rec(name, parent, start, end, calls=1, total=None, info=None):
    return [name, parent, "item", start, end, calls, end - start if total is None else total, info]


def test_self_time_subtracts_direct_children_only():
    records = [
        rec("cli.main", -1, 0.0, 10.0),
        rec("lincontrol.gramian", 0, 1.0, 5.0),
        rec("numcore.rk4_step", 1, 1.5, 4.5, calls=100, total=2.5),
        rec("problems.callback", 2, 1.6, 4.4, calls=400, total=1.0),
        rec("stabilize.pole_place", 0, 6.0, 7.0),
    ]
    assert self_times(records) == pytest.approx([5.0, 1.5, 1.5, 1.0, 1.0])
    m = layer_metrics(records)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["lincontrol.self_s"] == pytest.approx(1.5)
    assert m["numcore.self_s"] == pytest.approx(1.5)
    assert m["problems.self_s"] == pytest.approx(1.0)
    assert m["numcore.rk4_step.calls"] == 100
    assert m["lincontrol.gramian.s"] == pytest.approx(4.0)
    layers = ("cli", "lincontrol", "numcore", "problems", "stabilize")
    assert sum(m[layer + ".self_s"] for layer in layers) == pytest.approx(10.0)


def test_shoot_sweeps_count_rk4_calls_under_each_shoot():
    records = [
        rec("optctrl.pmp_shoot", -1, 0.0, 4.0, info={"steps": 100, "newton_iters": 2}),
        rec("numcore.rk4_step", 0, 0.0, 4.0, calls=2200, total=3.0),
        rec("optctrl.pmp_shoot", -1, 4.0, 8.0, info={"steps": 200, "newton_iters": 1}),
        rec("numcore.rk4_step", 2, 4.0, 8.0, calls=5800, total=3.0),
        rec("numcore.rk4_step", -1, 8.0, 9.0, calls=999, total=1.0),
    ]
    m = layer_metrics(records)
    assert m["optctrl.shoot_sweeps"] == pytest.approx(22.0 + 29.0)
    assert m["optctrl.newton_iters"] == 3
    assert m["optctrl.sweeps_per_newton"] == pytest.approx(51.0 / 3)


def test_wrappers_nest_spans_and_merge_hot_calls():
    tracer = Tracer()
    leaf = tracer.wrap("numcore.rk4_step", lambda x: x + 1)
    assert "numcore.rk4_step" in HOT

    def outer(n):
        return sum(leaf(i) for i in range(n))

    outer = tracer.wrap("lincontrol.gramian", outer)
    tracer.item = "a"
    assert outer(5) == 15 and outer(3) == 6
    names = [(r[0], r[1], r[5]) for r in tracer.records]
    assert names == [
        ("lincontrol.gramian", -1, 1),
        ("numcore.rk4_step", 0, 5),
        ("lincontrol.gramian", -1, 1),
        ("numcore.rk4_step", 2, 3),
    ]
    assert all(r[2] == "a" for r in tracer.records)


def _report(tf):
    return {
        "converged": True,
        "tf": tf,
        "diagnostics": {"hamiltonian_deviation": 0.0, "free_time_residual": 0.0},
    }


def test_wrong_reference_counts_as_failure_and_is_not_retried():
    calls = []

    def item(tf_ref):
        def run():
            calls.append(tf_ref)
            return child._check_shoot(_report(2.0), tf_ref), "digest", None

        return run

    def raises():
        raise RuntimeError("boom")

    items = {"right": item(2.0), "wrong": item(2.5), "raises": raises}
    run = child.Run(items, random.Random(0))
    run.one_pass()
    assert sorted(calls) == [2.0, 2.5]
    assert run.failed_items == {"wrong", "raises"}
    assert stats.fail_frac(run.outcomes) == pytest.approx(2 / 3)


def test_tts_takes_the_first_rung_that_meets_its_target():
    assert stats.first_rung_time([(0.1, False), (0.2, True), (0.4, True)]) == 0.2
    assert stats.first_rung_time([(0.1, False), (0.2, False)]) is None

    def ladder(rungs):
        return lambda: (True, "d", rungs)

    items = {
        "lq": ladder([(250, 0.1, 1e-6, False), (500, 0.2, 1e-8, True)]),
        "lti": ladder([(250, 0.3, 1e-13, True), (500, 0.6, 1e-13, True)]),
    }
    pass_s, tts_s, rungs = child.Run(items, random.Random(0)).one_pass()
    assert tts_s == pytest.approx(0.2 + 0.3)
    assert set(rungs) == {"lq", "lti"}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(list(range(10))) == (None, None)
    assert stats.tail_percentile(list(range(20))) == (50, 9)
    assert stats.tail_percentile(list(range(100))) == (90, 89)
