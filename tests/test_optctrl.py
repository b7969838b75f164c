"""Tests for Riccati LQ synthesis and PMP indirect shooting."""

import dataclasses
import math
import time

import numpy as np
import pytest

import ctrlkit as ck
from ctrlkit import LtiSystem
from ctrlkit import optctrl
from ctrlkit.numcore import DenseOutput, rk4_step, rk4_sweep
from ctrlkit.optctrl import LqProblem
from ctrlkit import problems as pr

from conftest import di_min_time_oracle


def scalar_lq():
    sys = LtiSystem(np.array([[0.0]]), np.array([[1.0]]))
    return LqProblem(
        sys=sys,
        W=np.array([[1.0]]),
        U=np.array([[1.0]]),
        Q=np.array([[0.0]]),
        T=2.0,
    )


class TestRiccati:
    def test_scalar_tanh(self):
        p = scalar_lq()
        sol = ck.riccati_solve(p, steps=2000)
        ts = np.linspace(0.0, 2.0, 2001)
        exact = -np.tanh(2.0 - ts)
        got = np.array([sol.at(t)[0, 0] for t in ts])
        assert np.max(np.abs(got - exact)) < 1e-8

    def test_closed_loop_cost_is_fourth_order(self):
        # Hermite dense output of E keeps the RK4 order of the sweep; linear
        # interpolation at the half-steps gave order 2.
        p = scalar_lq()
        errs = []
        for steps in (50, 100, 200):
            sol = ck.riccati_solve(p, steps)
            cost, _, _ = ck.lq_cost(p, ck.lq_feedback(sol, p), np.array([1.0]), steps)
            errs.append(abs(cost - math.tanh(2.0)))
        assert min(errs) > 1e-11  # well above roundoff
        for coarse, fine in zip(errs, errs[1:]):
            assert math.log2(coarse / fine) >= 3.5

    def test_two_state_cost_equals_value_at_fourth_order(self):
        # The double integrator exercises the m x n batched gain.
        p = LqProblem(pr.double_integrator(), np.eye(2), np.eye(1), np.eye(2), 1.0)
        x0 = np.array([1.0, 0.0])
        errs = []
        for steps in (50, 100, 200, 2000):
            sol = ck.riccati_solve(p, steps)
            cost, traj, controls = ck.lq_cost(p, ck.lq_feedback(sol, p), x0, steps)
            errs.append(abs(cost - float(x0 @ (-sol.E[0]) @ x0)))
        assert traj.states.shape == (2001, 2) and controls.shape == (2001, 1)
        assert errs[-1] < 1e-6
        assert min(errs[:-1]) > 1e-11
        for coarse, fine in zip(errs[:-1], errs[1:-1]):
            assert math.log2(coarse / fine) >= 3.5

    def test_cost_needs_the_lq_feedback(self):
        p = scalar_lq()
        with pytest.raises(TypeError):
            ck.lq_cost(p, lambda t, x: -x, np.array([1.0]), 200)

    def test_cost_grid_must_lie_in_the_riccati_grid(self):
        p = scalar_lq()
        sol = ck.riccati_solve(dataclasses.replace(p, T=1.0), 200)
        law = ck.lq_feedback(sol, p)
        for call in (
            lambda: ck.lq_cost(p, law, np.array([1.0]), 200),
            lambda: law(1.5, np.array([1.0])),
            lambda: law.gain(np.array([0.5, 1.0 + 2e-9])),
        ):
            with pytest.raises(ValueError, match="outside the Riccati grid"):
                call()
        assert np.array_equal(law.gain(sol.grid), sol.E)  # K = E here, node for node

    def test_between_nodes_hermite_beats_linear(self):
        sol = ck.riccati_solve(scalar_lq(), steps=200)
        linear = DenseOutput(sol.grid, sol.E)
        g = sol.grid
        t = 0.5 * (g[7] + g[8])
        # Between nodes Hermite keeps the 1e-10 node error of the sweep.
        assert abs(sol.at(t)[0, 0] + math.tanh(2.0 - t)) < 1e-9
        assert abs(linear(t)[0, 0] + math.tanh(2.0 - t)) > 1e-7

    def test_cost_equals_value(self):
        p = scalar_lq()
        sol = ck.riccati_solve(p, steps=2000)
        law = ck.lq_feedback(sol, p)
        x0 = np.array([1.0])
        cost, _, _ = ck.lq_cost(p, law, x0, steps=2000)
        value = float(x0 @ (-sol.at(0.0)) @ x0)
        assert abs(cost - value) < 1e-6

    def test_beats_random_open_loop(self):
        p = scalar_lq()
        sol = ck.riccati_solve(p, steps=2000)
        law = ck.lq_feedback(sol, p)
        cost_cl, _, _ = ck.lq_cost(p, law, np.array([1.0]), steps=2000)
        rng = np.random.default_rng(0)
        steps, nseg = 2000, 40
        h = p.T / steps
        seg = np.minimum(
            (np.arange(steps) / steps * nseg).astype(int), nseg - 1
        )
        best = math.inf
        for _ in range(1000):
            amps = rng.normal(-0.5, 0.7, nseg)
            u = amps[seg]
            x = np.concatenate([[1.0], 1.0 + np.cumsum(u) * h])
            best = min(best, float(np.sum(x[:-1] ** 2 + u**2) * h))
        assert cost_cl < best

    def test_blowup_detection(self):
        # negative state weight can drive the Riccati solution to blow up
        sys = LtiSystem(np.array([[0.0]]), np.array([[1.0]]))
        p = LqProblem(
            sys=sys,
            W=np.array([[-10.0]]),
            U=np.array([[1.0]]),
            Q=np.array([[0.0]]),
            T=10.0,
        )
        with pytest.raises(ck.RiccatiBlowup) as info:
            ck.riccati_solve(p, steps=2000)
        # E(t) = -sqrt(10) tan(sqrt(10) (T - t)) has its pole at T - pi / (2 sqrt(10)).
        pole = 10.0 - math.pi / (2.0 * math.sqrt(10.0))
        assert abs(info.value.time - pole) <= 10.0 / 2000

    def test_moebius_step_is_exact(self):
        # The propagator steps the flow exactly: rounding error only, 10 steps.
        sol = ck.riccati_solve(scalar_lq(), steps=10)
        assert np.max(np.abs(sol.E[:, 0, 0] + np.tanh(2.0 - sol.grid))) <= 1e-13

    @pytest.mark.parametrize(
        "field, value",
        [
            ("W", np.eye(2)),
            ("Q", np.ones((1, 2))),
            ("U", np.eye(2)),
            ("U", np.array([[0.0]])),
            ("U", np.array([[-1.0]])),
            ("U", np.array([[np.nan]])),
            ("T", -1.0),
            ("T", 0.0),
            ("T", math.inf),
        ],
    )
    def test_problem_data_are_validated(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(scalar_lq(), **{field: value})

    def test_nonsymmetric_u_is_rejected(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            LqProblem(sys, np.eye(2), np.array([[2.0, 1.0], [0.0, 2.0]]), np.zeros((2, 2)), 1.0)


class TestBrachistochrone:
    def test_final_time(self):
        t0 = time.time()
        p = pr.brachistochrone_free_y(1.0, 9.81)
        e = ck.pmp_shoot(p, np.array([0.3, 0.1, 0.7]))
        elapsed = time.time() - t0
        assert e.converged
        ref = math.sqrt(2.0 * math.pi * 1.0 / 9.81)
        assert abs(e.tf - ref) / ref < 1e-4
        assert elapsed < 10.0

    def test_diagnostics(self):
        p = pr.brachistochrone_free_y(1.0, 9.81)
        e = ck.pmp_shoot(p, np.array([0.3, 0.1, 0.7]))
        d = ck.check_extremal(e, p)
        assert d["hamiltonian_deviation"] < 1e-5
        assert abs(e.hamiltonian_samples[-1]) < 1e-6
        assert d["nontriviality"] > 1e-6


class TestZermelo:
    def test_drift_direction_identity(self):
        p = pr.zermelo_min_drift()
        guess = pr.zermelo_shooting_guess(p, delta=1.5e-5)
        e = ck.pmp_shoot(p, guess)
        assert e.converged
        # cos u = -v / c(y) along the path (v = c here, both 1 at y = 0)
        c_of_y = 1.0 + e.state.states[:, 1] ** 2  # default profile c(y) = 1 + y^2
        cos_u = np.cos(e.control[:, 0])
        assert np.max(np.abs(cos_u + 1.0 / c_of_y)) < 1e-4

    def test_diagnostics(self):
        p = pr.zermelo_min_drift()
        e = ck.pmp_shoot(p, pr.zermelo_shooting_guess(p, delta=1.5e-5))
        h = e.hamiltonian_samples
        assert np.max(np.abs(h - h.mean())) < 1e-5
        assert abs(h[-1]) < 1e-6


class TestDoubleIntegratorMinTime:
    def test_bang_bang_one_switch_and_oracle(self):
        x0 = np.array([1.0, 0.0])
        p = pr.double_integrator_min_time(x0)
        e = ck.pmp_shoot(p, np.array([-0.8, -1.2, 1.8]))
        assert e.converged
        u = e.control[:, 0]
        assert np.max(np.abs(np.abs(u) - 1.0)) < 1e-9  # bang-bang
        switches = int(np.sum(np.abs(np.diff(np.sign(u))) > 1.0))
        assert switches <= 1
        oracle = di_min_time_oracle(x0[0], x0[1])
        assert abs(e.tf - oracle) < 1e-4

    def test_closed_form_above_switching_curve(self):
        assert abs(pr.double_integrator_min_time_tf([1.0, 0.0]) - 2.0) < 1e-12
        assert abs(
            pr.double_integrator_min_time_tf([2.0, 1.0])
            - di_min_time_oracle(2.0, 1.0)
        ) < 1e-9

    def test_diagnostics(self):
        p = pr.double_integrator_min_time(np.array([1.0, 0.0]))
        e = ck.pmp_shoot(p, np.array([-0.8, -1.2, 1.8]))
        h = e.hamiltonian_samples
        assert np.max(np.abs(h - h.mean())) < 1e-5
        assert abs(h[-1]) < 1e-6


class TestShootingRobustness:
    def test_bad_guess_reports_not_converged(self):
        p = pr.double_integrator_min_time(np.array([1.0, 0.0]))
        e = ck.pmp_shoot(p, np.array([5.0, 5.0, 0.05]), newton_iters=3)
        assert not e.converged

    def test_residual_history_decreases(self):
        p = pr.brachistochrone_free_y(1.0, 9.81)
        e = ck.pmp_shoot(p, np.array([0.3, 0.1, 0.7]))
        hist = e.residual_history
        assert hist[-1] < hist[0]


# Corpus shooting problems: builder, spec guess, and tf from single-grid
# Newton at 2000 steps with the relative (brachistochrone, di_min_time) or
# absolute (zermelo) tolerance the two-level Newton must stay within.
CORPUS_SHOTS = {
    "brachistochrone": (
        lambda: pr.brachistochrone_free_y(1.0, 9.81),
        [0.3, 0.1, 0.7],
        0.8003048162399719,
        1e-9 * 0.8003048162399719,
    ),
    "di_min_time": (
        lambda: pr.double_integrator_min_time(np.array([1.0, 0.0])),
        [-0.8, -1.2, 1.8],
        1.9999999999990203,
        1e-9 * 1.9999999999990203,
    ),
    "zermelo": (
        pr.zermelo_min_drift,
        [-1.0, 1.5e-05, 8.831888013091884],
        8.831888083243829,
        1e-7,
    ),
}


def _count_grids(monkeypatch):
    """Record the step count of every extremal integration pmp_shoot makes."""
    grids = []
    integrate = optctrl.integrate_extremal

    def counting(p, p_init, tf, steps, p0=-1.0):
        grids.append(steps)
        return integrate(p, p_init, tf, steps, p0)

    monkeypatch.setattr(optctrl, "integrate_extremal", counting)
    return grids


@pytest.fixture(scope="module")
def corpus_shots():
    """Each corpus problem shot at 2000 steps: (extremal, grids integrated)."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, (build, guess, _, _) in CORPUS_SHOTS.items():
            grids = _count_grids(mp)
            out[name] = (ck.pmp_shoot(build(), np.array(guess), steps=2000), grids)
            mp.undo()
    return out


class TestTwoLevelShooting:
    @pytest.mark.parametrize("name", sorted(CORPUS_SHOTS))
    def test_work_at_most_six_fine_sweeps(self, corpus_shots, name):
        e, grids = corpus_shots[name]
        assert e.converged
        assert sum(grids) / 2000 <= 6.0

    @pytest.mark.parametrize("name", sorted(CORPUS_SHOTS))
    def test_tf_matches_single_grid_newton(self, corpus_shots, name):
        e, _ = corpus_shots[name]
        assert abs(e.tf - CORPUS_SHOTS[name][2]) <= CORPUS_SHOTS[name][3]

    @pytest.mark.parametrize("name", sorted(CORPUS_SHOTS))
    def test_history_is_coarse_first_and_ends_on_requested_grid(self, corpus_shots, name):
        e, _ = corpus_shots[name]
        assert len(e.history_steps) == len(e.residual_history)
        assert e.history_steps == sorted(e.history_steps)
        assert set(e.history_steps) <= {250, 2000}
        assert e.history_steps[-1] == 2000
        assert e.residual_history[-1] < 1e-9
        levels = len(set(e.history_steps))
        assert e.newton_iterations == len(e.residual_history) - levels

    def test_guess_meeting_tol_integrates_once(self, monkeypatch):
        grids = _count_grids(monkeypatch)
        guess = np.array(CORPUS_SHOTS["zermelo"][1])
        e = ck.pmp_shoot(pr.zermelo_min_drift(), guess, steps=1000)
        assert e.converged
        assert grids == [1000]
        assert e.history_steps == [1000]
        assert e.newton_iterations == 0
        assert np.array_equal(e.adjoint.states[0], guess[:2])

    @pytest.mark.parametrize("budget, converged", [(1, False), (3, False), (5, True)])
    def test_newton_iters_bounds_both_grids_together(self, budget, converged):
        build, guess, _, _ = CORPUS_SHOTS["brachistochrone"]
        e = ck.pmp_shoot(build(), np.array(guess), steps=2000, newton_iters=budget)
        assert e.newton_iterations == budget
        assert e.converged == converged

    def test_small_grid_still_takes_two_levels(self):
        build, guess, _, _ = CORPUS_SHOTS["brachistochrone"]
        e = ck.pmp_shoot(build(), np.array(guess), steps=200)
        assert e.converged
        assert set(e.history_steps) == {25, 200}

    def test_grid_under_eight_steps_takes_one_level(self):
        build, guess, _, _ = CORPUS_SHOTS["brachistochrone"]
        e = ck.pmp_shoot(build(), np.array(guess), steps=4)
        assert e.converged
        assert set(e.history_steps) == {4}

    def test_abnormal_branch_reports_not_converged(self):
        p = pr.double_integrator_min_time(np.array([1.0, 0.0]))
        e = ck.pmp_shoot(p, np.array([0.6, 0.8, 2.0]), p0=0.0)
        assert e.residual.shape == (4,)
        assert not e.converged
        assert e.p0 == 0.0


def _switch_signs_reference(switching, t, z, n, p0):
    phi = np.atleast_1d(switching(t, z[:n], z[n:], p0))
    s = np.sign(phi)
    s[np.abs(phi) < 1e-12] = 0.0
    return s


def _event_step_reference(rhs, maximizer, switching, t, z, h, n, p0):
    """Event step as first written, on arrays: switching signs evaluated at both ends."""
    remaining = h
    for _ in range(12):
        u0 = np.atleast_1d(np.asarray(maximizer(t, z[:n], z[n:], p0), dtype=float))
        frozen = lambda tt, zz: rhs(tt, zz, u0)
        s0 = _switch_signs_reference(switching, t, z, n, p0)
        z_try = rk4_step(frozen, t, z, remaining)
        s1 = _switch_signs_reference(switching, t + remaining, z_try, n, p0)
        if not np.any(s0 * s1 < 0.0):
            return z_try
        lo, hi = 0.0, remaining
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            z_mid = rk4_step(frozen, t, z, mid)
            if np.any(s0 * _switch_signs_reference(switching, t + mid, z_mid, n, p0) < 0.0):
                hi = mid
            else:
                lo = mid
        step = min(remaining, hi + 1e-10)
        z = rk4_step(frozen, t, z, step)
        t += step
        remaining -= step
        if remaining <= 0.0:
            return z
    return rk4_step(rhs, t, z, remaining)


EVENT_TF, EVENT_STEPS = 1.8, 2000


def _switch_between_step_ends():
    """di_min_time whose switching function 1e5 (t - c) vanishes at c = t_k + h.

    c lies one ulp above the grid time t_{k+1} = h (k + 1), so the signs at
    the end of step k (0) and at the start of step k + 1 (-1) differ, and
    only the latter sees the crossing inside step k + 1.
    """
    p = pr.double_integrator_min_time(np.array([1.0, 0.0]))
    h = EVENT_TF / EVENT_STEPS
    times = h * np.arange(EVENT_STEPS + 1)
    k = next(k for k in range(EVENT_STEPS // 2, EVENT_STEPS) if times[k] + h > times[k + 1])
    c = times[k] + h

    def switching(t, x, pv, p0):
        return np.array([1e5 * (t - c)])

    def maximizer(t, x, pv, p0):
        phi = switching(t, x, pv, p0)
        u = np.sign(phi)
        u[np.abs(phi) < 1e-12] = 0.0
        return u

    maximizer.switching = switching
    maximizer.bang_bang = True
    return dataclasses.replace(p, maximizer=maximizer)


@pytest.mark.parametrize(
    "build",
    [lambda: pr.double_integrator_min_time(np.array([1.0, 0.0])), _switch_between_step_ends],
    ids=["di_min_time", "switch_between_step_ends"],
)
def test_event_location_reuses_signs_bit_for_bit(build):
    p = build()
    p_init, tf, steps = np.array([-0.8, -1.2]), EVENT_TF, EVENT_STEPS
    times, Z = ck.integrate_extremal(p, p_init, tf, steps, -1.0)

    ham = optctrl._ham_rhs(p, -1.0)
    rhs = lambda t, z, u=None: np.array(ham(t, z, u))
    h = tf / steps
    z = np.concatenate([p.x0, p_init])
    ref = [z]
    for k in range(steps):
        z = _event_step_reference(rhs, p.maximizer, p.maximizer.switching, times[k], z, h, 2, -1.0)
        ref.append(z)
    assert np.array_equal(Z, np.array(ref))
    # the guess's extremal crosses the switching curve
    u = np.array([p.maximizer(t, x[:2], x[2:], -1.0)[0] for t, x in zip(times, Z)])
    assert np.any(u[:-1] != u[1:])


@pytest.mark.parametrize("name", ["brachistochrone", "zermelo"])
def test_float_flow_equals_array_rk4_sweep(name):
    # The extremal's flow on lists of floats is numcore's RK4 on arrays, bit for bit.
    build, guess, _, _ = CORPUS_SHOTS[name]
    p = build()
    p_init, tf, steps = np.array(guess[:2]), guess[2], 2000
    times, Z = ck.integrate_extremal(p, p_init, tf, steps, -1.0)
    ham = optctrl._ham_rhs(p, -1.0)
    ref = rk4_sweep(lambda t, z: np.array(ham(t, z)), times, np.concatenate([p.x0, p_init]), tf / steps)
    assert np.array_equal(Z, ref)


@pytest.mark.parametrize(
    "name, tf",
    [("brachistochrone", math.sqrt(2.0 * math.pi / 9.81)), ("di_min_time", 2.0)],
    ids=["brachistochrone", "di_min_time"],
)
def test_finite_difference_hamiltonian_gradient(name, tf):
    # Without hamiltonian_dx, dH/dx comes from central differences of H.
    build, guess, _, _ = CORPUS_SHOTS[name]
    p = dataclasses.replace(build(), hamiltonian_dx=None)
    e = ck.pmp_shoot(p, np.array(guess))
    assert e.converged
    assert abs(e.tf - tf) <= 1e-9 * tf


class TestMaximizers:
    def test_unconstrained_quadratic(self):
        # u = U^-1 B^T p with B = U = 1: u = p
        maximizer = ck.hamiltonian_maximizer_unconstrained(
            np.array([[1.0]]), np.array([[1.0]])
        )
        u = maximizer(0.0, np.zeros(1), np.array([0.7]), -1.0)
        assert abs(u[0] - 0.7) < 1e-6

    def test_box_is_bang_bang(self):
        field = lambda t, x: np.array([1.0])
        maximizer = ck.hamiltonian_maximizer_box(1.0, [field])
        assert maximizer(0.0, np.zeros(1), np.array([2.0]), -1.0)[0] == 1.0
        assert maximizer(0.0, np.zeros(1), np.array([-0.3]), -1.0)[0] == -1.0
        assert maximizer(0.0, np.zeros(1), np.array([0.0]), -1.0)[0] == 0.0

    def test_ball_is_normalized(self):
        fields = [
            lambda t, x: np.array([1.0, 0.0]),
            lambda t, x: np.array([0.0, 1.0]),
        ]
        maximizer = ck.hamiltonian_maximizer_ball(2.0, fields)
        u = maximizer(0.0, np.zeros(2), np.array([3.0, 4.0]), -1.0)
        assert np.allclose(u, np.array([1.2, 1.6]), atol=1e-12)
