"""Tests for Riccati LQ synthesis and PMP indirect shooting."""

import collections
import dataclasses
import math
import time

import numpy as np
import pytest

import ctrlkit as ck
from ctrlkit import LtiSystem
from ctrlkit import optctrl
from ctrlkit.numcore import DenseOutput, Grid, IntegrationBlowup, rk4_step, rk4_sweep
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

    def test_scalar_nodes_to_rounding(self):
        # Blocks of 256 nodes from one anchor each; a node-by-node sweep reads 5.6e-15.
        sol = ck.riccati_solve(scalar_lq(), steps=2000)
        assert np.max(np.abs(sol.E[:, 0, 0] + np.tanh(2.0 - sol.grid))) <= 2e-15

    def test_double_integrator_matches_a_40_digit_reference(self):
        # E = Y X^-1 for (X, Y) = expm((t - T) M) (I, -Q) in 40-digit arithmetic.
        import mpmath as mp

        p = LqProblem(pr.double_integrator(), np.eye(2), np.eye(1), np.eye(2), 1.0)
        sol = ck.riccati_solve(p, steps=2000)
        A, B = p.sys.A, p.sys.B
        M = np.block([[A, B @ np.linalg.solve(p.U, B.T)], [p.W, -A.T]])
        with mp.workdps(40):
            M, end = mp.matrix(M.tolist()), mp.matrix(np.vstack([np.eye(2), -p.Q]).tolist())
            errors = []
            for k in range(0, 2001, 100):
                XY = mp.expm((mp.mpf(sol.grid[k]) - mp.mpf(p.T)) * M) * end
                ref = XY[2:4, 0:2] * XY[0:2, 0:2] ** -1
                ref = np.array(ref.tolist(), dtype=float)
                errors.append(np.linalg.norm(sol.E[k] - ref) / np.linalg.norm(ref))
        assert max(errors) <= 1e-14  # a node-by-node sweep reads 1.6e-13

    @pytest.mark.parametrize("q", [0.5, 1.5, 128.5, 255.5, 256.5, 384.5, 511.5, 300.3])
    def test_blowup_at_the_last_node_before_the_pole(self, q, monkeypatch):
        # E' = -1 - E^2 with E(T) = -Q is tan(T - t - atan Q): its pole lies q steps
        # before T.  |hM|_1 = 1/256, so blocks hold 256 nodes and the poles fall at
        # the start, in the middle and at the end of the first two blocks.
        T, steps = 4.0, 1024
        h = T / steps
        Q = -1.0 / math.tan(q * h)
        p = LqProblem(LtiSystem([[0.0]], [[1.0]]), [[-1.0]], [[1.0]], [[Q]], T)
        pole = T - math.pi / 2.0 - math.atan(Q)
        solve = np.linalg.solve

        def checked_solve(X, Y):  # no X past the pole is ever factorized
            assert np.all(np.linalg.det(X) > 0.0)
            return solve(X, Y)

        monkeypatch.setattr(np.linalg, "solve", checked_solve)
        with pytest.raises(ck.RiccatiBlowup) as info:
            ck.riccati_solve(p, steps)
        grid = h * np.arange(steps + 1)
        assert info.value.time == grid[grid < pole].max()

    def test_one_node_blocks(self):
        # |hM|_1 = 2000: each block is one Moebius step, E = -100 tanh(100 (2 - t)).
        p = dataclasses.replace(scalar_lq(), W=np.array([[1e4]]))
        sol = ck.riccati_solve(p, steps=10)
        assert np.max(np.abs(sol.E[:, 0, 0] + 100.0 * np.tanh(100.0 * (2.0 - sol.grid)))) <= 1e-11

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


    def test_terminal_manifold_rank_does_not_depend_on_the_scale_of_f(self):
        # F and its gradient times 1e-13 describe the same bank y = 1: one
        # transversality condition along its tangent, not two.
        p = pr.zermelo_min_drift()
        scaled = dataclasses.replace(
            p, F=lambda x: 1e-13 * p.F(x), F_jacobian=lambda x: 1e-13 * p.F_jacobian(x)
        )
        args = (2.0, np.array([0.5, 1.0]), np.array([-0.7, 0.3]), -1.0)
        r, r_scaled = optctrl._terminal_residual(p, *args), optctrl._terminal_residual(scaled, *args)
        assert len(r) == len(r_scaled) == 3
        assert abs(r_scaled[1]) == abs(r[1]) and r_scaled[2] == r[2]


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


# Extremal integrations per grid at 2000 steps, accepted Newton steps and
# history_steps.  The guess is swept on 250 and 31 steps first.  Newton on
# 250 steps takes its Jacobians from 31-step sweeps, the first one's base
# being the guess's sweep, and on 2000 steps from 250-step sweeps.
# Brachistochrone and di_min_time sweep only their coarse iterate on 2000
# steps; zermelo's guess is already within the 250-step grid's floor, so it
# skips the coarse level and starts from its guess on 2000 steps.
CORPUS_WORK = {
    "brachistochrone": ({31: 20, 250: 6, 2000: 1}, 5, [250] * 6 + [2000]),
    "di_min_time": ({31: 20, 250: 6, 2000: 1}, 5, [250] * 6 + [2000]),
    "zermelo": ({31: 1, 250: 4, 2000: 2}, 1, [2000, 2000]),
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
    def test_jacobians_come_from_a_grid_one_eighth_as_fine(self, corpus_shots, name):
        _, grids = corpus_shots[name]
        assert collections.Counter(grids) == CORPUS_WORK[name][0]

    @pytest.mark.parametrize("name", sorted(CORPUS_SHOTS))
    def test_newton_iterations(self, corpus_shots, name):
        e, _ = corpus_shots[name]
        assert e.newton_iterations == CORPUS_WORK[name][1]

    @pytest.mark.parametrize(
        "bad, work",
        [
            # the 31-step probe blows up, so there is no coarse level; each of
            # the 5 Newton iterations on 2000 steps takes its Jacobian on 250
            (31, {31: 1, 250: 21, 2000: 6}),
            # the 250-step probe blows up, and so does each iteration's first
            # Jacobian sweep there; the Jacobians come from 2000 steps
            (250, {250: 6, 2000: 21}),
        ],
        ids=["31", "250"],
    )
    def test_probe_blowup_skips_the_coarse_level(self, monkeypatch, bad, work):
        grids = []
        integrate = optctrl.integrate_extremal

        def blowing_up(p, p_init, tf, steps, p0=-1.0):
            grids.append(steps)
            if steps == bad:
                raise IntegrationBlowup(0.0)
            return integrate(p, p_init, tf, steps, p0)

        monkeypatch.setattr(optctrl, "integrate_extremal", blowing_up)
        build, guess, tf, tol = CORPUS_SHOTS["brachistochrone"]
        e = ck.pmp_shoot(build(), np.array(guess), steps=2000)
        assert e.converged
        assert abs(e.tf - tf) <= tol
        assert e.history_steps == [2000] * 6
        assert collections.Counter(grids) == work

    @pytest.mark.parametrize("name", sorted(CORPUS_SHOTS))
    def test_tf_matches_single_grid_newton(self, corpus_shots, name):
        e, _ = corpus_shots[name]
        assert abs(e.tf - CORPUS_SHOTS[name][2]) <= CORPUS_SHOTS[name][3]

    @pytest.mark.parametrize("name", sorted(CORPUS_SHOTS))
    def test_history_is_coarse_first_and_ends_on_requested_grid(self, corpus_shots, name):
        e, _ = corpus_shots[name]
        assert len(e.history_steps) == len(e.residual_history)
        assert e.history_steps == CORPUS_WORK[name][2]
        assert e.residual_history[-1] < 1e-9
        levels = len(set(e.history_steps))
        assert e.newton_iterations == len(e.residual_history) - levels

    def test_guess_meeting_tol_integrates_once(self, monkeypatch):
        grids = _count_grids(monkeypatch)
        guess = np.array(CORPUS_SHOTS["zermelo"][1])
        e = ck.pmp_shoot(pr.zermelo_min_drift(), guess, steps=1000)
        assert e.converged
        # the coarse and cheap probes of the guess, then one sweep on the requested grid
        assert grids == [125, 15, 1000]
        assert e.history_steps == [1000]
        assert e.newton_iterations == 0
        assert np.array_equal(e.adjoint.states[0], guess[:2])

    @pytest.mark.parametrize("budget, converged", [(1, False), (3, False), (5, True)])
    def test_newton_iters_bounds_both_grids_together(self, budget, converged):
        build, guess, _, _ = CORPUS_SHOTS["brachistochrone"]
        e = ck.pmp_shoot(build(), np.array(guess), steps=2000, newton_iters=budget)
        assert e.newton_iterations == budget
        assert e.converged == converged

    def test_stalled_coarse_newton_leaves_iterations_to_the_requested_grid(self):
        # From this guess the 250-step residual sits at 1.0 while Newton creeps
        # on; without the stall stop all 50 iterations went to that grid.
        build = CORPUS_SHOTS["brachistochrone"][0]
        guess = [-0.028329282336421846, 0.7789756686980005, 1.8812783287212493]
        e = ck.pmp_shoot(build(), np.array(guess), steps=2000)
        assert e.history_steps.count(2000) > 1

    @pytest.mark.parametrize(
        "name, steps, work",
        [
            ("brachistochrone", 100, {12: 24, 100: 4}),
            ("di_min_time", 100, {12: 16, 100: 4}),
            ("brachistochrone", 200, {25: 20, 200: 3}),
            ("di_min_time", 200, {25: 21, 200: 2}),
        ],
    )
    def test_work_below_512_steps(self, monkeypatch, name, steps, work):
        # The other grid is the requested one: the guess is swept on steps // 8
        # and on steps.  Coarse Newton takes its Jacobians on its own grid,
        # because one eighth of it has fewer than 8 steps.
        grids = _count_grids(monkeypatch)
        build, guess, _, _ = CORPUS_SHOTS[name]
        e = ck.pmp_shoot(build(), np.array(guess), steps=steps)
        assert e.converged
        assert collections.Counter(grids) == work

    def test_small_grid_still_takes_two_levels(self):
        build, guess, _, _ = CORPUS_SHOTS["brachistochrone"]
        e = ck.pmp_shoot(build(), np.array(guess), steps=200)
        assert e.converged
        assert set(e.history_steps) == {25, 200}

    @pytest.mark.parametrize("steps", [64, 80, 100])
    def test_jacobian_grid_keeps_eight_steps(self, steps):
        # The coarse level's 8-12 steps would give 1-step Jacobian sweeps; from
        # those brachistochrone took 47 and 50 iterations at 64 and 80 steps and
        # did not converge at 100.
        build, guess, _, _ = CORPUS_SHOTS["brachistochrone"]
        e = ck.pmp_shoot(build(), np.array(guess), steps=steps)
        assert e.converged
        assert e.newton_iterations <= 6

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


def _di_switching_on(switching):
    """di_min_time whose maximizer switches on `switching`, a function of t alone."""
    p = pr.double_integrator_min_time(np.array([1.0, 0.0]))

    def maximizer(t, x, pv, p0):
        phi = switching(t, x, pv, p0)
        u = np.sign(phi)
        u[np.abs(phi) < 1e-12] = 0.0
        return u

    maximizer.switching = switching
    maximizer.bang_bang = True
    return dataclasses.replace(p, maximizer=maximizer)


def _switch_between_step_ends():
    """di_min_time whose switching function 1e5 (t - c) vanishes at c = t_k + h.

    c lies one ulp above the grid time t_{k+1} = h (k + 1), so the signs at
    the end of step k (0) and at the start of step k + 1 (-1) differ, and
    only the latter sees the crossing inside step k + 1.
    """
    h = EVENT_TF / EVENT_STEPS
    times = h * np.arange(EVENT_STEPS + 1)
    k = next(k for k in range(EVENT_STEPS // 2, EVENT_STEPS) if times[k] + h > times[k + 1])
    c = times[k] + h
    return _di_switching_on(lambda t, x, pv, p0: np.array([1e5 * (t - c)]))


def _switch_on_a_sine():
    """di_min_time whose switching function sin(7 t) - 0.3 is nonlinear in t (4 crossings)."""
    return _di_switching_on(lambda t, x, pv, p0: np.array([math.sin(7.0 * t) - 0.3]))


def _two_fields_second_first():
    """A two-field box x' = u_1 f_1(t) + u_2 f_2(t) whose fields both switch in one step.

    With p = (-0.8, -1.2) constant, phi_1 = -0.08 (t - c1) and phi_2 = -1.2 (t - c2)
    vanish at c2 < c1 inside step k; phi_1 has the smaller margin at the
    step's start, phi_2 crosses first.
    """
    p = pr.double_integrator_min_time(np.array([1.0, 0.0]))
    h = EVENT_TF / EVENT_STEPS
    k = EVENT_STEPS // 2
    c1, c2 = h * (k + 0.7), h * (k + 0.3)
    fields = [lambda t, x: (0.1 * (t - c1), 0.0), lambda t, x: (0.0, t - c2)]
    maximizer = ck.hamiltonian_maximizer_box(1.0, fields)

    def f(t, x, u):
        return (u[0] * 0.1 * (t - c1), u[1] * (t - c2))

    return dataclasses.replace(
        p, control_dim=2, f=f, maximizer=maximizer, hamiltonian_dx=lambda t, x, pv, p0, u: (0.0, 0.0)
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: pr.double_integrator_min_time(np.array([1.0, 0.0])),
        _switch_between_step_ends,
        _switch_on_a_sine,
        _two_fields_second_first,
    ],
    ids=["di_min_time", "switch_between_step_ends", "sine", "two_fields_second_first"],
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


@pytest.mark.parametrize("fraction", [1e-3, 0.37])
def test_crossing_search_returns_the_first_flipping_double(fraction):
    # The returned step flips the sign of s0 and the double below it does not,
    # including a flip in the first 1/256 of the step, which 60 halvings
    # leave short of adjacent doubles.
    h = EVENT_TF / EVENT_STEPS
    c = fraction * h
    switching = lambda t, x, pv, p0: [1e5 * (t - c)]
    rhs = optctrl._ham_rhs(_di_switching_on(switching), -1.0)
    z, s0, u0 = [1.0, 0.0, -0.8, -1.2], [-1.0], [-1.0]

    def flips(m):
        z_m = optctrl._rk4(rhs, 0.0, z, m, u0)
        return optctrl._crossed(s0, optctrl._signs(switching(m, z_m[:2], z_m[2:], -1.0)))

    phi0 = switching(0.0, z[:2], z[2:], -1.0)
    z_h = optctrl._rk4(rhs, 0.0, z, h, u0)
    phi1 = switching(h, z_h[:2], z_h[2:], -1.0)
    step = optctrl._locate_crossing(rhs, switching, 0.0, z, h, 2, -1.0, s0, u0, phi0, phi1)
    assert 0.0 < step <= h
    assert flips(step)
    assert not flips(math.nextafter(step, 0.0))


def test_crossings_take_a_few_rk4_steps(monkeypatch):
    # Locating a switching time costs a few RK4 steps on average (60 by halving).
    calls = collections.Counter()
    rk4, locate = optctrl._rk4, optctrl._locate_crossing

    def counting_rk4(*args):
        calls["rk4"] += 1
        return rk4(*args)

    def counting_locate(*args):
        before = calls["rk4"]
        hi = locate(*args)
        calls["crossings"] += 1
        calls["search"] += calls["rk4"] - before
        return hi

    monkeypatch.setattr(optctrl, "_rk4", counting_rk4)
    monkeypatch.setattr(optctrl, "_locate_crossing", counting_locate)
    build, guess, _, _ = CORPUS_SHOTS["di_min_time"]
    assert ck.pmp_shoot(build(), np.array(guess), steps=2000).converged
    assert calls["crossings"] >= 20
    assert calls["search"] <= 8 * calls["crossings"]


@pytest.mark.parametrize("name", sorted(CORPUS_SHOTS))
def test_extremal_samples_equal_per_node_arrays(corpus_shots, name):
    # The controls and H that pmp_shoot samples on floats are, bit for bit,
    # those of the maximizer and H on each node's 1-D arrays.
    e, _ = corpus_shots[name]
    p = CORPUS_SHOTS[name][0]()
    controls, hams = [], []
    for t, x, pv in zip(e.state.times, e.state.states, e.adjoint.states):
        u = np.atleast_1d(np.asarray(p.maximizer(t, x, pv, -1.0), dtype=float))
        controls.append(u)
        hams.append(optctrl._hamiltonian(p, t, x, pv, -1.0, u))
    assert np.array_equal(e.control, np.array(controls))
    assert np.array_equal(e.hamiltonian_samples, np.array(hams))


@pytest.mark.parametrize("name", ["brachistochrone", "zermelo"])
def test_float_flow_equals_array_rk4_sweep(name):
    # The extremal's flow on lists of floats is numcore's RK4 on arrays, bit for bit.
    build, guess, _, _ = CORPUS_SHOTS[name]
    p = build()
    p_init, tf, steps = np.array(guess[:2]), guess[2], 2000
    times, Z = ck.integrate_extremal(p, p_init, tf, steps, -1.0)
    ham = optctrl._ham_rhs(p, -1.0)
    ref = rk4_sweep(lambda t, z: np.array(ham(t, z)), Grid(tf, steps), np.concatenate([p.x0, p_init]))
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
