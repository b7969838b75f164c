"""Tests for the numerical core: expm, RK4 integration, dense output,
finite differences, the Simpson grid and every path that uses it, rank, and
Chebyshev interpolation."""

import math

import numpy as np
import pytest

from ctrlkit import (
    DenseOutput,
    DimensionError,
    GridError,
    IllPosedError,
    IntegrationBlowup,
    IntervalUnion,
    LqProblem,
    LtiSystem,
    OcProblem,
    SineBasis,
    Trajectory,
    WaveState,
    boundary_observation_energy,
    damping_decay_experiment,
    expm,
    hum_control_finite,
    hum_wave_boundary,
    integrate_extremal,
    internal_wave_observation,
    lq_cost,
    lq_feedback,
    numerical_rank,
    riccati_solve,
    simpson_grid,
)
from ctrlkit import problems as pr
from ctrlkit.numcore import Chebyshev, chebyshev, fd_jacobian, rk4_linear_sweep, rk4_sweep


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_zero_matrix_is_exactly_identity(self):
        # The Pade solve alone rounds the diagonal of expm(0) to 1 - 2^-53.
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
        assert np.array_equal(expm(-np.zeros((2, 2))), np.eye(2))
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        stack = np.array([0.0, 0.7, 0.0, 40.0])[:, None, None] * J
        got = expm(stack)
        assert np.array_equal(got[[0, 2]], np.stack([np.eye(2)] * 2))
        assert np.array_equal(got[[1, 3]], expm(stack[[1, 3]]))

    def test_diagonal(self):
        D = np.diag([1.0, -2.0, 0.5])
        assert np.allclose(expm(D), np.diag(np.exp([1.0, -2.0, 0.5])), atol=1e-14)

    def test_rotation_generator(self):
        # exp of a rotation generator is the rotation matrix
        for th in (0.3, 1.0, 2.7):
            J = np.array([[0.0, -th], [th, 0.0]])
            R = np.array(
                [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
            )
            assert np.allclose(expm(J), R, atol=1e-14)

    def test_nilpotent(self):
        N = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        expected = np.eye(3) + N + 0.5 * (N @ N)
        assert np.allclose(expm(N), expected, atol=1e-15)

    def test_large_norm_scaling_squaring(self):
        # scaling-and-squaring must handle norms far above 1
        A = np.array([[0.0, 30.0], [-30.0, 0.0]])
        R = np.array(
            [[math.cos(30.0), math.sin(30.0)], [-math.sin(30.0), math.cos(30.0)]]
        )
        assert np.allclose(expm(A), R, atol=1e-11)

    def test_group_property(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        assert np.allclose(expm(A) @ expm(-A), np.eye(4), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((40, 4, 4)) * np.logspace(-3.0, 1.5, 40)[:, None, None]
        got = expm(stack)
        for M, F in zip(stack, got):
            assert np.max(np.abs(F - expm(M))) <= 4.0 * np.spacing(np.max(np.abs(F)))

    def test_stack_scales_each_matrix_by_its_own_norm(self):
        # |M|_1 = 2 th: th = 30 needs 4 squarings, th <= 2.5 none.
        ths = np.array([30.0, 0.0, 0.3, 2.5, 7.0])
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        got = expm(ths[:, None, None] * J)
        c, s = np.cos(ths), np.sin(ths)
        exact = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        assert np.max(np.abs(got - exact)) <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_raises(self, bad):
        stack = np.zeros((3, 2, 2))
        stack[2, 1, 0] = bad
        with pytest.raises(FloatingPointError):
            expm(stack)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (2, 2, 2, 2), (4,)])
    def test_rejects_non_square_stack(self, shape):
        with pytest.raises(DimensionError):
            expm(np.zeros(shape))


def sweep(rhs, x0, t0, t1, steps):
    """RK4 from (t0, x0) to t1 in `steps` equal steps: (times, states)."""
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    return times, rk4_sweep(rhs, times, np.asarray(x0, dtype=float), h)


def linear_sweep(M, b, x0, t0, t1, steps):
    """rk4_linear_sweep of x' = M(t) x + b(t) (b None for 0) from (t0, x0) to t1: (times, states)."""
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    half = t0 + 0.5 * h * np.arange(2 * steps + 1)
    Ms = np.array([M(t) for t in half])
    bs = None if b is None else np.array([b(t) for t in half])
    return times, rk4_linear_sweep(Ms, bs, times, np.asarray(x0, dtype=float), h)


class TestIntegrate:
    def test_exponential_decay(self):
        _, states = sweep(lambda t, x: -x, [1.0], 0.0, 1.0, 200)
        assert abs(states[-1][0] - math.exp(-1.0)) < 1e-9

    def test_fourth_order_convergence(self):
        errors = []
        for steps in (25, 50, 100):
            _, states = sweep(lambda t, x: -x, [1.0], 0.0, 1.0, steps)
            errors.append(abs(states[-1][0] - math.exp(-1.0)))
        # halving h should cut the error by about 2**4
        assert errors[0] / errors[1] > 12.0
        assert errors[1] / errors[2] > 12.0

    def test_nonautonomous(self):
        # x' = 2t, x(0)=0 -> x(1)=1, exact for RK4
        _, states = sweep(lambda t, x: np.array([2.0 * t]), [0.0], 0.0, 1.0, 10)
        assert abs(states[-1][0] - 1.0) < 1e-13

    def test_trajectory_interpolation(self):
        traj = Trajectory(*sweep(lambda t, x: -x, [1.0], 0.0, 1.0, 400))
        assert abs(traj.interp(0.5)[0] - math.exp(-0.5)) < 1e-6

    def test_blowup_detection(self):
        """Every fixed-grid sweep raises at the first node with a non-finite state.

        x' = 1e8 x over 20 steps of 0.05 multiplies x by about 2.6e25 per
        step, so it overflows on step 13: t = 0.65 forward, 0.35 backward.
        """
        def ones(t, x, p, p0):
            return np.ones(1)

        def bang_bang(t, x, p, p0):
            return np.ones(1)

        bang_bang.bang_bang = True
        bang_bang.switching = ones  # no sign change: one plain step per node

        def extremal(maximizer):
            oc = OcProblem(
                1, 1, lambda t, x, u: (1e8 * x[0],), maximizer, [1.0],
                terminal_kind="free", hamiltonian_dx=lambda t, x, p, p0, u: (1e8 * p[0],),
            )
            return integrate_extremal(oc, np.array([1.0]), 1.0, 20)

        constant = np.broadcast_to([[1e8]], (41, 1, 1))
        cases = [
            # x' = x^2 from 5 has its pole at t = 0.2.
            (lambda: sweep(lambda t, x: x * x, [5.0], 0.0, 2.0, 2000), 0.203),
            # matrix-valued state
            (lambda: linear_sweep(lambda t: np.diag([1e8, 1.0]), None, np.eye(2), 0.0, 1.0, 20), 0.65),
            # one broadcast matrix for every time: one step matrix
            (lambda: rk4_linear_sweep(constant, None, 0.05 * np.arange(21), [1.0], 0.05), 0.65),
            # reversed grid
            (lambda: sweep(lambda t, x: -1e8 * x, [1.0], 1.0, 0.0, 20), 0.35),
            (lambda: extremal(ones), 0.65),
            (lambda: extremal(bang_bang), 0.65),
        ]
        for run, time in cases:
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                IntegrationBlowup
            ) as info:
                run()
            assert type(info.value) is IntegrationBlowup
            assert info.value.time == pytest.approx(time, abs=1e-12)


class TestSimpsonGrid:
    def test_cubic_exact(self):
        xs, w = simpson_grid(1.0, 20)
        assert abs(w @ xs**3 - 0.25) < 1e-15

    def test_sine(self):
        xs, w = simpson_grid(math.pi, 200)
        assert abs(w @ np.sin(xs) - 2.0) < 1e-9

    def test_matrix_stack_is_the_entrywise_rule(self):
        y = np.random.default_rng(4).standard_normal((21, 2, 3))
        _, w = simpson_grid(1.0, 20)
        total = np.tensordot(w, y, axes=1)
        assert total.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert total[i, j] == pytest.approx(w @ y[:, i, j], rel=1e-14)

    def test_weights_are_the_composite_rule(self):
        _, w = simpson_grid(2.0, 4)
        assert np.array_equal(w, np.array([1.0, 4.0, 2.0, 4.0, 1.0]) * (0.5 / 3.0))

    @pytest.mark.parametrize("steps", [1, 3, 201])
    def test_odd_steps_give_the_grid_of_the_even_count_above(self, steps):
        for odd, even in zip(simpson_grid(2.5, steps), simpson_grid(2.5, steps + 1)):
            assert np.array_equal(odd, even)

    @pytest.mark.parametrize("T, steps", [(1.0, 2), (math.pi, 7), (1e-3, 200), (40.0, 2001)])
    def test_weights_sum_to_the_horizon(self, T, steps):
        assert simpson_grid(T, steps)[1].sum() == pytest.approx(T, rel=1e-14)

    @pytest.mark.parametrize("T, steps", [(1.0, 2), (2.0 * math.pi, 2000), (3.0, 7)])
    def test_nodes_are_step_multiples(self, T, steps):
        times, _ = simpson_grid(T, steps)
        n = len(times) - 1
        assert n == steps + steps % 2
        assert np.array_equal(times, (T / n) * np.arange(n + 1))

    @pytest.mark.parametrize(
        "T, steps", [(0.1, 0), (0.1, -2), (0.0, 4), (-1.0, 4), (math.nan, 4), (math.inf, 4)]
    )
    def test_rejects_bad_grids(self, T, steps):
        with pytest.raises(GridError):
            simpson_grid(T, steps)


_DUBINS = pr.dubins_linearized(2.0 * math.pi)
_BASIS = SineBasis(1.0, 4)
_WAVE = WaveState(np.array([1.0, 0.5, 0.0, 0.0]), np.zeros(4))
_OMEGA = IntervalUnion([(0.2, 0.5)])


def _lq_problem(T):
    return LqProblem(LtiSystem([[0.0]], [[1.0]]), [[1.0]], [[1.0]], [[0.0]], T)


def _lq_cost(p, steps):
    return lq_cost(p, lq_feedback(riccati_solve(p, 2), p), [1.0], steps)


# Every path that integrates by Simpson's rule, as a function of (T, steps), and
# the two wave observation functionals, which integrate in time in closed form
# and so take no steps; they still refuse a horizon outside (0, inf).
SIMPSON_PATHS = {
    "hum_control_finite": lambda T, steps: hum_control_finite(
        pr.double_integrator(), T, [0.0, 0.0], [1.0, 0.0], steps
    ),
    "lq_cost": lambda T, steps: _lq_cost(_lq_problem(T), steps),
    "boundary_observation_energy": lambda T, _: boundary_observation_energy(_BASIS, _WAVE, T),
    "internal_wave_observation": lambda T, _: internal_wave_observation(_BASIS, _WAVE, _OMEGA, T),
    "hum_wave_boundary": lambda T, steps: hum_wave_boundary(_BASIS, _WAVE, _WAVE, T, steps),
    "damping_decay_experiment": lambda T, steps: damping_decay_experiment(
        _BASIS, _OMEGA, T, steps
    ),
}


def _bad_horizon_error(path, T):
    """A caller that checks the horizon before the grid does keeps its own exception."""
    if path == "lq_cost":  # LqProblem refuses any T outside (0, inf)
        return ValueError
    if path == "hum_wave_boundary" and T <= 0.0:
        return IllPosedError
    return GridError


_CLOSED_FORM_IN_TIME = ("boundary_observation_energy", "internal_wave_observation")


class TestSimpsonPaths:
    @pytest.mark.parametrize(
        "path, T, steps",
        [
            (path, T, steps)
            for path in SIMPSON_PATHS
            for T, steps in [(2.0, 0), (0.0, 20), (-1.0, 20), (math.nan, 20), (math.inf, 20)]
            if steps or path not in _CLOSED_FORM_IN_TIME
        ],
    )
    def test_degenerate_grid_raises(self, path, T, steps):
        expected = GridError if steps == 0 else _bad_horizon_error(path, T)
        with pytest.raises(expected) as info:
            SIMPSON_PATHS[path](T, steps)
        assert type(info.value) is expected

    def test_odd_steps_match_the_even_count_above(self):
        odd, even = (
            hum_control_finite(_DUBINS, 2.0 * math.pi, np.zeros(3), [1.0, 0.0, 0.0], steps)
            for steps in (201, 202)
        )
        assert np.array_equal(odd.times, even.times) and np.array_equal(odd.samples, even.samples)
        assert odd.endpoint_error == even.endpoint_error
        p = _lq_problem(2.0)
        law = lq_feedback(riccati_solve(p, 202), p)
        (c_odd, x_odd, u_odd), (c_even, x_even, u_even) = (
            lq_cost(p, law, [1.0], steps) for steps in (201, 202)
        )
        assert c_odd == c_even
        assert np.array_equal(x_odd.times, x_even.times)
        assert np.array_equal(x_odd.states, x_even.states)
        assert np.array_equal(u_odd, u_even)


class TestFdJacobian:
    X = np.array([0.3, -0.4])

    @staticmethod
    def fun(x):
        return np.array([np.sin(x[0]) * np.exp(x[1]), x[0] ** 2 * np.cos(x[1]), np.exp(x[0] * x[1])])

    def exact(self):
        x0, x1 = self.X
        return np.array(
            [
                [np.cos(x0) * np.exp(x1), np.sin(x0) * np.exp(x1)],
                [2 * x0 * np.cos(x1), -(x0**2) * np.sin(x1)],
                [x1 * np.exp(x0 * x1), x0 * np.exp(x0 * x1)],
            ]
        )

    @pytest.mark.parametrize("scheme, h, order", [
        ("forward", 1e-3, 1.0),
        ("central", 1e-2, 2.0),
        ("central4", 1e-1, 4.0),
    ])
    def test_observed_order(self, scheme, h, order):
        steps = h * np.array([1.0, 0.5])  # a different step per coordinate
        errs = []
        for k in range(3):
            f0 = self.fun(self.X) if scheme == "forward" else None
            J = fd_jacobian(self.fun, self.X, steps / 2**k, scheme, f0)
            errs.append(np.max(np.abs(J - self.exact())))
        observed = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(observed - order) < 0.15), observed

    def test_forward_calls_fun_once_per_coordinate(self):
        calls = []

        def fun(x):
            calls.append(x)
            return self.fun(x)

        fd_jacobian(fun, np.array([0.1, 0.2, 0.3]), 1e-6, "forward", np.zeros(3))
        assert len(calls) == 3

    def test_scalar_fun_gives_a_row(self):
        J = fd_jacobian(lambda v: float(v @ v), self.X, 1e-5)
        assert J.shape == (1, 2)
        assert np.allclose(J[0], 2.0 * self.X, atol=1e-9)

    def test_rejects_forward_without_f0_and_unknown_schemes(self):
        with pytest.raises(ValueError):
            fd_jacobian(self.fun, self.X, 1e-6, "forward")
        with pytest.raises(ValueError):
            fd_jacobian(self.fun, self.X, 1e-6, "backward")


class TestNumericalRank:
    def test_full_rank(self):
        rng = np.random.default_rng(2)
        assert numerical_rank(rng.standard_normal((5, 5))) == 5

    def test_exact_deficiency(self):
        u = np.array([[1.0], [2.0], [3.0]])
        v = np.array([[1.0, -1.0, 0.5]])
        assert numerical_rank(u @ v) == 1

    def test_tolerance_sensitivity(self):
        M = np.diag([1.0, 1e-12])
        assert numerical_rank(M, rel_tol=1e-9) == 1
        assert numerical_rank(M, rel_tol=1e-15) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4))) == 0

    def test_complex_matrix_keeps_its_imaginary_part(self):
        # Row 2 is 1j times row 1; dropping the imaginary part gives rank 2.
        assert numerical_rank(np.array([[1, 1j], [1j, -1]])) == 1


def _rotation(t):
    return np.array([[-0.1 * t, 1.0 + 0.5 * math.sin(t)], [-1.0, 0.3 * math.cos(2.0 * t)]])


def _forcing(t):
    return np.array([math.cos(3.0 * t), t * t])


class TestLinearSweep:
    @pytest.mark.parametrize("t0, t1", [(0.0, 2.5), (2.5, 0.0)])
    def test_vector_state_matches_rk4_sweep(self, t0, t1):
        x0 = [1.0, -0.5]
        _, got = linear_sweep(_rotation, _forcing, x0, t0, t1, 600)  # 256-step blocks and a rest
        _, ref = sweep(lambda t, x: _rotation(t) @ x + _forcing(t), x0, t0, t1, 600)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("t0, t1", [(0.0, 2.5), (2.5, 0.0)])
    def test_matrix_state_matches_rk4_sweep(self, t0, t1):
        def b(t):
            return np.outer(_forcing(t), [1.0, -2.0])

        _, got = linear_sweep(_rotation, b, np.eye(2), t0, t1, 600)
        _, ref = sweep(lambda t, X: _rotation(t) @ X + b(t), np.eye(2), t0, t1, 600)
        assert got.shape == (601, 2, 2)
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_fourth_order_on_a_time_varying_affine_ode(self):
        # x' = cos(t) x + 2t exp(sin t) has x(t) = (x0 + t^2) exp(sin t).
        errors = []
        for steps in (25, 50, 100):
            _, states = linear_sweep(
                lambda t: np.array([[math.cos(t)]]),
                lambda t: np.array([2.0 * t * math.exp(math.sin(t))]),
                [0.5], 0.0, 3.0, steps,
            )
            errors.append(abs(states[-1][0] - (0.5 + 9.0) * math.exp(math.sin(3.0))))
        for coarse, fine in zip(errors, errors[1:]):
            assert math.log2(coarse / fine) >= 3.8

    def test_constant_transition_matrix_matches_expm(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        _, R = linear_sweep(lambda t: A, None, np.eye(2), 0.0, 1.3, 400)
        assert np.allclose(R[-1], expm(1.3 * A), atol=1e-10)

    def test_broadcast_constant_matches_the_stacked_matrices(self):
        # A broadcast M (stride 0 in time) forms one step matrix per 256 steps;
        # 600 steps take two full blocks and a partial one.
        M = np.broadcast_to([[-0.3, 1.0], [-2.0, -0.1]], (1201, 2, 2))
        times = 1.5 / 600 * np.arange(601)
        x0 = np.array([1.0, -0.5])
        once = rk4_linear_sweep(M, None, times, x0, times[1])
        stacked = rk4_linear_sweep(np.array(M), None, times, x0, times[1])
        assert once.shape == (601, 2)
        assert np.max(np.abs(once - stacked)) <= 1e-15

    def test_no_steps_give_the_initial_state(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        states = rk4_linear_sweep(A[None], None, [0.7], np.eye(2), 0.0)
        assert np.array_equal(states, np.eye(2)[None])

    def test_scalar_time_varying_transition(self):
        # x' = t x -> R(t, 0) = exp(t^2 / 2)
        _, R = linear_sweep(lambda t: np.array([[t]]), None, np.eye(1), 0.0, 1.0, 400)
        assert abs(R[-1][0, 0] - math.exp(0.5)) < 1e-9


def _cubic(t):
    return np.stack([1.0 - 2.0 * t + 0.5 * t**3, 3.0 * t**2 - t**3], axis=-1)


def _cubic_dot(t):
    return np.stack([-2.0 + 1.5 * t**2, 6.0 * t - 3.0 * t**2], axis=-1)


# A non-uniform grid, and one as the RK4 sweeps build it.
GRIDS = [np.array([-1.0, -0.3, 0.2, 0.25, 1.1, 2.0]), np.linspace(0.0, 2.0, 2001)]


class TestDenseOutput:
    @pytest.mark.parametrize("g", GRIDS)
    @pytest.mark.parametrize("with_derivatives", [False, True])
    def test_node_values_bit_exact(self, g, with_derivatives):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(g.size, 2, 2))
        d = rng.normal(size=y.shape) if with_derivatives else None
        dense = DenseOutput(g, y, d)
        for k, t in enumerate(g):
            assert np.array_equal(dense(t), y[k])

    @pytest.mark.parametrize("g", GRIDS)
    def test_reproduces_a_cubic(self, g):
        dense = DenseOutput(g, _cubic(g), _cubic_dot(g))
        ts = np.random.default_rng(4).uniform(g[0], g[-1], 200)
        got = np.array([dense(t) for t in ts])
        assert np.max(np.abs(got - _cubic(ts))) < 1e-13

    @pytest.mark.parametrize("g", GRIDS)
    def test_values_only_is_the_linear_formula(self, g):
        y = np.random.default_rng(5).normal(size=(g.size, 3))
        dense = DenseOutput(g, y)
        for t in np.random.default_rng(6).uniform(g[0], g[-1], 200):
            i = min(int(np.searchsorted(g, t, side="right")) - 1, len(g) - 2)
            w = (t - g[i]) / (g[i + 1] - g[i])
            assert np.array_equal(dense(t), (1.0 - w) * y[i] + w * y[i + 1])

    def test_clamps_outside_the_grid(self):
        g = GRIDS[0]
        dense = DenseOutput(g, _cubic(g), _cubic_dot(g))
        assert np.array_equal(dense(g[0] - 5.0), _cubic(g[0]))
        assert np.array_equal(dense(g[-1] + 5.0), _cubic(g[-1]))

    @pytest.mark.parametrize("g", GRIDS)
    @pytest.mark.parametrize("with_derivatives", [False, True])
    def test_array_of_times(self, g, with_derivatives):
        """Nodes bit for bit, clamped ends, and the scalar call's values between nodes."""
        rng = np.random.default_rng(7)
        y = rng.normal(size=(g.size, 2, 3))
        dense = DenseOutput(g, y, rng.normal(size=y.shape) if with_derivatives else None)
        assert np.array_equal(dense(g), y)
        ends = dense(np.array([g[0] - 5.0, g[-1] + 5.0]))
        assert np.array_equal(ends, y[[0, -1]])
        ts = rng.uniform(g[0], g[-1], (10, 100))
        got = dense(ts)
        assert got.shape == (10, 100, 2, 3)
        ref = np.array([dense(t) for t in ts.ravel()]).reshape(got.shape)
        assert np.max(np.abs(got - ref)) <= 4.0 * np.spacing(np.max(np.abs(ref)))

    def test_array_of_times_gathers_no_four_sample_block(self):
        # One (times, 4, f) copy of the interval blocks alone is 4x the result.
        import tracemalloc

        g = GRIDS[1]
        rng = np.random.default_rng(8)
        y = rng.normal(size=(g.size, 64))
        dense = DenseOutput(g, y, rng.normal(size=y.shape))
        ts = rng.uniform(g[0], g[-1], 4001)
        tracemalloc.start()
        try:
            got = dense(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * got.nbytes

    def test_scalar_samples_give_scalars(self):
        g = np.linspace(0.0, 1.0, 5)
        assert DenseOutput(g, g**2, 2.0 * g)(0.3).shape == ()

    def test_rejects_bad_grids(self):
        with pytest.raises(DimensionError):
            DenseOutput([0.0], [[1.0]])
        with pytest.raises(DimensionError):
            DenseOutput([0.0, 1.0], [[1.0]])
        with pytest.raises(DimensionError):
            DenseOutput([0.0, 1.0], [[1.0], [2.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            DenseOutput([0.0, 0.0, 1.0], [[1.0], [2.0], [3.0]])


def _clencurt(N):
    """Clenshaw-Curtis weights by the explicit formula (Trefethen, Spectral Methods in MATLAB, ch. 12)."""
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    v = np.ones(N - 1)
    inner = theta[1:-1]
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N * N - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2 * k * inner) / (4 * k * k - 1)
        v -= np.cos(N * inner) / (N * N - 1)
    else:
        w[0] = w[N] = 1.0 / (N * N)
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * inner) / (4 * k * k - 1)
    w[1:-1] = 2.0 * v / N
    return w


class TestChebyshev:
    @pytest.mark.parametrize("N", [4, 7, 16, 64, 256])
    def test_lobatto_weights_are_clenshaw_curtis(self, N):
        cheb = chebyshev(N)
        assert np.array_equal(cheb.nodes, np.cos(np.pi * np.arange(N + 1) / N))
        assert np.max(np.abs(cheb.weights - _clencurt(N))) < 4e-15

    @pytest.mark.parametrize("kind", [1, 2])
    def test_weights_integrate_degree_n_exactly(self, kind):
        cheb = chebyshev(12, kind)
        for k in range(13):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert cheb.weights @ cheb.nodes**k == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("kind", [1, 2])
    def test_differentiation_is_exact_on_polynomials(self, kind):
        cheb = chebyshev(16, kind)
        x = cheb.nodes
        assert np.max(np.abs(cheb.diff @ x**16 - 16.0 * x**15)) < 1e-12
        # each row sums to 0 up to the rounding of the sum
        assert np.max(np.abs(cheb.diff @ np.ones(17))) < 1e-14 * np.max(np.abs(cheb.diff))

    def test_first_kind_nodes(self):
        j = np.arange(17)
        assert np.array_equal(chebyshev(16, 1).nodes, np.cos(np.pi * (2 * j + 1) / 34))

    @pytest.mark.parametrize("kind", [1, 2])
    def test_barycentric_interpolation(self, kind):
        cheb = chebyshev(24, kind)
        values = np.stack([np.exp(cheb.nodes), np.sin(3.0 * cheb.nodes)], axis=1)[:, None]
        x = np.linspace(-1.0, 1.0, 41)
        p = cheb.interpolate(values, x)
        assert p.shape == (41, 1, 2)
        assert np.max(np.abs(p[:, 0] - np.stack([np.exp(x), np.sin(3.0 * x)], axis=1))) < 1e-14
        # a node comes back bit for bit, and a float gives one sample
        assert np.array_equal(cheb.interpolate(values, cheb.nodes[5]), values[5])

    def test_tail_test(self):
        cheb = chebyshev(16)
        assert cheb.resolved(np.exp(cheb.nodes))
        assert cheb.resolved(np.zeros(17))
        assert not cheb.resolved(np.abs(cheb.nodes))  # a kink
        assert not cheb.resolved(np.exp(8.0 * cheb.nodes))  # needs a higher degree
        assert chebyshev(64).resolved(np.exp(8.0 * chebyshev(64).nodes))

    def test_built_once_and_read_only(self):
        assert chebyshev(32) is chebyshev(32)
        with pytest.raises(ValueError):
            chebyshev(32).diff[0, 0] = 1.0

    def test_rounded_nodes(self):
        # A model on nodes that rounded, as t + rho s mapped back, fits them exactly.
        s = (1e4 + 1e-3 * chebyshev(16, 1).nodes - 1e4) / 1e-3
        model = Chebyshev(s)
        assert not np.array_equal(s, chebyshev(16, 1).nodes)
        assert np.max(np.abs(model.fit @ s**3 - np.array([0, 0.75, 0, 0.25] + [0] * 13))) < 1e-12
