"""Tests for the numerical core: expm, RK4 integration, dense output,
finite differences, Simpson, rank."""

import math

import numpy as np
import pytest

from ctrlkit import (
    DenseOutput,
    DimensionError,
    GridError,
    IntegrationBlowup,
    OdeProblem,
    expm,
    integrate,
    numerical_rank,
    simpson,
    transition_matrix,
)
from ctrlkit.numcore import fd_jacobian, simpson_weights


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

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


class TestIntegrate:
    def test_exponential_decay(self):
        p = OdeProblem(
            dimension=1,
            rhs=lambda t, x: -x,
            t0=0.0,
            x0=np.array([1.0]),
            t1=1.0,
            steps=200,
        )
        traj = integrate(p)
        assert abs(traj.states[-1][0] - math.exp(-1.0)) < 1e-9

    def test_fourth_order_convergence(self):
        errors = []
        for steps in (25, 50, 100):
            p = OdeProblem(
                dimension=1,
                rhs=lambda t, x: -x,
                t0=0.0,
                x0=np.array([1.0]),
                t1=1.0,
                steps=steps,
            )
            errors.append(abs(integrate(p).states[-1][0] - math.exp(-1.0)))
        # halving h should cut the error by about 2**4
        assert errors[0] / errors[1] > 12.0
        assert errors[1] / errors[2] > 12.0

    def test_nonautonomous(self):
        # x' = 2t, x(0)=0 -> x(1)=1, exact for RK4
        p = OdeProblem(
            dimension=1,
            rhs=lambda t, x: np.array([2.0 * t]),
            t0=0.0,
            x0=np.array([0.0]),
            t1=1.0,
            steps=10,
        )
        assert abs(integrate(p).states[-1][0] - 1.0) < 1e-13

    def test_trajectory_interpolation(self):
        p = OdeProblem(
            dimension=1,
            rhs=lambda t, x: -x,
            t0=0.0,
            x0=np.array([1.0]),
            t1=1.0,
            steps=400,
        )
        traj = integrate(p)
        assert abs(traj.interp(0.5)[0] - math.exp(-0.5)) < 1e-6

    def test_blowup_detection(self):
        p = OdeProblem(
            dimension=1,
            rhs=lambda t, x: x * x,
            t0=0.0,
            x0=np.array([5.0]),
            t1=2.0,
            steps=2000,
        )
        with pytest.raises(IntegrationBlowup):
            integrate(p)


class TestSimpson:
    def test_cubic_exact(self):
        xs = np.linspace(0.0, 1.0, 21)
        vals = xs**3
        assert abs(simpson(vals, xs[1] - xs[0]) - 0.25) < 1e-15

    def test_sine(self):
        xs = np.linspace(0.0, math.pi, 201)
        vals = np.sin(xs)
        assert abs(simpson(vals, xs[1] - xs[0]) - 2.0) < 1e-9

    def test_requires_even_interval_count(self):
        with pytest.raises((ValueError, Exception)):
            simpson(np.array([0.0, 1.0]), 1.0)

    def test_matrix_stack_is_the_entrywise_rule(self):
        y = np.random.default_rng(4).standard_normal((21, 2, 3))
        total = simpson(y, 0.05)
        assert total.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert total[i, j] == pytest.approx(simpson(y[:, i, j], 0.05), rel=1e-14)

    @pytest.mark.parametrize("count", [3, 5, 201])
    def test_weights_give_the_rule(self, count):
        y = np.cos(np.linspace(0.0, 2.0, count))
        h = 2.0 / (count - 1)
        w = simpson_weights(count, h)
        assert w.shape == (count,)
        assert w @ y == pytest.approx(simpson(y, h), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("count, step", [(4, 0.1), (1, 0.1), (5, 0.0), (5, -1.0)])
    def test_weights_and_rule_reject_the_same_grids(self, count, step):
        with pytest.raises(GridError) as rule:
            simpson(np.ones(count), step)
        with pytest.raises(GridError) as weights:
            simpson_weights(count, step)
        assert str(rule.value) == str(weights.value)


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


class TestTransitionMatrix:
    def test_constant_matches_expm(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Phi = transition_matrix(lambda t: A, 1.3, 0.0, steps=400)
        assert np.allclose(Phi, expm(1.3 * A), atol=1e-10)

    def test_identity_at_equal_times(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(transition_matrix(lambda t: A, 0.7, 0.7), np.eye(2))

    def test_scalar_time_varying(self):
        # x' = t x -> Phi(t, 0) = exp(t^2 / 2)
        Phi = transition_matrix(lambda t: np.array([[t]]), 1.0, 0.0, steps=400)
        assert abs(Phi[0, 0] - math.exp(0.5)) < 1e-9


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
