"""Tests for linear controllability: Kalman/Hautus, Brunovski, Gramian, HUM,
time-varying rank tests, and Lie-bracket rank."""

import math

import numpy as np
import pytest

import ctrlkit as ck
from ctrlkit import LtiSystem, NotControllableError
from ctrlkit import problems as pr

from conftest import random_controllable_pairs


class TestGoldenSuite:
    def test_rlc_controllable(self):
        sys = pr.rlc()
        assert ck.kalman_test(sys).controllable
        assert ck.hautus_test(sys)[0]

    @pytest.mark.parametrize("k2,expected", [(0.0, False), (0.5, True)])
    def test_coupled_springs(self, k2, expected):
        sys = pr.coupled_springs(1.0, k2)
        assert ck.kalman_test(sys).controllable is expected
        assert ck.hautus_test(sys)[0] is expected

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_alpha_system(self, alpha):
        expected = alpha * (alpha - 1.0) != 0.0
        sys = pr.alpha_system(alpha)
        assert ck.kalman_test(sys).controllable is expected
        assert ck.hautus_test(sys)[0] is expected

    def test_maxwell_bloch_family1(self):
        # family 1 equilibria (0, b, c): controllable iff b != 0
        f = pr.maxwell_bloch_dynamics()
        for b, expected in ((0.7, True), (-1.2, True)):
            x_bar, u_bar = pr.maxwell_bloch_equilibrium(1, b, 0.5)
            sys = ck.linearize(f, x_bar, u_bar)
            assert ck.kalman_test(sys).controllable is expected

    def test_maxwell_bloch_family2(self):
        # family 2 equilibria (a, 0, c): controllable iff a != 0
        f = pr.maxwell_bloch_dynamics()
        for a, expected in ((1.0, True), (0.0, False)):
            x_bar, u_bar = pr.maxwell_bloch_equilibrium(2, a, 0.0)
            sys = ck.linearize(f, x_bar, u_bar)
            assert ck.kalman_test(sys).controllable is expected


class TestHautusKalmanProperty:
    def test_equivalence_random(self):
        for sys, _ in random_controllable_pairs(42, 50, 6, 3):
            assert ck.hautus_test(sys)[0] == ck.kalman_test(sys).controllable

    def test_equivalence_includes_uncontrollable(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            # force an uncontrollable pair half of the time
            if rng.random() < 0.5:
                B = np.zeros((n, m))
                B[: max(1, n // 2)] = rng.standard_normal((max(1, n // 2), m))
                A = np.triu(A)
            else:
                B = rng.standard_normal((n, m))
            sys = LtiSystem(A, B)
            assert ck.hautus_test(sys)[0] == ck.kalman_test(sys).controllable

    def test_similarity_invariance(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            rank = ck.kalman_test(LtiSystem(A, B)).rank
            P = rng.standard_normal((n, n))
            while abs(np.linalg.det(P)) < 1e-3:
                P = rng.standard_normal((n, n))
            sys2 = LtiSystem(P @ A @ np.linalg.inv(P), P @ B)
            assert ck.kalman_test(sys2).rank == rank


class TestBrunovski:
    def test_companion_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, 1))
            sys = LtiSystem(A, B)
            if not ck.kalman_test(sys).controllable:
                continue
            P, Abar, a = ck.brunovski_form(sys)
            # transformed pair is in companion (Brunovski) coordinates
            assert np.allclose(P @ A @ np.linalg.inv(P), Abar, atol=1e-6)
            assert np.allclose(np.poly(A)[1:], a, atol=1e-6)

    def test_rejects_uncontrollable(self):
        sys = LtiSystem(np.eye(2), np.array([[1.0], [0.0]]))
        with pytest.raises(NotControllableError):
            ck.brunovski_form(sys)


class TestDecomposition:
    def test_block_structure(self):
        sys = pr.coupled_springs(1.0, 0.0)
        P, A1, A2, A3, B1, r = ck.controllable_decomposition(sys)
        n = sys.n
        assert 0 < r < n
        At = P @ sys.A @ np.linalg.inv(P)
        Bt = P @ sys.B
        assert np.allclose(At[r:, :r], 0.0, atol=1e-9)
        assert np.allclose(Bt[r:], 0.0, atol=1e-9)
        assert np.allclose(At[:r, :r], A1, atol=1e-9)
        # the controllable block is itself controllable
        assert ck.kalman_test(LtiSystem(A1, B1)).controllable

    def test_full_rank_case(self):
        sys = pr.double_integrator()
        P, A1, A2, A3, B1, r = ck.controllable_decomposition(sys)
        assert r == 2 and A3.size == 0


class TestGramianAndHum:
    def test_double_integrator_gramian(self):
        sys = pr.double_integrator()
        rep = ck.gramian(sys, 1.0, steps=2000)
        assert np.allclose(
            rep.G, np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]]), atol=1e-9
        )
        assert rep.invertible

    def test_hum_recovers_minimum_norm_control(self):
        sys = pr.double_integrator()
        res = ck.hum_control_finite(sys, 1.0, np.zeros(2), np.array([1.0, 0.0]))
        u = np.array([res.law.function(t) for t in res.times]).ravel()
        assert np.max(np.abs(u - (6.0 - 12.0 * res.times))) < 1e-6
        assert res.endpoint_error < 1e-6
        assert abs(res.cost - 12.0) < 1e-8

    def test_ltv_hum_endpoint_is_fourth_order(self):
        # Dubins: the control interpolates the adjoint R(T, t)^T psi by cubic
        # Hermite, so the endpoint error keeps the RK4 order.
        T = 2.0 * math.pi
        sys = pr.dubins_linearized(T)
        x1 = np.array([1.0, 0.0, 0.0])
        errs = [
            ck.hum_control_finite(sys, T, np.zeros(3), x1, steps).endpoint_error
            for steps in (50, 100, 200)
        ]
        assert min(errs) > 1e-11  # well above roundoff
        for coarse, fine in zip(errs, errs[1:]):
            assert math.log2(coarse / fine) >= 3.5

    def test_control_at_nodes_is_the_sampled_control(self):
        res = ck.hum_control_finite(pr.rlc(), 2.0, np.zeros(2), np.array([0.3, -0.2]), 200)
        u = np.array([res.law(t) for t in res.times])
        assert np.array_equal(u, res.samples)

    def test_gramian_cost_identity(self):
        # optimal cost equals psi . (x1 - x*) for steering from zero
        sys = pr.rlc()
        x1 = np.array([0.3, -0.2])
        res = ck.hum_control_finite(sys, 2.0, np.zeros(2), x1)
        rep = ck.gramian(sys, 2.0)
        psi = np.linalg.solve(rep.G, x1)
        assert abs(res.cost - float(psi @ x1)) < 1e-6


class TestTimeVarying:
    def test_triangular_example_depth3(self):
        sys = pr.triangular_ltv()
        for t in (0.5, 1.0, 2.0):
            rank, ok = ck.ltv_kalman_test(sys, t, depth=3)
            assert ok and rank == 3

    def test_rotating_frame_fails_rank_test(self):
        sys = pr.rotating_frame()
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            rank, ok = ck.ltv_kalman_test(sys, t, depth=3)
            assert not ok

    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_rotating_frame_singular_gramian(self, T):
        rep = ck.gramian(pr.rotating_frame(), T)
        assert rep.C_T < 1e-12
        assert not rep.invertible

    def test_dubins_controllable_over_period(self):
        sys = pr.dubins_linearized(2.0 * np.pi)
        rep = ck.gramian(sys, 2.0 * np.pi)
        assert rep.invertible


class TestLie:
    def test_bracket_linear_fields(self):
        # [Ax, Bx] = (BA - AB) x
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[1.0, 0.0], [0.0, -1.0]])
        x = np.array([0.7, -0.3])
        expected = (B @ A - A @ B) @ x
        fa = ck.VectorField(value=lambda y: A @ y, jacobian=lambda y: A)
        fb = ck.VectorField(value=lambda y: B @ y, jacobian=lambda y: B)
        got = ck.lie_bracket(fa, fb, x)
        assert np.allclose(got, expected, atol=1e-6)

    def test_heisenberg_full_rank(self):
        fields = pr.heisenberg_fields()
        rank, ok = ck.larc_rank(fields, np.zeros(3))
        assert ok and rank == 3

    def test_larc_depth_one_insufficient(self):
        fields = pr.heisenberg_fields()
        rank, ok = ck.larc_rank(fields, np.zeros(3), depth=1)
        assert not ok and rank == 2
