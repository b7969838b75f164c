"""Tests for linear controllability: Kalman/Hautus, Brunovski, Gramian, HUM,
time-varying rank tests, and Lie-bracket rank."""

import dataclasses
import math

import numpy as np
import pytest

import ctrlkit as ck
from ctrlkit import LtiSystem, NotControllableError
from ctrlkit import lincontrol, problems as pr
from ctrlkit.numcore import DenseOutput, GridError, simpson_grid

from conftest import random_controllable_pairs


def _dubins_gramian(T):
    """Closed-form Gramian of the Dubins linearization over one loop period T."""
    # R(T, t) B = (c(t), s(t), 1) with c = int_t^T -sin(k r) dr and s =
    # int_t^T cos(k r) dr, k = 2 pi / T; Gauss-Legendre integrates the
    # products of these entire functions to rounding.
    x, w = np.polynomial.legendre.leggauss(80)
    t, w = 0.5 * T * (x + 1.0), 0.5 * T * w
    v = np.stack([_dubins_c(T, t), _dubins_s(T, t), np.ones_like(t)])
    return (v * w) @ v.T


def _dubins_c(T, t):
    k = 2.0 * math.pi / T
    return (np.cos(k * T) - np.cos(k * t)) / k


def _dubins_s(T, t):
    k = 2.0 * math.pi / T
    return (np.sin(k * T) - np.sin(k * t)) / k


def _kinked(breaks):
    """x1' = u, x2' = |t - 0.7| x1, tabulated at (0, 0.7, 2) as the CLI builds it."""
    times = [0.0, 0.7, 2.0]
    A = np.array([[[0.0, 0.0], [abs(t - 0.7), 0.0]] for t in times])
    B = np.array([[[1.0], [0.0]] for _ in times])
    return ck.LtvSystem(2, 1, DenseOutput(times, A), DenseOutput(times, B), tuple(times) if breaks else ())


def _kinked_gramian():
    """Its exact Gramian over [0, 2]: R(2, t) B = (1, c(t)), c(t) = int_t^2 |r - 0.7| dr."""
    x, w = np.polynomial.legendre.leggauss(5)  # exact on each quartic piece
    G = np.zeros((2, 2))
    for a, b in ((0.0, 0.7), (0.7, 2.0)):
        t, wt = a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w
        c = np.where(t < 0.7, 0.5 * (0.7 - t) ** 2 + 0.5 * 1.3**2, 0.5 * (1.3**2 - (t - 0.7) ** 2))
        v = np.stack([np.ones_like(t), c])
        G += (v * wt) @ v.T
    return G


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
        rep = ck.gramian(sys, 1.0)
        assert np.allclose(
            rep.G, np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]]), atol=1e-9
        )
        assert rep.invertible

    def test_van_loan_gramian_is_exact(self):
        rep = ck.gramian(pr.double_integrator(), 1.0)
        exact = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
        assert np.max(np.abs(rep.G - exact)) <= 1e-14

    def test_spectral_dubins_gramian_matches_a_fine_reference(self):
        # G has a closed form (_dubins_gramian); one piece at N = 32 resolves it.
        T = 2.0 * math.pi
        rep = ck.gramian(pr.dubins_linearized(T), T)
        assert np.max(np.abs(rep.G - _dubins_gramian(T))) < 1e-13
        assert (rep.degree, rep.pieces) == (32, 1)

    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_spectral_rotating_frame_gramian_is_singular_to_rounding(self, T):
        # R(T, t) B(t) = (cos T, sin T) for every t: G_T = T b b^T, C_T = 0.
        rep = ck.gramian(pr.rotating_frame(), T)
        assert abs(rep.C_T) < 1e-15
        b = np.array([math.cos(T), math.sin(T)])
        assert np.max(np.abs(rep.G - T * np.outer(b, b))) < 1e-14 * T

    def test_kinked_tabulated_gramian_splits_at_its_breaks(self):
        rep = ck.gramian(_kinked(breaks=True), 2.0)
        assert np.max(np.abs(rep.G - _kinked_gramian())) < 1e-13
        assert rep.pieces == 2 and rep.degree == 16
        # breaks outside (0, T), repeated or unsorted change nothing
        messy = dataclasses.replace(_kinked(breaks=True), breaks=(5.0, 0.7, -1.0, 0.7, math.nan, 2.0))
        assert np.array_equal(ck.gramian(messy, 2.0).G, rep.G)

    def test_ltv_hum_across_pieces(self):
        # The adjoint is continuous across the break, and the RK4 endpoint
        # check reaches the target.
        res = ck.hum_control_finite(_kinked(breaks=True), 2.0, np.zeros(2), np.array([1.0, 0.5]), 200)
        assert res.endpoint_error < 1e-9
        left, right = res.law(0.7 - 1e-12), res.law(0.7 + 1e-12)
        assert abs(float(left[0]) - float(right[0])) < 1e-11

    def test_unresolved_gramian_raises_instead_of_a_value(self):
        # Without its break, the kink of A at 0.7 lies inside one Chebyshev
        # piece: A's coefficient tail is still 4e-6 at the capped degree 512
        # (n (N + 1) <= 1600).
        with pytest.raises(FloatingPointError, match="not resolved at Chebyshev degree 512"):
            ck.gramian(_kinked(breaks=False), 2.0)

    @pytest.mark.parametrize("T", [-1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("sys", [pr.double_integrator(), pr.rotating_frame()], ids=["lti", "ltv"])
    def test_gramian_refuses_bad_horizon(self, sys, T):
        with pytest.raises(GridError, match="0 < T < inf"):
            ck.gramian(sys, T)

    def test_ltv_hum_control_is_the_adjoint_between_nodes(self):
        # u(t) = B^T R(T, t)^T psi = c(t) psi_1 + s(t) psi_2 + psi_3 at any t.
        T = 2.0 * math.pi
        res = ck.hum_control_finite(pr.dubins_linearized(T), T, np.zeros(3), np.array([1.0, 0.0, 0.0]))
        for t in (0.0, 0.123, 1.7, math.pi, T):
            u = _dubins_c(T, t) * res.psi[0] + _dubins_s(T, t) * res.psi[1] + res.psi[2]
            assert abs(float(res.law(t)[0]) - u) < 1e-13

    def test_hum_recovers_minimum_norm_control(self):
        sys = pr.double_integrator()
        res = ck.hum_control_finite(sys, 1.0, np.zeros(2), np.array([1.0, 0.0]))
        u = np.array([res.law(t) for t in res.times]).ravel()
        assert np.max(np.abs(u - (6.0 - 12.0 * res.times))) < 1e-6
        assert res.endpoint_error < 1e-6
        assert abs(res.cost - 12.0) < 1e-8

    def test_lti_transition_grid_is_exact(self):
        # R(T, t) = [[1, T - t], [0, 1]] up to the rounding of T - t; powers of
        # expm(h A) gathered 2.2e-13 over 2000 steps, and the endpoint 3.7e-13.
        sys = pr.double_integrator()
        times = simpson_grid(1.0, 2000)[0]
        R = lincontrol._transition_grid(sys, times)
        exact = np.zeros_like(R)
        exact[:, 0, 0] = exact[:, 1, 1] = 1.0
        exact[:, 0, 1] = times[-1] - times
        assert np.max(np.abs(R - exact)) <= 2.0 * np.finfo(float).eps
        assert np.array_equal(R[-1], np.eye(2))
        res = ck.hum_control_finite(sys, 1.0, np.zeros(2), np.array([1.0, 0.0]), 2000)
        assert res.endpoint_error <= 1e-14

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
        # B_1 = A B - dB/dt vanishes identically, so sigma_2 / sigma_1 is
        # rounding alone (below 5e-11 at these t) and the rank stays 1 also at
        # a relative tolerance of 1e-9.
        sys = pr.rotating_frame()
        for tol in (1e-6, 1e-9):
            for t in (0.0, 0.5, 1.0, 2.0, 5.0):
                rank, ok = ck.ltv_kalman_test(sys, t, depth=3, tol=tol)
                assert rank == 1 and not ok

    def test_rank_from_derivatives_alone(self):
        # A = 0 and B(t) = (1, t, t^2): B_k = (-1)^k d^kB/dt^k, so depth 1 spans
        # two directions and depth 2 adds the constant third one, (0, 0, 2).
        sys = ck.LtvSystem(3, 1, lambda t: np.zeros((3, 3)), lambda t: np.array([1.0, t, t * t]))
        for t in (0.0, 1.0, 3.0):
            assert ck.ltv_kalman_test(sys, t, depth=1) == (2, False)
            for depth in (2, 3):
                assert ck.ltv_kalman_test(sys, t, depth=depth) == (3, True)

    def test_rotating_frame_fails_rank_test_at_large_t(self):
        # A radius growing with |t| gave rank 2 at t = 100 and 1000.  The
        # nodes t + rho s round by up to half an ulp of t; a model fitted at
        # the nominal nodes gave rank 2 from t = 2239 to 7943.
        sys = pr.rotating_frame()
        for t in (30.0, 100.0, 1000.0, 3000.0, 1e4, -1e4):
            assert ck.ltv_kalman_test(sys, t, depth=3) == (1, False)

    def test_fast_rotation_halves_rho(self):
        # At frequency 30 the 17-node model on [t - 0.1, t + 0.1] is not
        # resolved (rank 2, sigma_2 / sigma_1 = 2.6e-5); a halved rho is.
        w = 30.0
        A = w * np.array([[0.0, -1.0], [1.0, 0.0]])
        sys = ck.LtvSystem(2, 1, lambda t: A, lambda t: np.array([[np.cos(w * t)], [np.sin(w * t)]]))
        for t in (0.0, 1.0):
            assert ck.ltv_kalman_test(sys, t, depth=3) == (1, False)

    @pytest.mark.parametrize(
        "sys, t",
        [
            # B = |t| has its kink at the centre at every rho.
            (ck.LtvSystem(1, 1, lambda t: np.zeros((1, 1)), lambda t: np.array([[abs(t)]])), 0.0),
            # rho = 0.1 is under 1e3 ulps of t.
            (pr.rotating_frame(), 1e12),
        ],
        ids=["kink", "huge_t"],
    )
    def test_unresolved_model_raises_instead_of_a_rank(self, sys, t):
        with pytest.raises(FloatingPointError, match="no local model"):
            ck.ltv_kalman_test(sys, t, depth=3)

    @pytest.mark.parametrize("depth", [0, 17, 10**9])
    def test_depth_outside_model_degree_is_value_error(self, depth):
        # The local models have degree 16: B_17 would be a derivative that is 0.
        with pytest.raises(ValueError, match=r"depth must lie in \[1, 16\]"):
            ck.ltv_kalman_test(pr.triangular_ltv(), 1.0, depth=depth)

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
