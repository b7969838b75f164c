"""Tests for stability criteria and feedback synthesis."""

import numpy as np
import pytest

import ctrlkit as ck
from ctrlkit import LtiSystem, NotControllableError
from ctrlkit import problems as pr

from conftest import random_controllable_pairs, separated_stable_poles


def random_polynomial(rng, n):
    """Monic degree-n polynomial with real roots of random sign pattern."""
    if rng.random() < 0.5:
        roots = rng.uniform(-3.0, 3.0, n)
    else:
        roots = -rng.uniform(0.1, 3.0, n)  # often Hurwitz
    return np.poly(roots), roots


class TestRouth:
    def test_paper_counterexample(self):
        # z^4 + z^2 + 1 has roots on neither side strictly; not Hurwitz
        rep = ck.routh([1.0, 0.0, 1.0, 0.0, 1.0])
        assert not rep.hurwitz

    def test_known_hurwitz(self):
        rep = ck.routh(np.poly([-1.0, -2.0, -3.0]))
        assert rep.hurwitz and rep.complete and rep.sign_changes == 0

    def test_agreement_with_roots_500(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            coeffs, roots = random_polynomial(rng, n)
            rep = ck.routh(coeffs)
            truth = bool(np.all(np.real(roots) < 0.0))
            assert rep.hurwitz == truth
            if rep.complete:
                unstable = int(np.sum(np.real(roots) > 0.0))
                assert rep.sign_changes == unstable

    def test_hurwitz_minors_agree_with_routh(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            coeffs, _ = random_polynomial(rng, n)
            minors, ok = ck.hurwitz(coeffs)
            rep = ck.routh(coeffs)
            assert ok == rep.hurwitz


class TestPolePlace:
    def test_double_integrator_exact(self):
        sys = pr.double_integrator()
        target = np.poly([-1.0, -2.0])
        K = ck.pole_place(sys, target)
        assert np.allclose(np.poly(sys.A + sys.B @ K), target, atol=1e-12)

    def test_pendulum_distinct_poles(self):
        sys = pr.pendulum_linear()
        poles = [-1.0, -2.0, -3.0, -4.0]
        K = ck.pole_place(sys, np.poly(poles))
        eig = np.sort(np.linalg.eigvals(sys.A + sys.B @ K).real)
        assert np.max(np.abs(eig - np.sort(poles))) < 1e-6

    def test_pendulum_defective_target_coefficients(self):
        sys = pr.pendulum_linear()
        target = np.poly([-1.0, -1.0, -1.0, -1.0])
        K = ck.pole_place(sys, target)
        assert np.max(np.abs(np.poly(sys.A + sys.B @ K) - target)) < 1e-8

    def test_multi_input_exact(self):
        # Maxwell-Bloch linearization has m = 2
        f = pr.maxwell_bloch_dynamics()
        x_bar, u_bar = pr.maxwell_bloch_equilibrium(2, 1.0, 0.0)
        sys = ck.linearize(f, x_bar, u_bar)
        target = np.poly([-1.0, -2.0, -3.0])
        K = ck.pole_place(sys, target)
        eig = np.sort(np.linalg.eigvals(sys.A + sys.B @ K).real)
        assert np.max(np.abs(eig - [-3.0, -2.0, -1.0])) < 1e-8

    def test_random_pairs_coefficient_residual(self):
        for sys, rng in random_controllable_pairs(21, 30, 6, 1):
            target = np.poly(separated_stable_poles(rng, sys.n))
            K = ck.pole_place(sys, target)
            assert np.max(np.abs(np.poly(sys.A + sys.B @ K) - target)) < 1e-8

    def test_repeated_and_complex_targets(self):
        # A repeated root reaches the deflation as a cluster of nearby roots
        # from np.roots, and a pair as one complex root; both must come out
        # with the coefficients at round-off, for every number of inputs.
        # With B = I every null direction ties, and the best one alone is
        # real up to a phase, which cannot carry a conjugate pair.
        f = pr.maxwell_bloch_dynamics()
        mb = ck.linearize(f, *pr.maxwell_bloch_equilibrium(2, 1.0, 0.0))
        cases = [(mb, [-1.0, -1.0, -1.0]), (mb, [-1.0 + 1.0j, -1.0 - 1.0j, -2.0])]
        for sys, _ in random_controllable_pairs(31, 40, 6, 3):
            n = sys.n
            pairs = [-1.0 - k / 2 + s * 1j for k in range(n // 2) for s in (1, -1)]
            cases += [(sys, [-1.0] * n), (sys, pairs + [-1.0 - (n - 1) / 2] * (n % 2))]
        cases += [(sys, [-1.5] * sys.n) for sys, _ in random_controllable_pairs(41, 40, 8, 1)]
        for n in range(2, 7):
            for A in (np.zeros((n, n)), np.eye(n), np.diag(np.arange(n) * 1.0)):
                sys = LtiSystem(A, np.eye(n))
                cases += [
                    (sys, [-1.0 + 1.0j, -1.0 - 1.0j] * (n // 2) + [-2.0] * (n % 2)),
                    (sys, [s * (k + 1) * 1j for k in range(n // 2) for s in (1, -1)] + [0.0] * (n % 2)),
                ]
        for sys, poles in cases:
            target = np.poly(poles).real
            K = ck.pole_place(sys, target)
            err = np.max(np.abs(np.poly(sys.A + sys.B @ K) - target))
            assert err <= 1e-8 * max(1.0, np.max(np.abs(target)))

    def test_multi_input_eigenvector_conditioning(self):
        # The null-vector rule keeps the closed-loop eigenvector basis well
        # conditioned; taking the smallest gain at every root reads a
        # geometric mean of 64 and a max of 6.2e4 here.
        conds = []
        for sys, rng in random_controllable_pairs(11, 130, 8, 3):
            # Draw the target first: the next pair comes from the same generator.
            target = np.poly(separated_stable_poles(rng, sys.n))
            if sys.m < 2:
                continue
            K = ck.pole_place(sys, target)
            conds.append(np.linalg.cond(np.linalg.eig(sys.A + sys.B @ K)[1]))
        assert np.exp(np.mean(np.log(conds))) <= 15.0
        assert max(conds) <= 1e4

    def test_rejects_uncontrollable(self):
        sys = LtiSystem(np.eye(2), np.array([[1.0], [0.0]]))
        with pytest.raises(NotControllableError):
            ck.pole_place(sys, np.poly([-1.0, -2.0]))

    def test_rejects_wrong_degree(self):
        sys = pr.double_integrator()
        with pytest.raises(Exception):
            ck.pole_place(sys, np.poly([-1.0, -2.0, -3.0]))


class TestLyapunov:
    def test_equation_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
            if np.max(np.linalg.eigvals(A).real) >= 0.0:
                continue
            P = ck.lyapunov_solve(A)
            assert np.allclose(A.T @ P + P @ A, -np.eye(n), atol=1e-9)
            assert np.min(np.linalg.eigvalsh(P)) > 0.0

    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError):
            ck.lyapunov_solve(np.array([[1.0]]))


class TestLinearize:
    def test_pendulum_upright(self):
        f = pr.pendulum_dynamics()
        sys = ck.linearize(f, np.zeros(4), np.zeros(1))
        ref = pr.pendulum_linear()
        assert np.allclose(sys.A, ref.A, atol=1e-6)
        assert np.allclose(sys.B, ref.B, atol=1e-6)

    def test_without_inputs(self):
        sys = ck.linearize(lambda x, u: np.array([x[1], -np.sin(x[0])]), np.zeros(2), np.zeros(0))
        assert np.allclose(sys.A, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-9)
        assert sys.B.shape == (2, 0)

    def test_rejects_non_equilibrium(self):
        f = pr.pendulum_dynamics()
        with pytest.raises(ck.EquilibriumError):
            ck.linearize(f, np.array([0.0, 1.0, 0.3, 0.0]), np.zeros(1))


class TestClosedLoop:
    def test_linear_decay_oracle(self):
        # stable closed loop with pole set {-1}: ||x(T)|| < ||x0|| e^{-T/2}
        sys = pr.double_integrator()
        K = ck.pole_place(sys, np.poly([-1.0, -1.0]))
        T = 10.0
        x0 = np.array([1.0, 0.5])
        traj, _, _ = ck.simulate_closed_loop(
            lambda x, u: sys.A @ x + sys.B @ u, lambda t, x: K @ x, x0, T, 2000
        )
        assert np.linalg.norm(traj.states[-1]) < np.linalg.norm(x0) * np.exp(-0.5 * T)

    def test_pendulum_local_stabilization(self):
        f = pr.pendulum_dynamics()
        sys = pr.pendulum_linear()
        K = ck.pole_place(sys, np.poly([-1.0, -2.0, -3.0, -4.0]))
        x0 = np.array([0.05, 0.0, -0.04, 0.0])
        traj, _, _ = ck.simulate_closed_loop(
            lambda x, u: f(x, u), lambda t, x: K @ x, x0, 20.0, 4000
        )
        assert np.linalg.norm(traj.states[-1]) < 1e-6

    def test_jurdjevic_quinn_predator_prey(self):
        f, drift, g, V, gradV = pr.predator_prey()
        law = ck.jurdjevic_quinn_feedback([g], gradV)
        x0 = np.array([1.3, 0.8])
        traj, controls, Vs = ck.simulate_closed_loop(f, x0=x0, law=law, T=40.0, steps=4000, V=V)
        # V decreases along the closed loop and the state converges to (1, 1)
        assert np.all(np.diff(Vs) <= 1e-12)
        assert np.linalg.norm(traj.states[-1] - np.array([1.0, 1.0])) < 1e-4

    def test_jurdjevic_quinn_saturation(self):
        f, drift, g, V, gradV = pr.predator_prey()
        law = ck.jurdjevic_quinn_feedback([g], gradV, saturation=0.01)
        _, controls, Vs = ck.simulate_closed_loop(
            f, law, np.array([1.3, 0.8]), 10.0, 1000, V=V
        )
        assert np.max(np.abs(controls)) <= 0.01 + 1e-12
        assert np.all(np.diff(Vs) <= 1e-12)

    @pytest.mark.parametrize(
        "x0, T, steps, message",
        [
            ([1.0, 0.5], 1.0, 0, "steps must be an integer >= 1 and 0 < T < inf"),
            ([[1.0, 0.5]], 1.0, 10, "x0 must be a vector"),
            (1.0, 1.0, 10, "x0 must be a vector"),
            ([1.0, 0.5], 0.0, 10, "steps must be an integer >= 1 and 0 < T < inf"),
            ([1.0, 0.5], -1.0, 10, "steps must be an integer >= 1 and 0 < T < inf"),
        ],
    )
    def test_rejects_bad_horizon_grid_or_state(self, x0, T, steps, message):
        with pytest.raises(ValueError, match=message):
            ck.simulate_closed_loop(lambda x, u: -x, lambda t, x: np.zeros(1), x0, T, steps)
