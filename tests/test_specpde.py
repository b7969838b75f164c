"""Tests for spectral 1D heat/wave control: observability, HUM, moments,
damping decay, and semilinear boundary stabilization."""

import math

import numpy as np
import pytest

from ctrlkit import problems as pr
from ctrlkit.lincontrol import kalman_matrix
from ctrlkit.numcore import simpson_grid
from ctrlkit.specpde import (
    IllPosedError,
    _semilinear_rhs,
    _sin_product_integrals,
    IntervalUnion,
    SemilinearPlant,
    SineBasis,
    WaveState,
    biorthogonal_family,
    boundary_observation_energy,
    damping_decay_experiment,
    heat_evolve,
    hum_wave_boundary,
    internal_wave_observation,
    moment_heat_control,
    optimal_interval_union,
    periago_bound,
    semilinear_matrices,
    semilinear_stabilize,
    semilinear_steps,
    sin2_mass,
    wave_energy,
    wave_evolve,
)


class TestEvolution:
    def test_heat_mode_decay(self):
        basis = SineBasis(1.0, 4)
        c0 = np.array([1.0, -0.5, 0.25, 0.1])
        c = heat_evolve(basis, c0, 0.3)
        assert np.allclose(c, c0 * np.exp(-basis.mu * 0.3), atol=1e-14)

    def test_wave_energy_conserved(self):
        basis = SineBasis(1.0, 8)
        rng = np.random.default_rng(1)
        s = WaveState(rng.standard_normal(8), rng.standard_normal(8))
        e0 = wave_energy(basis, s)
        for t in (0.3, 1.0, 2.7):
            assert abs(wave_energy(basis, wave_evolve(basis, s, t)) - e0) < 1e-12

    def test_wave_period(self):
        # the sine-basis wave on (0, L) is 2L-periodic
        basis = SineBasis(1.0, 6)
        rng = np.random.default_rng(2)
        s = WaveState(rng.standard_normal(6), rng.standard_normal(6))
        s2 = wave_evolve(basis, s, 2.0)
        assert np.allclose(s2.a, s.a, atol=1e-12)
        assert np.allclose(s2.b, s.b, atol=1e-12)


class TestObservability:
    def test_boundary_ratio_two(self):
        L = 1.0
        basis = SineBasis(L, 32)
        rng = np.random.default_rng(10)
        for _ in range(10):
            s = WaveState(rng.standard_normal(32), rng.standard_normal(32))
            obs = boundary_observation_energy(basis, s, 2.0 * L)
            assert abs(obs / wave_energy(basis, s) - 2.0) < 1e-6

    def test_internal_diagonal_formula(self):
        L = 1.0
        basis = SineBasis(L, 16)
        omega = IntervalUnion([[0.15, 0.4], [0.6, 0.85]])
        rng = np.random.default_rng(11)
        s = WaveState(rng.standard_normal(16), rng.standard_normal(16))
        obs = internal_wave_observation(basis, s, omega, 2.0 * L)
        diag = L * sum(
            (s.a[j - 1] ** 2 + s.b[j - 1] ** 2) * sin2_mass(omega, j, basis)
            for j in range(1, 17)
        )
        assert abs(obs - diag) / abs(diag) < 1e-6

    def test_sin2_mass_against_quadrature(self):
        basis = SineBasis(1.0, 4)
        omega = IntervalUnion([[0.2, 0.55]])
        for j in (1, 3, 9):
            xs = np.linspace(0.2, 0.55, 20001)
            ref = np.trapezoid(np.sin(j * np.pi * xs) ** 2, xs)
            assert abs(sin2_mass(omega, j, basis) - ref) < 1e-9

    def test_periago_lower_bound(self):
        L = 1.0
        basis = SineBasis(L, 1)
        rng = np.random.default_rng(12)
        for j in list(range(1, 21)) + [50, 120, 200]:
            lo = rng.uniform(0.0, 0.5)
            hi = lo + rng.uniform(0.05, 0.45)
            omega = IntervalUnion([[lo, hi]])
            bound = periago_bound(omega.measure, L)
            assert sin2_mass(omega, j, basis) >= bound - 1e-12

    def test_periago_equality_on_optimal_set(self):
        L = 1.0
        basis = SineBasis(L, 1)
        for j in (1, 2, 7, 31, 200):
            omega = optimal_interval_union(j, 0.37, L)
            assert abs(
                sin2_mass(omega, j, basis) - periago_bound(0.37, L)
            ) < 1e-10


class TestHumWave:
    def test_steer_first_mode(self):
        basis = SineBasis(1.0, 8)
        y0 = WaveState(np.eye(8)[0], np.zeros(8))
        target = WaveState(np.zeros(8), np.zeros(8))
        res = hum_wave_boundary(basis, y0, target, 2.0)
        assert res.endpoint_error < 1e-6
        # duality: ||u||^2 = <G z, z> with the stacked minimizer (z.a, z.b)
        zeta = np.concatenate([res.z.a, res.z.b])
        quad = float(zeta @ (res.gramian @ zeta))
        assert abs(res.control_l2_sq - quad) < 1e-8

    def test_short_horizon_ill_conditioned(self):
        basis = SineBasis(1.0, 8)
        y0 = WaveState(np.eye(8)[0], np.zeros(8))
        target = WaveState(np.zeros(8), np.zeros(8))
        res = hum_wave_boundary(basis, y0, target, 1.0, force=True)
        assert res.condition_number > 1e6

    def test_short_horizon_detection_fires(self):
        basis = SineBasis(1.0, 16)
        y0 = WaveState(np.eye(16)[0], np.zeros(16))
        target = WaveState(np.zeros(16), np.zeros(16))
        with pytest.raises(IllPosedError):
            hum_wave_boundary(basis, y0, target, 1.0, force=True)

    def test_refuses_short_horizon_without_force(self):
        basis = SineBasis(1.0, 8)
        y0 = WaveState(np.eye(8)[0], np.zeros(8))
        target = WaveState(np.zeros(8), np.zeros(8))
        with pytest.raises(IllPosedError):
            hum_wave_boundary(basis, y0, target, 1.0)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_horizon_is_ill_posed_even_when_forced(self, T):
        basis = SineBasis(1.0, 4)
        y0 = WaveState(np.eye(4)[0], np.zeros(4))
        with pytest.raises(IllPosedError):
            hum_wave_boundary(basis, y0, WaveState(np.zeros(4), np.zeros(4)), T, force=True)


class TestMomentMethod:
    def test_biorthogonality_residuals(self):
        import mpmath as mp

        L, T, K = math.pi, 1.0, 6
        mu = [(j * math.pi / L) ** 2 for j in range(1, K + 1)]
        C, cond = biorthogonal_family(mu, T, K)
        with mp.workdps(80):
            worst = 0.0
            for k in range(K):
                for j in range(K):
                    # <theta_k, e^{-mu_j (T-t)}> over (0, T)
                    val = mp.mpf(0)
                    for i in range(K):
                        s = mp.mpf(mu[i]) + mp.mpf(mu[j])
                        val += C[i, k] * (1 - mp.e ** (-s * T)) / s
                    err = abs(val - (1 if j == k else 0))
                    worst = max(worst, float(err))
        assert worst < 1e-8

    def test_heat_control_four_modes(self):
        L = math.pi
        basis = SineBasis(L, 4)
        omega = IntervalUnion([[0.0, L / 2.0]])
        y0 = np.array([1.0, -0.5, 0.3, 0.2])
        # y_j(T) in closed form: only rounding survives.
        res = moment_heat_control(basis, omega, y0, 1.0, 4)
        assert res.max_final <= 1e-13

    def test_rejects_empty_overlap(self):
        # an interval where every mode mass vanishes cannot happen for
        # nonempty omega, but a zero-measure omega must be rejected
        L = math.pi
        basis = SineBasis(L, 2)
        with pytest.raises(Exception):
            moment_heat_control(
                basis, IntervalUnion([]), np.array([1.0, 0.0]), 1.0, 2
            )


class TestDamping:
    def test_damped_energy_envelope(self):
        basis = SineBasis(1.0, 16)
        omega = IntervalUnion([[0.2, 0.8]])
        res = damping_decay_experiment(basis, omega, 8.0)
        assert res.delta > 0.0
        envelope = 1.05 * res.C1 * res.energy[0] * np.exp(-res.delta * res.times)
        assert np.all(res.energy <= envelope + 1e-14)

    def test_conservative_energy_constant(self):
        basis = SineBasis(1.0, 16)
        res = damping_decay_experiment(basis, None, 8.0)
        assert np.max(np.abs(res.energy - res.energy[0])) < 1e-10


class TestSinProductIntegrals:
    @staticmethod
    def loop(omega, basis, N):
        """The double loop over mode pairs that the array expressions replace."""
        L = basis.L
        S = np.empty((N, N))
        for j in range(1, N + 1):
            for k in range(j, N + 1):
                if j == k:
                    val = sin2_mass(omega, j, basis)
                else:
                    wm = (j - k) * np.pi / L
                    wp = (j + k) * np.pi / L
                    val = 0.0
                    for lo, hi in omega.intervals:
                        val += 0.5 * (
                            (np.sin(wm * hi) - np.sin(wm * lo)) / wm
                            - (np.sin(wp * hi) - np.sin(wp * lo)) / wp
                        )
                S[j - 1, k - 1] = S[k - 1, j - 1] = val
        return S

    @pytest.mark.parametrize("L", [1.0, math.pi])
    def test_bit_identical_to_the_loop(self, L):
        basis = SineBasis(L, 16)
        omega = IntervalUnion([[0.1 * L, 0.35 * L], [0.55 * L, 0.9 * L]])
        S = _sin_product_integrals(omega, basis, 16)
        assert S.tobytes() == self.loop(omega, basis, 16).tobytes()


def _cubic_plant(L=1.0, n=1, N_sim=8):
    """f(y) = 12 y - y^3: f'(0) = 12, as for semilinear_heat, but not linear."""
    return SemilinearPlant(L=L, f=lambda y: 12.0 * y - y**3, f_prime_0=12.0, n=n, N_sim=N_sim, gamma=120.0)


def _per_part_rhs(plant, Krow):
    """The Galerkin right-hand side as first written, one part at a time."""
    n, Ns, L = plant.n, plant.N_sim, plant.L
    jj = np.arange(1, Ns + 1)
    mu = (jj * np.pi / L) ** 2
    b_all = -math.sqrt(2.0 / L) * L**2 * (-1.0) ** (jj + 1) / (jj * np.pi) / L
    xs, weights = simpson_grid(L, 200)
    E = math.sqrt(2.0 / L) * np.sin(np.outer(xs, jj) * np.pi / L)
    project = E.T * weights

    def rhs(t, state):
        u, z = state[0], state[1:]
        v = float(Krow @ np.concatenate([[u], z[:n]]))
        fz = project @ plant.f(E @ z + (xs / L) * u)
        return np.concatenate([[v], -mu * z + fz + b_all * v])

    return rhs


class TestSemilinear:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: pr.semilinear_heat(n=1),
            lambda: pr.semilinear_heat(L=2.0, n=3, N_sim=10),
            _cubic_plant,
            lambda: _cubic_plant(L=2.0, n=3, N_sim=10),
        ],
        ids=["linear", "linear_L2", "cubic", "cubic_L2"],
    )
    def test_operator_rhs_matches_per_part_formula(self, build):
        plant = build()
        rng = np.random.default_rng(11)
        Krow = rng.standard_normal(plant.n + 1)
        rhs = _semilinear_rhs(plant, Krow)[0]
        ref = _per_part_rhs(plant, Krow)
        for _ in range(20):
            state = 0.5 * rng.standard_normal(plant.N_sim + 1)
            want = ref(0.0, state)
            assert np.max(np.abs(rhs(0.0, state) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_cubic_small_data_decays(self):
        rng = np.random.default_rng(7)
        y0 = np.zeros(8)
        y0[0] = 0.3
        rest = rng.standard_normal(7)
        y0[1:] = rest * math.sqrt(1.0 - 0.09) / np.linalg.norm(rest)
        y0 *= 0.1
        res = semilinear_stabilize(_cubic_plant(), y0, T_sim=10.0)
        initial = np.linalg.norm(y0) + abs(res.u[0])
        final = np.linalg.norm(res.z[-1]) + abs(res.u[-1])
        assert final < 1e-3 * initial
        assert np.all(np.diff(res.V) <= 1e-12)
        # -y^3 acts: the states leave those of f = 12 y
        linear = semilinear_stabilize(pr.semilinear_heat(n=1), y0, T_sim=10.0)
        assert np.max(np.abs(res.z - linear.z)) > 1e-4

    @pytest.mark.parametrize(
        "L, N_sim, T_sim, steps, want",
        [
            (1.0, 8, 10.0, 2000, 2527),  # ceil(10 (8 pi)^2 / 2.5) = ceil(2526.6)
            (1.0, 8, 10.0, 3000, 3000),
            (1.0, 8, 1.0, 2000, 2000),
            (2.0, 8, 10.0, 1, 632),  # mu_N = (4 pi)^2
        ],
    )
    def test_step_count(self, L, N_sim, T_sim, steps, want):
        assert semilinear_steps(L, N_sim, T_sim, steps) == want
        plant = pr.semilinear_heat(L=L, c=2.0, n=1, N_sim=N_sim)
        assert len(semilinear_stabilize(plant, [0.01], T_sim, steps).times) == want + 1

    @pytest.mark.parametrize(
        "f, message",
        [
            (lambda y: 12.0 * math.sin(y), "f must act elementwise on an array"),  # scalars only
            (lambda y: 12.0 * float(np.sum(y)), "gave shape ()"),
            (lambda y: 12.0 * np.sin(y) + 1.0, r"f\(0\) = 0"),
            (lambda y: np.full_like(y, math.nan), r"f\(0\) = 0"),
        ],
        ids=["scalar_only", "reduces", "f0_nonzero", "nan"],
    )
    def test_plant_checks_f_on_an_array(self, f, message):
        # The simulation applies f to the whole space grid at once; before this
        # check a scalar-only f constructed and then failed inside the sweep.
        with pytest.raises(ValueError, match=message):
            SemilinearPlant(L=1.0, f=f, f_prime_0=12.0, n=1, N_sim=8, gamma=120.0)

    def test_step_count_past_float_range(self):
        with pytest.raises(ValueError, match="RK4 steps"):
            semilinear_steps(1e-3, 1000, 1e300, 2000)

    def test_coefficient_identity(self):
        # a_j + lambda_j b_j = -sqrt(2/L) (j pi / L) (-1)^j
        plant = pr.semilinear_heat(n=10)
        A, B, a, b, lam = semilinear_matrices(plant)
        L = plant.L
        for j in range(1, 11):
            lhs = a[j - 1] + lam[j - 1] * b[j - 1]
            rhs = -math.sqrt(2.0 / L) * (j * math.pi / L) * (-1.0) ** j
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_kalman_determinant_nonzero(self, n):
        plant = pr.semilinear_heat(n=n)
        A, B, a, b, lam = semilinear_matrices(plant)
        det = np.linalg.det(kalman_matrix(A, B))
        assert det != 0.0
        # Vandermonde-product form of the same determinant
        prod = np.prod([a[j] + lam[j] * b[j] for j in range(n)])
        vdm = np.prod(
            [lam[j] - lam[i] for j in range(n) for i in range(j)]
        ) if n > 1 else 1.0
        assert prod * vdm != 0.0

    def test_one_unstable_mode_decay(self):
        plant = pr.semilinear_heat(n=1)
        rng = np.random.default_rng(7)
        y0 = np.zeros(8)
        y0[0] = 0.3
        rest = rng.standard_normal(7)
        rest *= math.sqrt(1.0 - 0.09) / np.linalg.norm(rest)
        y0[1:] = rest
        y0 *= 0.01
        res = semilinear_stabilize(plant, y0, T_sim=10.0)
        initial = np.linalg.norm(y0) + abs(res.u[0])
        final = np.linalg.norm(res.z[-1]) + abs(res.u[-1])
        assert final < 1e-3 * initial
        assert np.all(np.diff(res.V) <= 1e-12)
        # the feedback actually acts
        assert np.max(np.abs(res.v)) > 0.0

    def test_closed_loop_spectrum_at_minus_one(self):
        plant = pr.semilinear_heat(n=2)
        y0 = np.zeros(8)
        y0[0] = 0.001
        res = semilinear_stabilize(plant, y0, T_sim=1.0)
        M = res.A_n + res.B_n @ res.K.reshape(1, -1)
        assert np.max(np.abs(np.linalg.eigvals(M).real + 1.0)) < 1e-4

    @pytest.mark.parametrize("T_sim", [0.0, -1.0, float("nan")])
    def test_nonpositive_horizon_is_rejected(self, T_sim):
        # Backward in time the heat flow blows up instead of decaying.
        with pytest.raises(ValueError, match="T_sim must be positive"):
            semilinear_stabilize(pr.semilinear_heat(n=1), [0.01], T_sim=T_sim)
