"""Tests for spectral 1D heat/wave control: observability, HUM, moments,
damping decay, and semilinear boundary stabilization."""

import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest

from ctrlkit import problems as pr
from ctrlkit import specpde
from ctrlkit.lincontrol import kalman_matrix
from ctrlkit.numcore import DimensionError, GridError, expm, simpson_grid
from ctrlkit.specpde import (
    IllPosedError,
    _semilinear_rhs,
    _sin_product_integrals,
    _trig_gram,
    _wave_control_operator,
    IntervalUnion,
    KTooLargeError,
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


def _gauss_legendre_40(T, rate):
    """Nodes and weights on [0, T] for products of sines and cosines that turn
    at most `rate` radians per unit time: 32-point Gauss-Legendre on pieces over
    which they turn at most 4 pi, where its error is below 1e-50.  Call it, and
    sum with its output, under mp.workdps(40)."""
    X, W = mp.gauss_quadrature(32, "legendre")
    m = max(1, math.ceil(T * rate / (4.0 * math.pi)))
    half = mp.mpf(T) / (2 * m)
    nodes = [half * (2 * k + 1 + x) for k in range(m) for x in X]
    return nodes, [half * w for _ in range(m) for w in W]


def _trig_gram_40(omega, T):
    """int_0^T f f' dt, f(t) = (sin(omega t), cos(omega t)): rows of mpf, 40-digit quadrature."""
    with mp.workdps(40):
        t, w = _gauss_legendre_40(T, 2.0 * max(omega))
        om = [mp.mpf(float(o)) for o in omega]
        F = [[mp.sin(o * s) for s in t] for o in om] + [[mp.cos(o * s) for s in t] for o in om]
        return [[mp.fdot([wi * fi for wi, fi in zip(w, row)], col) for col in F] for row in F]


def _trig_gram_exact(k, L, intervals):
    """sum over [a, b] of int_a^b f f' dt, f(t) = (sin, cos)(k pi t / L) at the exact frequencies:
    the antiderivatives sin(x t) / x and -cos(x t) / x at 40 digits, rounded to floats at the end."""
    with mp.workdps(40):
        om = [int(j) * mp.pi / L for j in k]
        ivs = [(mp.mpf(a), mp.mpf(b)) for a, b in intervals]

        def cos_int(x):
            return mp.fsum(b - a if x == 0 else (mp.sin(x * b) - mp.sin(x * a)) / x for a, b in ivs)

        def sin_int(x):
            return mp.fsum(0 if x == 0 else (mp.cos(x * a) - mp.cos(x * b)) / x for a, b in ivs)

        ss, sc, cc = (
            np.array([[float(g(p, q)) for q in om] for p in om])
            for g in (
                lambda p, q: (cos_int(p - q) - cos_int(p + q)) / 2,
                lambda p, q: (sin_int(p - q) + sin_int(p + q)) / 2,
                lambda p, q: (cos_int(p - q) + cos_int(p + q)) / 2,
            )
        )
    return np.block([[ss, sc], [sc.T, cc]])


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

    def test_functionals_off_the_period_match_a_40_digit_quadrature(self):
        # At T = 2.5 the products do not integrate over whole periods; Simpson's
        # rule on 2000 steps is about 1e-11 off here, relative.
        basis, T = SineBasis(1.0, 8), 2.5
        k = np.arange(1.0, 9.0)
        s = WaveState(1.0 / k, (-1.0) ** k / k**2)
        omega = IntervalUnion([(0.1, 0.3), (0.6, 0.75)])
        S = _sin_product_integrals(omega, basis, 8)
        with mp.workdps(40):
            t, w = _gauss_legendre_40(T, 2.0 * basis.omega[-1])
            om = [mp.mpf(float(o)) for o in basis.omega]
            modes = list(zip(s.a, s.b, om))
            amps = [[a * mp.cos(o * x) + b * mp.sin(o * x) for a, b, o in modes] for x in t]
            trace = [mp.fsum((-1) ** j * cj for j, cj in enumerate(c, 1)) for c in amps]
            boundary = float(mp.fdot(w, [v**2 for v in trace]))
            internal = float(mp.fdot(w, [mp.fdot(c, [mp.fdot(row, c) for row in S]) for c in amps]))
        assert abs(boundary_observation_energy(basis, s, T) - boundary) < 1e-14 * boundary
        assert abs(internal_wave_observation(basis, s, omega, T) - internal) < 1e-14 * internal

    def test_sin2_mass_against_quadrature(self):
        basis = SineBasis(1.0, 4)
        omega = IntervalUnion([[0.2, 0.55]])
        for j in (1, 3, 9):
            with mp.workdps(40):
                ref = float(mp.quad(lambda x: mp.sin(j * mp.pi * x) ** 2, [0.2, 0.55]))
            assert abs(sin2_mass(omega, j, basis) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize(
        "call",
        [
            lambda basis, s: boundary_observation_energy(basis, s, 2.0),
            lambda basis, s: internal_wave_observation(basis, s, IntervalUnion([(0.2, 0.5)]), 2.0),
            lambda basis, s: hum_wave_boundary(basis, s, s, 2.0),
            lambda basis, s: heat_evolve(basis, s.a, 0.3),
            lambda basis, s: wave_evolve(basis, s, 0.3),
        ],
        ids=[
            "boundary_observation_energy",
            "internal_wave_observation",
            "hum_wave_boundary",
            "heat_evolve",
            "wave_evolve",
        ],
    )
    def test_more_modes_than_the_basis(self, call):
        s = WaveState(np.ones(6), np.zeros(6))
        with pytest.raises(DimensionError, match="of 6 modes does not fit a basis of 4"):
            call(SineBasis(1.0, 4), s)

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

    @pytest.mark.parametrize(
        "T, steps, force",
        [(2.5, 250, False), (2.5, 2000, False), (1.5, 2000, True), (1.0, 2000, True)],
    )
    def test_endpoint_error_bounds_the_miss(self, T, steps, force):
        # How far the control leaves the truncated wave from y1 is |G z - (y1 - S(T) y0)|,
        # with G from a 40-digit quadrature; the Simpson check must not report less.
        basis = SineBasis(1.0, 8)
        y0 = WaveState(np.eye(8)[0], np.zeros(8))
        res = hum_wave_boundary(basis, y0, WaveState(np.zeros(8), np.zeros(8)), T, steps, force)
        d = np.tile(_wave_control_operator(basis, 8), 2)
        z = np.concatenate([res.z.a, res.z.b])
        free = wave_evolve(basis, y0, T)
        K = _trig_gram_40(basis.omega, T)
        with mp.workdps(40):
            dz = [mp.mpf(dj) * zj for dj, zj in zip(d, z)]
            Gz = [d[i] * mp.fdot(row, dz) for i, row in enumerate(K)]
            free_T = np.concatenate([free.a, free.b])
            miss = mp.sqrt(mp.fsum((g + r) ** 2 for g, r in zip(Gz, free_T)))
        assert res.endpoint_error >= miss


class TestTrigGram:
    @pytest.mark.parametrize(
        "omega, T",
        [
            (SineBasis(1.0, 8).omega, 2.0),  # the period 2L
            (SineBasis(1.0, 8).omega, 2.5),
            (SineBasis(1.0, 8).omega, 1.0),
            # Many periods, and a near-equal pair, where 1 - cos(x T) would cancel.
            (np.array([0.3, 0.3 + 1e-9, 0.5]), 1e3),
        ],
    )
    def test_matches_a_40_digit_quadrature(self, omega, T):
        K = _trig_gram(omega, 1.0, [(0.0, T)])
        ref = np.array(_trig_gram_40(omega, T), dtype=float)
        assert np.array_equal(K, K.T)
        assert np.max(np.abs(K - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_finite_and_exact_at_a_huge_horizon(self):
        # T^2 overflows: (x / 2) (T sinc)^2 would give inf * 0 = nan where x = 0.
        T = 1e200
        K = _trig_gram(SineBasis(1.0, 4).j, np.pi, [(0.0, T)])
        assert np.all(np.isfinite(K))
        # sin^2 and cos^2 integrate to T/2 up to 1/(4 omega), far below an ulp
        # of T/2.  Every other entry is half a sum of two integrals of cos(x t)
        # or sin(x t) with x = 0 (sin only, 0) or |x| >= pi (at most 2/pi each).
        assert np.array_equal(np.diag(K), np.full(8, T / 2))
        assert np.max(np.abs(K - np.diag(np.diag(K)))) <= 2.0 / np.pi

    @pytest.mark.parametrize("N, L, T", [(32, 1.0, 2.0), (16, 3.0, 7.7)])
    def test_exact_frequencies(self, N, L, T):
        # x = (i -+ j) pi / L is rounded once from the mode numbers; the difference of the
        # rounded omega_i and omega_j was 3.5e-15 and 1.3e-15 (relative) off here.
        K = _trig_gram(np.arange(1, N + 1), np.pi / L, [(0.0, T)])
        ref = _trig_gram_exact(range(1, N + 1), L, [(0.0, T)])
        assert np.max(np.abs(K - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "intervals",
        [
            [(0.0, 0.0)],
            [(0.5, 0.2)],
            [(0.0, math.nan)],
            [(0.0, math.inf)],
            [(-math.inf, 0.0)],
            [(0.0, 1.0), (2.0, 2.0)],
        ],
    )
    def test_bad_interval_raises(self, intervals):
        with pytest.raises(GridError):
            _trig_gram(np.arange(1, 4), np.pi, intervals)

    def test_no_intervals_give_zeros(self):
        basis, empty = SineBasis(1.0, 4), IntervalUnion([])
        assert sin2_mass(empty, 3, basis) == 0.0
        assert np.array_equal(_sin_product_integrals(empty, basis, 4), np.zeros((4, 4)))
        assert np.array_equal(_trig_gram(np.arange(1, 4), np.pi, []), np.zeros((6, 6)))


class TestMomentMethod:
    def test_biorthogonality_residuals(self):
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

    @pytest.mark.parametrize("N, T, feasible", [(12, 1e-4, 9), (8, 1e-6, 6)])
    def test_ill_conditioned_family_names_the_feasible_size(self, N, T, feasible):
        # The Gram condition passes 1e65 past K = feasible; the error says where.
        with pytest.raises(KTooLargeError, match=f"largest feasible K={feasible}$") as info:
            biorthogonal_family([float(k * k) for k in range(1, N + 1)], T, N)
        assert info.value.feasible_K == feasible

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

    def test_samples_the_requested_count(self):
        basis, omega = SineBasis(1.0, 4), IntervalUnion([[0.2, 0.8]])
        odd = damping_decay_experiment(basis, omega, 8.0, samples=3)
        assert np.array_equal(odd.times, (8.0 / 3.0) * np.arange(4))
        even = damping_decay_experiment(basis, omega, 8.0, samples=400)
        assert np.array_equal(even.times, simpson_grid(8.0, 400)[0].times)


class TestSinProductIntegrals:
    @pytest.mark.parametrize("L", [1.0, math.pi, 7.3])
    def test_matches_40_digits(self, L):
        basis = SineBasis(L, 16)
        intervals = [(0.1 * L, 0.35 * L), (0.55 * L, 0.9 * L)]
        S = _sin_product_integrals(IntervalUnion(intervals), basis, 16)
        ref = _trig_gram_exact(range(1, 17), L, intervals)[:16, :16]
        assert np.max(np.abs(S - ref)) <= 1e-15 * np.max(np.abs(ref))


def _cubic_plant(L=1.0, n=1, N_sim=8):
    """f(y) = 12 y - y^3: f'(0) = 12, as for semilinear_heat, but not linear."""
    return SemilinearPlant(L=L, f=lambda y: 12.0 * y - y**3, f_prime_0=12.0, n=n, N_sim=N_sim, gamma=120.0)


def _per_part_rhs(plant, Krow):
    """The Galerkin right-hand side as first written, one part at a time."""
    n, Ns, L = plant.n, plant.N_sim, plant.L
    jj = np.arange(1, Ns + 1)
    mu = (jj * np.pi / L) ** 2
    b_all = -math.sqrt(2.0 / L) * L**2 * (-1.0) ** (jj + 1) / (jj * np.pi) / L
    space, weights = simpson_grid(L, 200)
    xs = space.times
    E = math.sqrt(2.0 / L) * np.sin(np.outer(xs, jj) * np.pi / L)
    project = E.T * weights

    def rhs(t, state):
        u, z = state[0], state[1:]
        v = float(Krow @ np.concatenate([[u], z[:n]]))
        fz = project @ plant.f(E @ z + (xs / L) * u)
        return np.concatenate([[v], -mu * z + fz + b_all * v])

    return rhs


def _marked_linear(f):
    f.linear = True
    return f


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
        rhs, M = _semilinear_rhs(plant, Krow)[:2]
        ref = _per_part_rhs(plant, Krow)
        linear = getattr(plant.f, "linear", False)
        for _ in range(20):
            state = 0.5 * rng.standard_normal(plant.N_sim + 1)
            want = ref(0.0, state)
            assert np.max(np.abs(rhs(0.0, state) - want)) <= 1e-14 * np.max(np.abs(want))
            if linear:  # the system the linear-rate path sweeps: s' = M s
                assert np.max(np.abs(M @ state - want)) <= 1e-14 * np.max(np.abs(want))

    def test_linear_rate_paths_agree(self, monkeypatch):
        # f = 12 y marked linear runs on rk4_linear_sweep, unmarked on rk4_sweep:
        # the same ODE on the same 2527-step grid.
        swept, sweep = [], specpde.rk4_linear_sweep

        def spy(*args):
            swept.append(len(args[2].times))
            return sweep(*args)

        monkeypatch.setattr(specpde, "rk4_linear_sweep", spy)
        y0 = [0.003, 0.002, -0.004, 0.005, -0.003, 0.002, -0.001, 0.001]
        plant = pr.semilinear_heat(n=1)
        marked = semilinear_stabilize(plant, y0, T_sim=10.0)
        assert swept == [2528]
        plain = semilinear_stabilize(dataclasses.replace(plant, f=lambda y: 12.0 * y), y0, T_sim=10.0)
        semilinear_stabilize(_cubic_plant(), y0, T_sim=10.0)
        assert swept == [2528]  # neither the unmarked nor the cubic f
        assert len(marked.times) == 2528
        assert marked.times.tobytes() == plain.times.tobytes()
        for a, b in ((marked.u, plain.u), (marked.z, plain.z)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("marked", [True, False])
    def test_fourth_order_against_the_exponential(self, marked):
        # s' = M s has the exact flow expm(T M) s0.  At T = 0.5 the 200 and
        # 400 step grids are above the stability refinement (127 steps) and
        # well above rounding (reached by 1600 steps), so halving h divides
        # the final error by about 2^4.
        plant = pr.semilinear_heat(L=1.0, N_sim=8)
        if not marked:
            plant = dataclasses.replace(plant, f=lambda y: 12.0 * y)
        y0 = [0.3, -0.2, 0.1, 0.05, -0.04, 0.03, -0.02, 0.01]
        errors = []
        for steps in (200, 400):
            res = semilinear_stabilize(plant, y0, 0.5, steps)
            M = _semilinear_rhs(plant, res.K.ravel())[1]
            exact = expm(0.5 * M) @ np.concatenate([[0.0], y0])
            final = np.concatenate([[res.u[-1]], res.z[-1]])
            errors.append(np.max(np.abs(final - exact)) / np.max(np.abs(exact)))
        assert 14.0 < errors[0] / errors[1] < 18.0

    def test_rounding_floor_is_flat_in_the_step_count(self):
        # From 1600 steps on the marked plant's error is rounding alone.  A
        # step matrix applied whole rounds its diagonal 1 + Delta the same way
        # at every step, so its error grows with the step count (1.8e-13 at
        # 1600 steps, 2.1e-12 at 25600); products kept as I + D read 2e-14 to
        # 3e-14.
        plant = pr.semilinear_heat(L=1.0, N_sim=8)
        y0 = [0.3, -0.2, 0.1, 0.05, -0.04, 0.03, -0.02, 0.01]
        for steps in (1600, 3200, 6400, 25600):
            res = semilinear_stabilize(plant, y0, 0.5, steps)
            M = _semilinear_rhs(plant, res.K.ravel())[1]
            exact = expm(0.5 * M) @ np.concatenate([[0.0], y0])
            final = np.concatenate([[res.u[-1]], res.z[-1]])
            assert np.max(np.abs(final - exact)) / np.max(np.abs(exact)) < 1e-13, steps

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
            (_marked_linear(lambda y: 11.0 * y), r"an f marked linear must be f\(y\) = f_prime_0 y"),
        ],
        ids=["scalar_only", "reduces", "f0_nonzero", "nan", "marked_linear_rate_differs"],
    )
    def test_plant_checks_f_on_an_array(self, f, message):
        # The simulation applies f to the whole space grid at once; before this
        # check a scalar-only f constructed and then failed inside the sweep.
        with pytest.raises(ValueError, match=message):
            SemilinearPlant(L=1.0, f=f, f_prime_0=12.0, n=1, N_sim=8, gamma=120.0)

    @pytest.mark.parametrize("steps", [2.5, 0, -1])
    def test_step_count_refuses_what_grid_refuses(self, steps):
        # Before the check, a stability refinement of 2527 steps hid these.
        message = f"steps must be an integer >= 1 and 0 < T < inf, got steps={steps}, T=10.0"
        with pytest.raises(GridError, match=re.escape(message)):
            semilinear_steps(1.0, 8, 10.0, steps)
        with pytest.raises(GridError, match=re.escape(message)):
            semilinear_stabilize(pr.semilinear_heat(n=1), [0.01], 10.0, steps)

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
        with pytest.raises(GridError, match="steps must be an integer >= 1 and 0 < T < inf"):
            semilinear_stabilize(pr.semilinear_heat(n=1), [0.01], T_sim=T_sim)
