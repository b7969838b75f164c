"""Acceptance gate: one test per numbered criterion.

Each test states its criterion and checks the published tolerances exactly.
Shared extremals (criteria 8/9) are computed once per module.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ctrlkit as ck
from ctrlkit import LtiSystem
from ctrlkit import problems as pr
from ctrlkit.lincontrol import kalman_matrix
from ctrlkit.optctrl import LqProblem
from ctrlkit.specpde import (
    IntervalUnion,
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
    sin2_mass,
    wave_energy,
)

from conftest import di_min_time_oracle, random_controllable_pairs, separated_stable_poles

SPECS = os.path.join(os.path.dirname(__file__), "..", "specs")


def test_criterion_01_kalman_hautus_golden_suite():
    t0 = time.time()
    assert ck.kalman_test(pr.rlc()).controllable
    assert ck.hautus_test(pr.rlc())[0]
    for k2, expected in ((0.0, False), (0.5, True)):
        sys_ = pr.coupled_springs(1.0, k2)
        assert ck.kalman_test(sys_).controllable is expected
        assert ck.hautus_test(sys_)[0] is expected
    for alpha in (0.0, 1.0, 2.0):
        expected = alpha * (alpha - 1.0) != 0.0
        sys_ = pr.alpha_system(alpha)
        assert ck.kalman_test(sys_).controllable is expected
        assert ck.hautus_test(sys_)[0] is expected
    f = pr.maxwell_bloch_dynamics()
    for fam, first, expected in ((1, 0.7, True), (1, -1.2, True), (2, 1.0, True), (2, 0.0, False)):
        xbar, ubar = pr.maxwell_bloch_equilibrium(fam, first, 0.5 if fam == 1 else 0.0)
        sys_ = ck.linearize(f, xbar, ubar)
        assert ck.kalman_test(sys_).controllable is expected
        assert ck.hautus_test(sys_)[0] is expected
    assert time.time() - t0 < 1.0


def test_criterion_02_hautus_kalman_property():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        if rng.random() < 0.3:  # mix in structurally uncontrollable pairs
            A = np.triu(A)
            B = np.zeros((n, m))
            B[: max(1, n // 2)] = rng.standard_normal((max(1, n // 2), m))
        else:
            B = rng.standard_normal((n, m))
        sys_ = LtiSystem(A, B)
        assert ck.hautus_test(sys_, tol=1e-9)[0] == ck.kalman_test(sys_, tol=1e-9).controllable
    for _ in range(50):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, int(rng.integers(1, 4))))
        rank = ck.kalman_test(LtiSystem(A, B)).rank
        P = rng.standard_normal((n, n))
        while abs(np.linalg.det(P)) < 1e-3:
            P = rng.standard_normal((n, n))
        sys2 = LtiSystem(P @ A @ np.linalg.inv(P), P @ B)
        assert ck.kalman_test(sys2).rank == rank


def gramian_hum_run():
    """The criterion 3 data: the double integrator's Gramian error at T = 1,
    and the max error of its HUM control from 6 - 12 t, with the control's
    endpoint_error and cost."""
    sys_ = pr.double_integrator()
    rep = ck.gramian(sys_, 1.0)
    gramian_error = float(np.max(np.abs(rep.G - np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]]))))
    res = ck.hum_control_finite(sys_, 1.0, np.zeros(2), np.array([1.0, 0.0]))
    u = np.array([res.law(t) for t in res.times]).ravel()
    return gramian_error, float(np.max(np.abs(u - (6.0 - 12.0 * res.times)))), res


def test_criterion_03_gramian_and_hum():
    gramian_error, control_error, res = gramian_hum_run()
    assert gramian_error < 1e-9
    assert control_error < 1e-6
    assert res.endpoint_error < 1e-6
    assert abs(res.cost - 12.0) < 1e-8


def time_varying_run():
    """The criterion 4 data: the depth-3 Kalman tests, each (rank, ok), of the
    triangular LTV system at t = 0.5, 1, 2 and of the rotating frame at
    t = 0, 0.5, 1, 2, 5, and the rotating frame's Gramian reports at T = 1, 5."""
    sys_ = pr.triangular_ltv()  # the diag(t, t^3, t^2)-style book example
    triangular = [ck.ltv_kalman_test(sys_, t, depth=3) for t in (0.5, 1.0, 2.0)]
    rot = pr.rotating_frame()
    rotating = [ck.ltv_kalman_test(rot, t, depth=3) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
    return triangular, rotating, {T: ck.gramian(rot, T) for T in (1.0, 5.0)}


def test_criterion_04_time_varying_tests():
    triangular, rotating, reports = time_varying_run()
    for rank, ok in triangular:
        assert ok and rank == 3
    for _, ok in rotating:
        assert not ok
    for rep in reports.values():
        assert rep.C_T < 1e-12 and not rep.invertible


def test_criterion_05_routh_hurwitz():
    assert not ck.routh([1.0, 0.0, 1.0, 0.0, 1.0]).hurwitz
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            roots = rng.uniform(-3.0, 3.0, n)
        else:
            roots = -rng.uniform(0.1, 3.0, n)
        rep = ck.routh(np.poly(roots))
        assert rep.hurwitz == bool(np.all(roots < 0.0))
        if rep.complete:
            assert rep.sign_changes == int(np.sum(roots > 0.0))


def pole_placement_run():
    """The criterion 6 data: over 100 random controllable pairs, the worst
    eigenvalue error of the closed loop and the worst characteristic-polynomial
    coefficient error of the single-input ones; the pairs skipped as too
    non-normal; and the pendulum's eigenvalue and coefficient errors."""
    # Pairs whose closed loop is too non-normal (eigenvector condition number
    # > 1e5) are skipped: for those, float64 eigvals itself misreports the
    # spectrum of even an exactly placed gain, so the 1e-6 multiset comparison
    # is not measurable.
    kept = 0
    skipped = 0
    eig_errors, coeff_errors = [], []
    pairs = random_controllable_pairs(11, 130, 8, 3)
    while kept < 100:
        sys_, rng = next(pairs)
        target = np.poly(separated_stable_poles(rng, sys_.n))
        K = ck.pole_place(sys_, target)
        M = sys_.A + sys_.B @ K
        _, V = np.linalg.eig(M)
        if np.linalg.cond(V) > 1e5:
            skipped += 1
            continue
        kept += 1
        got = np.sort_complex(np.linalg.eigvals(M))
        want = np.sort_complex(np.roots(target))
        eig_errors.append(np.max(np.abs(got - want)))
        if sys_.m == 1:
            coeff_errors.append(np.max(np.abs(np.poly(M) - target)))
    # pendulum example
    sys_ = pr.pendulum_linear()
    target = np.poly([-1.0, -2.0, -3.0, -4.0])
    K = ck.pole_place(sys_, target)
    got = np.sort(np.linalg.eigvals(sys_.A + sys_.B @ K).real)
    pendulum_eig = float(np.max(np.abs(got - np.array([-4.0, -3.0, -2.0, -1.0]))))
    pendulum_coeff = float(np.max(np.abs(np.poly(sys_.A + sys_.B @ K) - target)))
    # np.max propagates a NaN item, so the asserts fail on it as per-pair asserts would
    return (
        float(np.max(eig_errors)),
        float(np.max(coeff_errors)),
        skipped,
        pendulum_eig,
        pendulum_coeff,
    )


def test_criterion_06_pole_placement():
    eig_error, coeff_error, skipped, pendulum_eig, pendulum_coeff = pole_placement_run()
    assert eig_error < 1e-6
    assert coeff_error < 1e-8
    assert skipped < 40  # the filter removes outliers, not the population
    assert pendulum_eig < 1e-6
    assert pendulum_coeff < 1e-8


def _scalar_lq():
    return LqProblem(
        sys=LtiSystem(np.array([[0.0]]), np.array([[1.0]])),
        W=np.array([[1.0]]),
        U=np.array([[1.0]]),
        Q=np.array([[0.0]]),
        T=2.0,
    )


def riccati_lq_run():
    """The criterion 7 data: the max error of the scalar Riccati solution from
    -tanh(2 - t), the LQ cost, its gap from x0' (-P(0)) x0, and the lowest cost
    of 1000 random piecewise-constant open-loop controls."""
    p = _scalar_lq()
    sol = ck.riccati_solve(p, steps=2000)
    ts = np.linspace(0.0, 2.0, 2001)
    got = np.array([sol.at(t)[0, 0] for t in ts])
    riccati_error = float(np.max(np.abs(got + np.tanh(2.0 - ts))))
    law = ck.lq_feedback(sol, p)
    x0 = np.array([1.0])
    cost, _, _ = ck.lq_cost(p, law, x0, steps=2000)
    value_gap = abs(cost - float(x0 @ (-sol.at(0.0)) @ x0))
    rng = np.random.default_rng(0)
    steps, nseg = 2000, 40
    h = p.T / steps
    seg = np.minimum((np.arange(steps) / steps * nseg).astype(int), nseg - 1)
    best = math.inf
    for _ in range(1000):
        u = rng.normal(-0.5, 0.7, nseg)[seg]
        x = np.concatenate([[1.0], 1.0 + np.cumsum(u) * h])
        best = min(best, float(np.sum(x[:-1] ** 2 + u**2) * h))
    return riccati_error, value_gap, cost, best


def test_criterion_07_riccati_lq():
    riccati_error, value_gap, cost, best = riccati_lq_run()
    assert riccati_error < 1e-8
    assert value_gap < 1e-6
    assert cost < best  # beat 1000 random piecewise-constant open-loop controls


def shoot_extremals():
    """The three criterion 8/9 problems and their extremals, by name."""
    out = {}
    p = pr.brachistochrone_free_y(1.0, 9.81)
    out["brachistochrone"] = (p, ck.pmp_shoot(p, np.array([0.3, 0.1, 0.7])))
    p = pr.zermelo_min_drift()
    out["zermelo"] = (p, ck.pmp_shoot(p, pr.zermelo_shooting_guess(p, delta=1.5e-5)))
    p = pr.double_integrator_min_time(np.array([1.0, 0.0]))
    out["double-integrator"] = (p, ck.pmp_shoot(p, np.array([-0.8, -1.2, 1.8])))
    return out


@pytest.fixture(scope="module")
def extremals():
    return shoot_extremals()


def test_criterion_08_pmp_shooting(extremals):
    t0 = time.time()
    p = pr.brachistochrone_free_y(1.0, 9.81)
    e = ck.pmp_shoot(p, np.array([0.3, 0.1, 0.7]))
    assert time.time() - t0 < 10.0
    assert e.converged
    ref = math.sqrt(2.0 * math.pi * 1.0 / 9.81)
    assert abs(e.tf - ref) / ref < 1e-4

    _, e = extremals["zermelo"]
    assert e.converged
    c_of_y = 1.0 + e.state.states[:, 1] ** 2
    # cos u = -v / c(y) with v = c(y) in the default profile
    assert np.max(np.abs(np.cos(e.control[:, 0]) + 1.0 / c_of_y)) < 1e-4

    _, e = extremals["double-integrator"]
    assert e.converged
    u = e.control[:, 0]
    assert np.max(np.abs(np.abs(u) - 1.0)) < 1e-9
    assert int(np.sum(np.abs(np.diff(np.sign(u))) > 1.0)) <= 1
    assert abs(e.tf - di_min_time_oracle(1.0, 0.0)) < 1e-4


def test_criterion_09_extremal_diagnostics(extremals):
    for name, (p, e) in extremals.items():
        assert e.converged, name
        d = ck.check_extremal(e, p)
        assert d["hamiltonian_deviation"] < 1e-5, name
        assert abs(e.hamiltonian_samples[-1]) < 1e-6, name


def wave_observability_run():
    """The criterion 10 data: max |ratio - 2| of the boundary observation over
    100 random states, max relative gap of the internal observation from its
    diagonal formula over 5, min (mass - Periago bound) over j <= 200, and max
    |mass - bound| on the optimal sets."""
    L = 1.0
    basis = SineBasis(L, 32)
    rng = np.random.default_rng(100)
    ratio_errors = []
    for _ in range(100):
        s = WaveState(rng.standard_normal(32), rng.standard_normal(32))
        ratio = boundary_observation_energy(basis, s, 2.0 * L) / wave_energy(basis, s)
        ratio_errors.append(abs(ratio - 2.0))
    omega = IntervalUnion([[0.15, 0.4], [0.6, 0.85]])
    basis16 = SineBasis(L, 16)
    diagonal_errors = []
    for _ in range(5):
        s = WaveState(rng.standard_normal(16), rng.standard_normal(16))
        obs = internal_wave_observation(basis16, s, omega, 2.0 * L)
        diag = L * sum(
            (s.a[j - 1] ** 2 + s.b[j - 1] ** 2) * sin2_mass(omega, j, basis16)
            for j in range(1, 17)
        )
        diagonal_errors.append(abs(obs - diag) / abs(diag))
    basis1 = SineBasis(L, 1)
    bound_slacks, optimal_errors = [], []
    for j in range(1, 201):
        lo = rng.uniform(0.0, 0.5)
        omega_j = IntervalUnion([[lo, lo + rng.uniform(0.05, 0.45)]])
        mass = sin2_mass(omega_j, j, basis1)
        bound_slacks.append(mass - periago_bound(omega_j.measure, L))
        opt = optimal_interval_union(j, 0.37, L)
        optimal_errors.append(abs(sin2_mass(opt, j, basis1) - periago_bound(0.37, L)))
    # np.max / np.min propagate a NaN item, so the asserts fail on it as per-item asserts would
    return (
        float(np.max(ratio_errors)),
        float(np.max(diagonal_errors)),
        float(np.min(bound_slacks)),
        float(np.max(optimal_errors)),
    )


def test_criterion_10_wave_observability():
    ratio_error, diagonal_error, bound_slack, optimal_error = wave_observability_run()
    assert ratio_error < 1e-6
    assert diagonal_error < 1e-6
    assert bound_slack >= -1e-12
    assert optimal_error < 1e-10


@pytest.mark.parametrize(
    "name", ["boundary_observation_energy", "internal_wave_observation", "sin2_mass"]
)
def test_criterion_10_data_keep_a_nan(monkeypatch, name):
    # A NaN from any functional must reach the returned aggregates, which the
    # builtin max / min would drop.
    monkeypatch.setattr(sys.modules[__name__], name, lambda *args: math.nan)
    data = wave_observability_run()
    assert any(math.isnan(v) for v in data)


def hum_wave_run():
    """The criterion 11 data: HUM steering the first mode of the N = 8 wave to
    rest at T = 2 and, forced, at T = 1."""
    basis = SineBasis(1.0, 8)
    y0 = WaveState(np.eye(8)[0], np.zeros(8))
    target = WaveState(np.zeros(8), np.zeros(8))
    short = hum_wave_boundary(basis, y0, target, 1.0, force=True)
    return hum_wave_boundary(basis, y0, target, 2.0), short


def test_criterion_11_hum_wave_synthesis():
    res, short = hum_wave_run()
    assert res.endpoint_error < 1e-6
    zeta = np.concatenate([res.z.a, res.z.b])
    assert abs(res.control_l2_sq - float(zeta @ (res.gramian @ zeta))) < 1e-8
    assert short.condition_number > 1e6
    with pytest.raises(ck.specpde.IllPosedError):
        hum_wave_boundary(SineBasis(1.0, 16), WaveState(np.eye(16)[0], np.zeros(16)),
                          WaveState(np.zeros(16), np.zeros(16)), 1.0, force=True)


def moment_method_run():
    """The criterion 12 data: the worst 80-digit biorthogonality residual of
    the K = 6 family at T = 1, and the largest final mode of the moment control
    of four heat modes, whose coupling comes from _sin_product_integrals."""
    import mpmath as mp

    L, T, K = math.pi, 1.0, 6
    mu = [(j * math.pi / L) ** 2 for j in range(1, K + 1)]
    C, _ = biorthogonal_family(mu, T, K)
    with mp.workdps(80):
        worst = 0.0
        for k in range(K):
            for j in range(K):
                val = mp.mpf(0)
                for i in range(K):
                    s = mp.mpf(mu[i]) + mp.mpf(mu[j])
                    val += C[i, k] * (1 - mp.e ** (-s * T)) / s
                worst = max(worst, float(abs(val - (1 if j == k else 0))))
    basis = SineBasis(L, 4)
    res = moment_heat_control(
        basis, IntervalUnion([[0.0, L / 2.0]]), np.array([1.0, -0.5, 0.3, 0.2]), T, 4
    )
    return worst, res.max_final


def test_criterion_12_moment_method():
    worst, max_final = moment_method_run()
    assert worst < 1e-8
    assert max_final < 1e-6


def damping_run():
    """The criterion 13 data: the damped (omega = (0.2, 0.8)) and the
    conservative N = 16 wave, fitted over T = 8."""
    basis = SineBasis(1.0, 16)
    return (
        damping_decay_experiment(basis, IntervalUnion([[0.2, 0.8]]), 8.0),
        damping_decay_experiment(basis, None, 8.0),
    )


def test_criterion_13_damping_experiment():
    res, cons = damping_run()
    assert res.delta > 0.0
    envelope = 1.05 * res.C1 * res.energy[0] * np.exp(-res.delta * res.times)
    assert np.all(res.energy <= envelope + 1e-14)
    assert np.max(np.abs(cons.energy - cons.energy[0])) < 1e-10


def semilinear_heat_run():
    """The criterion 14 data: max |a_j + lambda_j b_j - closed form| over j <= 10,
    and the n = 1 simulation with its final / initial norm."""
    plant = pr.semilinear_heat(n=10)
    A, B, a, b, lam = semilinear_matrices(plant)
    identity_errors = []
    for j in range(1, 11):
        lhs = a[j - 1] + lam[j - 1] * b[j - 1]
        rhs = -math.sqrt(2.0 / plant.L) * (j * math.pi / plant.L) * (-1.0) ** j
        identity_errors.append(abs(lhs - rhs))
    identity_error = float(np.max(identity_errors))
    plant = pr.semilinear_heat(n=1)
    rng = np.random.default_rng(7)
    y0 = np.zeros(8)
    y0[0] = 0.3
    rest = rng.standard_normal(7)
    y0[1:] = rest * math.sqrt(1.0 - 0.09) / np.linalg.norm(rest)
    y0 *= 0.01
    res = semilinear_stabilize(plant, y0, T_sim=10.0)
    initial = np.linalg.norm(y0) + abs(res.u[0])
    final = np.linalg.norm(res.z[-1]) + abs(res.u[-1])
    return identity_error, final / initial, res


def test_criterion_14_semilinear_heat():
    identity_error, decay, res = semilinear_heat_run()
    assert identity_error < 1e-10
    for n in range(1, 6):
        A, B, a, b, lam = semilinear_matrices(pr.semilinear_heat(n=n))
        assert np.linalg.det(kalman_matrix(A, B)) != 0.0
    assert decay < 1e-3
    assert np.all(np.diff(res.V) <= 1e-12)


CLI_CORPUS = [
    ["analyze", "rlc.json"],
    ["analyze", "double_integrator.json"],
    ["analyze", "coupled_springs.json"],
    ["analyze", "maxwell_bloch_f2.json"],
    ["analyze", "heisenberg.json"],
    ["analyze", "dubins.json", "--T=6.283185307179586"],
    ["analyze", "rotating_frame.json", "--T=1.0"],
    ["analyze", "triangular_ltv.json", "--t=1.0"],
    ["stabilize", "pendulum.json", "--poles=-1,-1,-1,-1"],
    ["lq", "scalar_lq.json"],
    ["shoot", "brachistochrone.json"],
    ["shoot", "zermelo.json"],
    ["shoot", "di_min_time.json"],
    ["pde", "wave_hum.json"],
    ["pde", "moment_heat.json"],
    ["pde", "damping.json"],
    ["pde", "semilinear.json"],
]


def test_criterion_15_cli_determinism(tmp_path):
    # Each run is a fresh `python -m ctrlkit` process (the same `cli.main` the
    # `ctrl` script calls), importing the very ctrlkit package under test.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(ck.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    t0 = time.time()
    for i, argv in enumerate(CLI_CORPUS):
        cmd = [argv[0], os.path.join(SPECS, argv[1])] + argv[2:]
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}_{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "ctrlkit"] + cmd + ["--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv
        json.loads(outs[0])  # the report is well-formed JSON
    assert time.time() - t0 < 120.0
