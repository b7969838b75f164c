"""How far inside its acceptance gate each covered criterion runs.

Usage, from any directory:
    python scripts/criteria_margins.py > margins.txt

For criteria 3, 4 and 6 to 14 of tests/test_acceptance.py, one
line per quantity that the test compares with a tolerance: `criterion
quantity  value  gate  margin`, where margin is log10(gate / value), "inf"
for a value of 0 or less and "nan" for a NaN; for the one lower bound, the
condition number of criterion 11, it is log10(value / gate).  The gate of
criterion 7's cost is the lowest cost of the test's 1000 random controls.
Values, gates and margins are rounded to 2 significant digits, so two runs
print the same lines.  The data come from `gramian_hum_run`,
`time_varying_run`, `pole_placement_run`, `riccati_lq_run`,
`shoot_extremals`, `wave_observability_run`, `hum_wave_run`,
`moment_method_run`, `damping_run` and `semilinear_heat_run` of that file,
the library calls and data its tests use.  The wall-clock bound of
criterion 1, the ranks and `ok` flags of criterion 4, the `converged`
flags, the switch count of criterion 8, the IllPosedError of criterion 11,
the sign of delta in criterion 13 and the Kalman determinants of criterion
14 are not margins and are left out.  Criteria 1, 2 and 5 compare no number
with a tolerance, so they print no line.
"""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

import ctrlkit as ck  # noqa: E402
from conftest import di_min_time_oracle  # noqa: E402
from test_acceptance import (  # noqa: E402
    damping_run,
    gramian_hum_run,
    hum_wave_run,
    moment_method_run,
    pole_placement_run,
    riccati_lq_run,
    semilinear_heat_run,
    shoot_extremals,
    time_varying_run,
    wave_observability_run,
)


def line(criterion, quantity, value, gate, lower_bound=False):
    if lower_bound:
        margin = f"{math.log10(value / gate):.2g}"
    else:
        margin = "inf" if value <= 0.0 else f"{math.log10(gate / value):.2g}"
    return f"{criterion}  {quantity}  {value:.2g}  {gate:.2g}  {margin}"


def margins():
    gramian_error, control_error, res = gramian_hum_run()
    yield line(3, "double-integrator max |G - G exact|", gramian_error, 1e-9)
    yield line(3, "double-integrator max |u - (6 - 12 t)|", control_error, 1e-6)
    yield line(3, "double-integrator endpoint_error", res.endpoint_error, 1e-6)
    yield line(3, "double-integrator |cost - 12|", abs(res.cost - 12.0), 1e-8)
    _, _, reports = time_varying_run()
    for T, rep in reports.items():
        yield line(4, f"rotating frame C_T at T = {T:g}", rep.C_T, 1e-12)
    eig_error, coeff_error, skipped, pendulum_eig, pendulum_coeff = pole_placement_run()
    yield line(6, "worst max |eig - target|", eig_error, 1e-6)
    yield line(6, "worst single-input max |coefficient - target|", coeff_error, 1e-8)
    yield line(6, "pairs skipped as too non-normal", skipped, 40)
    yield line(6, "pendulum max |eig - target|", pendulum_eig, 1e-6)
    yield line(6, "pendulum max |coefficient - target|", pendulum_coeff, 1e-8)
    riccati_error, value_gap, cost, best = riccati_lq_run()
    yield line(7, "max |P(t) + tanh(2 - t)|", riccati_error, 1e-8)
    yield line(7, "|cost - x0' (-P(0)) x0|", value_gap, 1e-6)
    yield line(7, "cost, below the best random control", cost, best)
    ex = shoot_extremals()
    _, e = ex["brachistochrone"]
    ref = math.sqrt(2.0 * math.pi * 1.0 / 9.81)
    yield line(8, "brachistochrone tf relative error", abs(e.tf - ref) / ref, 1e-4)
    _, e = ex["zermelo"]
    c_of_y = 1.0 + e.state.states[:, 1] ** 2
    heading = float(np.max(np.abs(np.cos(e.control[:, 0]) + 1.0 / c_of_y)))
    yield line(8, "zermelo max |cos u + 1/c(y)|", heading, 1e-4)
    _, e = ex["double-integrator"]
    u = e.control[:, 0]
    yield line(8, "double-integrator max ||u| - 1|", float(np.max(np.abs(np.abs(u) - 1.0))), 1e-9)
    yield line(8, "double-integrator tf error", abs(e.tf - di_min_time_oracle(1.0, 0.0)), 1e-4)
    for name, (p, e) in ex.items():
        d = ck.check_extremal(e, p)
        yield line(9, f"{name} hamiltonian_deviation", d["hamiltonian_deviation"], 1e-5)
        yield line(9, f"{name} |H(tf)|", abs(float(e.hamiltonian_samples[-1])), 1e-6)
    ratio_error, diagonal_error, bound_slack, optimal_error = wave_observability_run()
    yield line(10, "max |boundary observation / energy - 2|", ratio_error, 1e-6)
    yield line(10, "max |internal observation - diagonal| / diagonal", diagonal_error, 1e-6)
    yield line(10, "max (Periago bound - sin^2 mass)", -bound_slack, 1e-12)
    yield line(10, "max |sin^2 mass - bound| on the optimal sets", optimal_error, 1e-10)
    res, short = hum_wave_run()
    zeta = np.concatenate([res.z.a, res.z.b])
    duality = abs(res.control_l2_sq - float(zeta @ (res.gramian @ zeta)))
    yield line(11, "T=2 endpoint_error", res.endpoint_error, 1e-6)
    yield line(11, "T=2 |control_l2_sq - <G z, z>|", duality, 1e-8)
    yield line(11, "T=1 condition_number, at least", short.condition_number, 1e6, lower_bound=True)
    worst, max_final = moment_method_run()
    yield line(12, "worst biorthogonality residual", worst, 1e-8)
    yield line(12, "max |y_j(T)|", max_final, 1e-6)
    res, cons = damping_run()
    envelope = 1.05 * res.C1 * res.energy[0] * np.exp(-res.delta * res.times)
    excess = float(np.max(res.energy - envelope))
    drift = float(np.max(np.abs(cons.energy - cons.energy[0])))
    yield line(13, "max (E(t) - 1.05 C1 E(0) exp(-delta t))", excess, 1e-14)
    yield line(13, "conservative max |E(t) - E(0)|", drift, 1e-10)
    identity_error, decay, res = semilinear_heat_run()
    yield line(14, "max |a_j + lambda_j b_j - closed form|", identity_error, 1e-10)
    yield line(14, "final / initial norm", decay, 1e-3)
    yield line(14, "max diff(V)", float(np.max(np.diff(res.V))), 1e-12)


for text in margins():
    print(text)
