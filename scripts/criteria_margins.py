"""How far inside its acceptance gate each covered criterion runs.

Usage, from any directory:
    python scripts/criteria_margins.py > margins.txt

For criteria 8, 9 and 14 of tests/test_acceptance.py, one line per
quantity that the test compares with a tolerance: `criterion  quantity
value  gate  margin`, where margin is log10(gate / value), "inf" for a
value of 0 or less.  Values, gates and margins are rounded to 2
significant digits, so two runs print the same lines.  The data come from
`shoot_extremals` and `semilinear_heat_run` of that file, the library
calls and data its tests use.  The wall-clock bound, the `converged`
flags, the switch count of criterion 8 and the Kalman determinants of
criterion 14 are not margins and are left out, and the other criteria are
not covered yet.
"""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

import ctrlkit as ck  # noqa: E402
from conftest import di_min_time_oracle  # noqa: E402
from test_acceptance import semilinear_heat_run, shoot_extremals  # noqa: E402


def line(criterion, quantity, value, gate):
    margin = f"{math.log10(gate / value):.2g}" if value > 0.0 else "inf"
    return f"{criterion}  {quantity}  {value:.2g}  {gate:.2g}  {margin}"


def margins():
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
    identity_error, decay, res = semilinear_heat_run()
    yield line(14, "max |a_j + lambda_j b_j - closed form|", identity_error, 1e-10)
    yield line(14, "final / initial norm", decay, 1e-3)
    yield line(14, "max diff(V)", float(np.max(np.diff(res.V))), 1e-12)


for text in margins():
    print(text)
