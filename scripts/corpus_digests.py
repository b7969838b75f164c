"""SHA-256 of every CLI corpus output, and of the library results no CLI path prints.

Usage, from any directory:
    python scripts/corpus_digests.py > digests.txt

Runs `ctrlkit.cli.main` in-process on each spec of `CLI_CORPUS`
(tests/test_acceptance.py), once with `--format report` and once with
`--format csv`, against the package under this checkout's `src/`.  Each line
is `sha256  argv  format`.  Then one line `sha256  library  call` per
library result: `lq_cost`, `hum_control_finite`, `simulate_closed_loop`, the
time-varying `gramian` (Dubins, and a tabulated system with a kink, which
splits into Chebyshev pieces), the two wave observation functionals,
`hum_wave_boundary` and `semilinear_stabilize` with the cubic
f(y) = 12y - y^3, hashed over the bytes and shapes of every array they
return.  The odd step counts go through the rounding to an even Simpson
grid.  Two `hum_control_finite` lines run the double integrator with B
times 1e-6 and 1e6: a change of the input's units, which moves no verdict.
Then one readable line `work  argv  ...` per corpus shoot: how many
extremals `integrate_extremal` swept on each grid (`steps:count`), how many
RK4 steps `optctrl._rk4` took in all (switching-time searches included) and
the report's `newton_iterations`, so a change in shooting work shows in the
diff too.  Then one line `work  library  ...` per time-varying
`hum_control_finite` call: how many calls it made into the system's A and
into its B.  Last, one line `work  argv  ...` for `pde damping.json` and
`pde semilinear.json`: the calls of `numcore._step_scan`, counted per
(steps, block length L), so a change in the scan's block length shows too,
and one line `work  pde moment_heat.json  svd_r <count>`: the 80-digit SVDs
the biorthogonal family ran, 0 while its condition bound decides.
A refactor shows that no output moved by a `diff` of this script's output
on the parent commit and on the change.
"""

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import ctrlkit as ck  # noqa: E402
from ctrlkit import numcore, optctrl, specpde  # noqa: E402
from ctrlkit import problems as pr  # noqa: E402
from ctrlkit.cli import main  # noqa: E402
from test_acceptance import CLI_CORPUS, SPECS  # noqa: E402


def run(argv, fmt):
    out = io.StringIO()
    cmd = [argv[0], os.path.join(SPECS, argv[1]), *argv[2:], f"--format={fmt}"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(cmd)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} --format={fmt} exited with {code}")
    return out.getvalue()


def digest(argv, fmt):
    return hashlib.sha256(run(argv, fmt).encode()).hexdigest()


def shoot_work(argv):
    """Extremal sweeps per grid, RK4 steps and Newton iterations of one `ctrl shoot` run."""
    grids = collections.Counter()
    rk4_steps = 0
    integrate, rk4 = optctrl.integrate_extremal, optctrl._rk4

    def counting(p, p_init, tf, steps, p0=-1.0):
        grids[steps] += 1
        return integrate(p, p_init, tf, steps, p0)

    def counting_rk4(*args):
        nonlocal rk4_steps
        rk4_steps += 1
        return rk4(*args)

    optctrl.integrate_extremal, optctrl._rk4 = counting, counting_rk4
    try:
        report = json.loads(run(argv, "report"))
    finally:
        optctrl.integrate_extremal, optctrl._rk4 = integrate, rk4
    sweeps = " ".join(f"{steps}:{count}" for steps, count in sorted(grids.items()))
    iters = report["results"]["newton_iterations"]
    return f"integrate_extremal {sweeps}  rk4 {rk4_steps}  newton_iterations {iters}"


def scan_work(argv):
    """(steps, block length): calls of numcore._step_scan in one `ctrl pde` run."""
    calls = collections.Counter()
    scan = numcore._step_scan

    def counting(delta, x, steps, n=None):
        calls[steps, min(steps, numcore._block_length(delta, n))] += 1
        return scan(delta, x, steps, n)

    numcore._step_scan = specpde._step_scan = counting
    try:
        run(argv, "report")
    finally:
        numcore._step_scan = specpde._step_scan = scan
    return "_step_scan steps,L:calls " + " ".join(f"{s},{L}:{c}" for (s, L), c in sorted(calls.items()))


def svd_work(argv):
    """Calls of mpmath's svd_r in one `ctrl pde` run."""
    calls = 0
    svd_r = mpmath.svd_r

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return svd_r(*args, **kwargs)

    mpmath.svd_r = counting
    try:
        run(argv, "report")
    finally:
        mpmath.svd_r = svd_r
    return f"svd_r {calls}"


def ltv_work(sys_, T, x0, x1, steps):
    """Calls into A and into B of one time-varying `hum_control_finite` run."""
    calls = collections.Counter()

    def counting(name, f):
        def g(t):
            calls[name] += 1
            return f(t)

        return g

    counted = dataclasses.replace(sys_, A=counting("A", sys_.A), B=counting("B", sys_.B))
    ck.hum_control_finite(counted, T, x0, x1, steps)
    return f"A {calls['A']}  B {calls['B']}"


def array_digest(*values):
    h = hashlib.sha256()
    for v in values:
        a = np.ascontiguousarray(v, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def lq(p, x0, steps):
    law = ck.lq_feedback(ck.riccati_solve(p, steps), p)
    cost, traj, controls = ck.lq_cost(p, law, x0, steps)
    return cost, traj.times, traj.states, controls


def hum(sys_, T, x0, x1, steps):
    res = ck.hum_control_finite(sys_, T, x0, x1, steps)
    return res.times, res.samples, res.psi, res.cost, res.endpoint, res.endpoint_error


def pendulum():
    K = ck.pole_place(pr.pendulum_linear(), np.poly([-1.0, -2.0, -3.0, -4.0]))
    x0 = [0.05, 0.0, -0.04, 0.0]
    f = pr.pendulum_dynamics()
    traj, controls, _ = ck.simulate_closed_loop(f, lambda t, x: K @ x, x0, 20.0, 4000)
    return traj.times, traj.states, controls


def predator_prey():
    f, _, g, V, gradV = pr.predator_prey()
    law = ck.jurdjevic_quinn_feedback([g], gradV)
    traj, controls, v_samples = ck.simulate_closed_loop(f, law, [1.3, 0.8], 40.0, 4000, V=V)
    return traj.times, traj.states, controls, v_samples


def ltv_gramian(sys_, T):
    g = ck.gramian(sys_, T)
    return g.G, g.C_T, g.invertible, g.degree, g.pieces


def kinked_tabulated():
    # A_21 = |t - 0.7| tabulated at (0, 0.7, 2) as `ctrl analyze` builds an
    # ltv-tabulated spec: two Chebyshev pieces, split at the kink.
    times = [0.0, 0.7, 2.0]
    A = np.array([[[0.0, 0.0], [abs(t - 0.7), 0.0]] for t in times])
    B = np.array([[[1.0], [0.0]] for _ in times])
    return ck.LtvSystem(2, 1, ck.DenseOutput(times, A), ck.DenseOutput(times, B), tuple(times))


WAVE_BASIS = ck.SineBasis(1.0, 8)
WAVE_STATE = ck.WaveState(1.0 / np.arange(1.0, 9.0), (-1.0) ** np.arange(8) / np.arange(1.0, 9.0) ** 2)
E1, ZERO = ck.WaveState(np.eye(8)[0], np.zeros(8)), ck.WaveState(np.zeros(8), np.zeros(8))


def boundary_observation(T):
    return (ck.boundary_observation_energy(WAVE_BASIS, WAVE_STATE, T),)


def internal_observation(T):
    omega = ck.IntervalUnion([(0.1, 0.3), (0.6, 0.75)])
    return (ck.internal_wave_observation(WAVE_BASIS, WAVE_STATE, omega, T),)


def wave_hum(steps):
    res = ck.hum_wave_boundary(WAVE_BASIS, E1, ZERO, 2.5, steps)
    return (
        res.times, res.control, res.z.a, res.z.b, res.endpoint.a, res.endpoint.b,
        res.gramian, res.condition_number, res.cost, res.control_l2_sq, res.endpoint_error,
    )


def semilinear_cubic():
    # f(y) = 12 y - y^3 with data large enough for -y^3 to act (states up to 0.49).
    plant = ck.SemilinearPlant(
        L=1.0, f=lambda y: 12.0 * y - y**3, f_prime_0=12.0, n=1, N_sim=8, gamma=120.0
    )
    res = ck.semilinear_stabilize(plant, [0.3, -0.15, 0.075], 10.0)
    return res.K, res.times, res.u, res.z, res.v, res.V


DOUBLE_INTEGRATOR = (pr.double_integrator(), 1.0, np.zeros(2), np.array([1.0, 0.0]))


def double_integrator_b(factor):
    """DOUBLE_INTEGRATOR with B times `factor`: a change of the input's units."""
    sys_, *rest = DOUBLE_INTEGRATOR
    return (ck.LtiSystem(sys_.A, factor * sys_.B), *rest)


DUBINS = (pr.dubins_linearized(2.0 * np.pi), 2.0 * np.pi, np.zeros(3), np.array([1.0, 0.0, 0.0]))
SCALAR_LQ = (ck.LqProblem(ck.LtiSystem([[0.0]], [[1.0]]), [[1.0]], [[1.0]], [[0.0]], 2.0), [1.0])
DOUBLE_INTEGRATOR_LQ = (
    ck.LqProblem(pr.double_integrator(), np.eye(2), [[1.0]], np.eye(2), 1.0), [1.0, 0.0]
)
LIBRARY = [
    ("lq_cost scalar_lq steps=250", lq, *SCALAR_LQ, 250),
    ("lq_cost scalar_lq steps=2001", lq, *SCALAR_LQ, 2001),
    ("lq_cost double_integrator steps=2000", lq, *DOUBLE_INTEGRATOR_LQ, 2000),
    ("hum_control_finite double_integrator steps=250", hum, *DOUBLE_INTEGRATOR, 250),
    ("hum_control_finite double_integrator steps=2000", hum, *DOUBLE_INTEGRATOR, 2000),
    ("hum_control_finite double_integrator B*1e-6 steps=250", hum, *double_integrator_b(1e-6), 250),
    ("hum_control_finite double_integrator B*1e6 steps=250", hum, *double_integrator_b(1e6), 250),
    ("hum_control_finite dubins steps=250", hum, *DUBINS, 250),
    ("hum_control_finite dubins steps=2000", hum, *DUBINS, 2000),
    ("simulate_closed_loop pendulum pole_place", pendulum),
    ("simulate_closed_loop predator_prey jurdjevic_quinn", predator_prey),
    ("gramian dubins", ltv_gramian, *DUBINS[:2]),
    ("gramian kinked_tabulated", ltv_gramian, kinked_tabulated(), 2.0),
    ("boundary_observation_energy T=2.5", boundary_observation, 2.5),
    ("internal_wave_observation T=2.5", internal_observation, 2.5),
    ("hum_wave_boundary steps=1999", wave_hum, 1999),
    ("semilinear_stabilize cubic", semilinear_cubic),
]


for argv in CLI_CORPUS:
    for fmt in ("report", "csv"):
        print(f"{digest(argv, fmt)}  {' '.join(argv)}  {fmt}")
for name, call, *args in LIBRARY:
    print(f"{array_digest(*call(*args))}  library  {name}")
for argv in CLI_CORPUS:
    if argv[0] == "shoot":
        print(f"work  {' '.join(argv)}  {shoot_work(argv)}")
for steps in (250, 2000):
    print(f"work  library  hum_control_finite dubins steps={steps}  {ltv_work(*DUBINS, steps)}")
for argv in CLI_CORPUS:
    if argv[:2] in (["pde", "damping.json"], ["pde", "semilinear.json"]):
        print(f"work  {' '.join(argv)}  {scan_work(argv)}")
    if argv[:2] == ["pde", "moment_heat.json"]:
        print(f"work  {' '.join(argv)}  {svd_work(argv)}")
