"""Catalog of classical benchmark systems used by the tests and the CLI.

Each builder returns ready-to-use objects (LtiSystem, LtvSystem,
VectorFieldSet, OcProblem, SemilinearPlant) for well-known textbook systems:
RLC circuit, coupled springs, inverted pendulum on a cart, Maxwell-Bloch,
Dubins car linearization, Zermelo navigation, brachistochrone,
predator-prey, Heisenberg fields, and the double integrator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .lincontrol import LtiSystem, LtvSystem, VectorField, VectorFieldSet
from .optctrl import OcProblem, hamiltonian_maximizer_box, integrate_extremal
from .specpde import SemilinearPlant, semilinear_defaults

__all__ = [
    "double_integrator",
    "rlc",
    "coupled_springs",
    "alpha_system",
    "pendulum_dynamics",
    "pendulum_linear",
    "maxwell_bloch_dynamics",
    "maxwell_bloch_equilibrium",
    "dubins_linearized",
    "rotating_frame",
    "triangular_ltv",
    "heisenberg_fields",
    "predator_prey",
    "zermelo_min_drift",
    "brachistochrone_free_y",
    "double_integrator_min_time",
    "double_integrator_min_time_tf",
    "semilinear_heat",
]


def double_integrator() -> LtiSystem:
    """x'' = u as a first-order pair."""
    return LtiSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))


def rlc(R: float = 1.0, L: float = 1.0, C: float = 1.0) -> LtiSystem:
    """Series RLC circuit driven by a voltage source."""
    A = np.array([[0.0, 1.0], [-1.0 / (L * C), -R / L]])
    B = np.array([[0.0], [1.0]])
    return LtiSystem(A, B)


def coupled_springs(k1: float, k2: float) -> LtiSystem:
    """Two masses in series; only the second one is actuated.

    x1'' = -k1 x1 + k2 (x2 - x1), x2'' = -k2 (x2 - x1) + u.
    Controllable iff k2 > 0 (the coupling transmits the actuation).
    """
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-(k1 + k2), 0.0, k2, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [k2, 0.0, -k2, 0.0],
        ]
    )
    B = np.array([[0.0], [0.0], [0.0], [1.0]])
    return LtiSystem(A, B)


def alpha_system(alpha: float) -> LtiSystem:
    """Parametric two-input pair, controllable iff alpha (alpha - 1) != 0."""
    A = np.array([[2.0, alpha - 3.0], [0.0, 2.0]])
    B = np.array([[1.0, 1.0], [alpha * (alpha - 1.0), 0.0]])
    return LtiSystem(A, B)


# ---------------------------------------------------------------------------
# Inverted pendulum on a cart
# ---------------------------------------------------------------------------


def pendulum_dynamics(m: float = 1.0, M: float = 1.0, l: float = 1.0, g: float = 1.0):
    """Nonlinear cart-pendulum dynamics f(x, u), state (xi, xi', theta, theta')."""

    def f(x, u):
        _, dxi, th, dth = x
        uu = float(np.atleast_1d(u)[0])
        s, c = math.sin(th), math.cos(th)
        den = M + m * s * s
        ddxi = (m * l * dth * dth * s - m * g * c * s + uu) / den
        ddth = (-m * l * dth * dth * s * c + (M + m) * g * s - uu * c) / (l * den)
        return np.array([dxi, ddxi, dth, ddth])

    return f


def pendulum_linear(m: float = 1.0, M: float = 1.0, l: float = 1.0, g: float = 1.0) -> LtiSystem:
    """Linearization of the cart-pendulum at the upright equilibrium."""
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -m * g / M, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, (M + m) * g / (l * M), 0.0],
        ]
    )
    B = np.array([[0.0], [1.0 / M], [0.0], [-1.0 / (l * M)]])
    return LtiSystem(A, B)


# ---------------------------------------------------------------------------
# Maxwell-Bloch
# ---------------------------------------------------------------------------


def maxwell_bloch_dynamics():
    """x1' = x2 + u1, x2' = x1 x3 + u2, x3' = -x1 x2."""

    def f(x, u):
        return np.array(
            [x[1] + u[0], x[0] * x[2] + u[1], -x[0] * x[1]]
        )

    return f


def maxwell_bloch_equilibrium(family: int, first: float, c: float):
    """Equilibrium (x_bar, u_bar) of family 1 (x = (0, b, c)) or 2 (x = (a, 0, c))."""
    if family == 1:
        b = first
        return np.array([0.0, b, c]), np.array([-b, 0.0])
    if family == 2:
        a = first
        return np.array([a, 0.0, c]), np.array([0.0, -a * c])
    raise ValueError("family must be 1 or 2")


# ---------------------------------------------------------------------------
# Time-varying examples
# ---------------------------------------------------------------------------


def dubins_linearized(T: float) -> LtvSystem:
    """Linearization of the Dubins car along its circular reference loop of period T > 0."""
    if not T > 0:
        raise ValueError(f"the loop period T must be positive, got {T}")

    def A(t):  # two entries into zeros: half the cost of np.array of nested lists
        w = 2.0 * np.pi * t / T
        M = np.zeros((3, 3))
        M[0, 2] = -np.sin(w)
        M[1, 2] = np.cos(w)
        return M

    B = np.array([[0.0], [0.0], [1.0]])
    return LtvSystem(3, 1, A, lambda t: B)


def rotating_frame() -> LtvSystem:
    """x' = -y + u cos t, y' = x + u sin t; never controllable."""
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    return LtvSystem(2, 1, lambda t: A, lambda t: np.array([[np.cos(t)], [np.sin(t)]]))


def triangular_ltv() -> LtvSystem:
    """A(t) = [[t,1,0],[0,t^3,0],[0,0,t^2]], B = (0,1,1)^T.

    Satisfies the iterated-derivative rank condition at t = 0 with depth 3,
    hence is controllable in any positive time.
    """

    def A(t):
        return np.array([[t, 1.0, 0.0], [0.0, t**3, 0.0], [0.0, 0.0, t**2]])

    B = np.array([[0.0], [1.0], [1.0]])
    return LtvSystem(3, 1, A, lambda t: B)


# ---------------------------------------------------------------------------
# Nonlinear fields and stabilization examples
# ---------------------------------------------------------------------------


def heisenberg_fields() -> VectorFieldSet:
    """f1 = dx + y dz, f2 = dy - x dz; [f1, f2] = -2 dz spans the rest."""
    f1 = VectorField(
        value=lambda x: np.array([1.0, 0.0, x[1]]),
        jacobian=lambda x: np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        ),
    )
    f2 = VectorField(
        value=lambda x: np.array([0.0, 1.0, -x[0]]),
        jacobian=lambda x: np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
        ),
    )
    return VectorFieldSet(3, (f1, f2))


def predator_prey():
    """Controlled predator-prey system around the (1, 1) equilibrium.

    x' = x (1 - y + u), y' = -y (1 - x), with the weak Lyapunov function
    V = x - 1 - ln x + y - 1 - ln y.  Returns (f(x, u), drift, controlled
    field g, V, grad V).
    """

    def f(x, u):
        uu = float(np.atleast_1d(u)[0])
        return np.array([x[0] * (1.0 - x[1] + uu), -x[1] * (1.0 - x[0])])

    drift = lambda x: np.array([x[0] * (1.0 - x[1]), -x[1] * (1.0 - x[0])])
    g = lambda x: np.array([x[0], 0.0])
    V = lambda x: x[0] - 1.0 - math.log(x[0]) + x[1] - 1.0 - math.log(x[1])
    gradV = lambda x: np.array([1.0 - 1.0 / x[0], 1.0 - 1.0 / x[1]])
    return f, drift, g, V, gradV


# ---------------------------------------------------------------------------
# Optimal control problems
# ---------------------------------------------------------------------------


def zermelo_min_drift(v: float = 1.0, ell: float = 1.0) -> OcProblem:
    """Zermelo navigation: reach the bank y = ell minimizing the drift x(t_f).

    State (x, y), control the heading angle u; x' = v cos u + c(y) with the
    current c(y) = 1 + y^2, y' = v sin u; terminal cost g = x (so g_x = e_1),
    free final time.
    """
    c = lambda y: 1.0 + y * y
    c_prime = lambda y: 2.0 * y

    def f(t, x, u):
        ang = float(u[0])
        return (v * math.cos(ang) + c(x[1]), v * math.sin(ang))

    def maximizer(t, x, p, p0):
        # H = p_x (v cos u + c(y)) + p_y v sin u is maximal in the direction
        # of (p_x, p_y).
        return (math.atan2(p[1], p[0]),)

    def ham_dx(t, x, p, p0, u):
        return (0.0, p[0] * c_prime(x[1]))

    return OcProblem(
        dimension=2,
        control_dim=1,
        f=f,
        maximizer=maximizer,
        x0=np.zeros(2),
        g_x=lambda t, x: np.array([1.0, 0.0]),
        terminal_kind="manifold",
        F=lambda x: np.array([x[1] - ell]),
        F_jacobian=lambda x: np.array([[0.0, 1.0]]),
        horizon=None,
        hamiltonian_dx=ham_dx,
    )


def zermelo_shooting_guess(p: OcProblem, delta: float = 4e-5) -> np.ndarray:
    """Shooting guess (p_x(0), p_y(0), t_f) for `zermelo_min_drift`.

    The minimal-drift extremal leaves y = 0 along an unstable manifold (the
    exact solution has p_y(0) = 0 and infinite transit time), so a blind
    Newton start stalls.  Instead fix p_x(0) = -1 and a small p_y(0) = delta
    (the Hamiltonian stays at delta^2/2 along the flow) and bisect the final
    time in [0, 20] on 1000-step extremals so that the trajectory lands on
    the far bank.
    """
    pinit = np.array([-1.0, delta])
    target = -float(p.F(np.array([np.inf, 0.0]))[0])  # ell, since F = y - ell
    lo, hi = 0.0, 20.0
    _, Z = integrate_extremal(p, pinit, hi, 1000, -1.0)
    if Z[-1, 1] < target:
        raise ValueError("trajectory does not reach the bank by t = 20")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        _, Z = integrate_extremal(p, pinit, mid, 1000, -1.0)
        if Z[-1, 1] >= target:
            hi = mid
        else:
            lo = mid
    return np.array([-1.0, delta, 0.5 * (lo + hi)])


def brachistochrone_free_y(x1: float = 1.0, g: float = 9.81) -> OcProblem:
    """Reduced brachistochrone (x, v): minimal time to (x1, 0), y eliminated.

    x' = v cos u, v' = g sin u; reaching the target altitude y1 = 0 pins the
    terminal speed v(t_f) = 0, so the reduced problem has a fixed endpoint.
    The analytic solution is t_f = sqrt(2 pi x1 / g), p_x = sqrt(pi/(2 g x1)).
    """

    def f(t, x, u):
        ang = float(u[0])
        return (x[1] * math.cos(ang), g * math.sin(ang))

    def maximizer(t, x, p, p0):
        return (math.atan2(g * p[1], p[0] * x[1]),)

    def ham_dx(t, x, p, p0, u):
        return (0.0, p[0] * math.cos(float(u[0])))

    return OcProblem(
        dimension=2,
        control_dim=1,
        f=f,
        maximizer=maximizer,
        x0=np.zeros(2),
        f0=lambda t, x, u: 1.0,
        terminal_kind="fixed",
        x1=np.array([x1, 0.0]),
        horizon=None,
        hamiltonian_dx=ham_dx,
    )


def double_integrator_min_time(x0) -> OcProblem:
    """Minimal time to the origin for x'' = u with |u| <= 1 (bang-bang)."""
    maximizer = hamiltonian_maximizer_box(1.0, [lambda t, x: (0.0, 1.0)])

    def f(t, x, u):
        return (x[1], float(u[0]))

    def ham_dx(t, x, p, p0, u):
        return (0.0, p[0])

    return OcProblem(
        dimension=2,
        control_dim=1,
        f=f,
        maximizer=maximizer,
        x0=np.asarray(x0, dtype=float),
        f0=lambda t, x, u: 1.0,
        terminal_kind="fixed",
        x1=np.zeros(2),
        horizon=None,
        hamiltonian_dx=ham_dx,
    )


def double_integrator_min_time_tf(x0) -> float:
    """Closed-form minimal time from the switching-curve geometry."""
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 > -0.5 * x2 * abs(x2) or (x1 == -0.5 * x2 * abs(x2) and x2 > 0):
        # start above the switching curve: u = -1 first
        return x2 + 2.0 * math.sqrt(x1 + 0.5 * x2 * x2)
    return -x2 + 2.0 * math.sqrt(0.5 * x2 * x2 - x1)


def semilinear_heat(
    L: float = 1.0,
    c: float = 12.0,
    n: Optional[int] = None,
    N_sim: Optional[int] = None,
    gamma: Optional[float] = None,
) -> SemilinearPlant:
    """Semilinear heat plant with the linear-rate nonlinearity f(y) = c y."""
    n_def, N_def, g_def = semilinear_defaults(L, c, gamma)
    n_val = n if n is not None else n_def
    return SemilinearPlant(
        L=L,
        f=lambda y: c * y,
        f_prime_0=c,
        n=n_val,
        N_sim=N_sim if N_sim is not None else max(2 * n_val, N_def),
        gamma=gamma if gamma is not None else g_def,
    )
