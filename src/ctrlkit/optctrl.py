"""Optimal control: finite-horizon LQ via Riccati, and PMP shooting.

The LQ path takes constant data, steps the matrix Riccati equation backward
exactly with one propagator of the linear Hamiltonian flow, and returns the
optimal state feedback.  The shooting path integrates the Hamiltonian system
of the maximum principle forward with a pluggable Hamiltonian maximizer and
drives the terminal/transversality/free-time residuals to zero with a damped
Newton iteration.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .numcore import DenseOutput, DimensionError, IntegrationBlowup, Trajectory, expm
from .numcore import fd_jacobian, rk4_linear_sweep, rk4_sweep, simpson_grid
from .lincontrol import LtiSystem

__all__ = [
    "LqProblem",
    "RiccatiSolution",
    "RiccatiBlowup",
    "OcProblem",
    "Extremal",
    "ShootingError",
    "riccati_solve",
    "lq_feedback",
    "lq_cost",
    "pmp_shoot",
    "integrate_extremal",
    "hamiltonian_maximizer_box",
    "hamiltonian_maximizer_ball",
    "hamiltonian_maximizer_unconstrained",
    "check_extremal",
]


class RiccatiBlowup(IntegrationBlowup):
    """Raised when the Riccati solution leaves the finite range at `time`."""


class ShootingError(RuntimeError):
    """Raised when the shooting Newton iteration fails to converge.

    Attributes:
        residual_history: norms of the residual across accepted iterates.
    """

    def __init__(self, message, residual_history):
        self.residual_history = list(residual_history)
        super().__init__(message)


# ---------------------------------------------------------------------------
# LQ / Riccati
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LqProblem:
    """Minimize int_0^T x'W x + u'U u dt + x(T)'Q x(T) subject to dx = Ax + Bu.

    Constant data, checked here: an LtiSystem, n x n W and Q, a symmetric positive
    definite m x m U and a finite T > 0.  A violation raises ValueError.
    """

    sys: LtiSystem
    W: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    T: float

    def __post_init__(self):
        if not isinstance(self.sys, LtiSystem):
            raise TypeError("LqProblem needs an LtiSystem")
        n, m = self.sys.n, self.sys.m
        W, U, Q = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (self.W, self.U, self.Q))
        if W.shape != (n, n) or Q.shape != (n, n):
            raise DimensionError(f"W and Q must be {n} x {n}")
        if U.shape != (m, m):
            raise DimensionError(f"U must be {m} x {m}")
        if not all(np.all(np.isfinite(M)) for M in (W, U, Q)):
            raise ValueError("W, U and Q must be finite")
        if not np.allclose(U, U.T, rtol=1e-12, atol=0.0) or np.linalg.eigvalsh(U)[0] <= 0.0:
            raise ValueError("U must be symmetric positive definite")
        T = float(self.T)
        if not (np.isfinite(T) and T > 0.0):
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")
        for name, value in (("W", W), ("U", U), ("Q", Q), ("T", T)):
            object.__setattr__(self, name, value)


def _check_in_grid(grid: np.ndarray, t) -> None:  # t may be an array of times
    if np.min(t) < grid[0] - 1e-9 or np.max(t) > grid[-1] + 1e-9:
        raise ValueError(f"t={t} outside the Riccati grid [{grid[0]}, {grid[-1]}]")


@dataclass(frozen=True)
class RiccatiSolution:
    grid: np.ndarray
    E: np.ndarray  # shape (nodes, n, n), symmetric at every node
    dE: np.ndarray  # E'(t) at every node, from the Riccati equation

    def at(self, t: float) -> np.ndarray:
        """E(t) between grid nodes, cubic Hermite from E and dE."""
        _check_in_grid(self.grid, t)
        return self._dense(t)

    @cached_property
    def _dense(self) -> DenseOutput:
        return DenseOutput(self.grid, self.E, self.dE)


def riccati_solve(p: LqProblem, steps: int = 2000) -> RiccatiSolution:
    """E' = W - A'E - EA - ESE, E(T) = -Q, S = BU^-1B', exact at the grid nodes.

    E = Y X^-1 for the linear flow (X, Y)' = M (X, Y) with the Hamiltonian
    matrix M = [[A, S], [W, -A']], so the propagator P^j = expm(-j h M) maps E
    at a node exactly to E j nodes earlier by the Moebius map
    (P^j_21 + P^j_22 E)(P^j_11 + P^j_12 E)^-1 (Davison & Maki, IEEE TAC 18(1),
    1973).  The sweep fills blocks of b = min(256, steps, max(1, 1/|hM|_1))
    nodes, each from the last node of the previous block, in batched calls, so
    the flow grows by at most e within a block (Kenney & Leipnik, IEEE TAC
    30(10), 1985); the powers come from one stacked expm, not from products.
    E' at the nodes is the Riccati right-hand side.  RiccatiBlowup marks a
    conjugate point, at the last node reached: det X, which the exact flow
    starts at 1 and which is the product of the one-step dets, reaching 0, or
    |E| above 1e8.
    """
    A, B = p.sys.A, p.sys.B
    n = p.sys.n
    S = B @ np.linalg.solve(p.U, B.T)
    h = p.T / steps
    hM = h * np.block([[A, S], [p.W, -A.T]])
    b = max(1, min(steps, int(1.0 / max(np.linalg.norm(hM, 1), 1.0 / 256))))
    P = expm(-np.arange(1.0, b + 1)[:, None, None] * hM)  # P^1 ... P^b
    grid = h * np.arange(steps + 1)
    E = np.empty((steps + 1, n, n))
    E[-1] = -p.Q
    for a in range(steps, 0, -b):  # the anchor node a fills nodes a - 1 ... a - m
        m = min(b, a)
        XY = P[:m, :, :n] + P[:m, :, n:] @ E[a]  # (X_j, Y_j) stacked, j = 1 ... m
        ok = np.linalg.det(XY[:, :n]) > 0.0  # False from the first node past a pole, and for nan
        j = m if ok.all() else int(ok.argmin())  # solve no X past that node
        Em = np.linalg.solve(XY[:j, :n].transpose(0, 2, 1), XY[:j, n:].transpose(0, 2, 1))
        Em = 0.5 * (Em + Em.transpose(0, 2, 1))
        ok = np.linalg.norm(Em, axis=(1, 2)) <= 1e8  # False for a non-finite Em too
        j = j if ok.all() else int(ok.argmin())
        E[a - j : a] = Em[:j][::-1]
        if j < m:
            t = grid[a - j - 1]
            raise RiccatiBlowup(t, f"Riccati solution blew up near t={t:.6g}")
    dE = p.W - A.T @ E - E @ A - E @ S @ E
    return RiccatiSolution(grid, E, 0.5 * (dE + dE.transpose(0, 2, 1)))


def lq_feedback(sol: RiccatiSolution, p: LqProblem) -> Callable:
    """Optimal LQ state feedback law(t, x) = K(t) x, K = U^-1 B^T E.

    K is the cubic Hermite dense output of its node values and of K' =
    U^-1 B^T E', formed once on the Riccati grid.  `law.gain(t)` is K at a
    time or at an array of times.  Times off the grid raise ValueError.
    """
    G = np.linalg.solve(p.U, p.sys.B.T)
    dense = DenseOutput(sol.grid, G @ sol.E, G @ sol.dE)

    def gain(t):
        _check_in_grid(sol.grid, t)
        return dense(t)

    law = lambda t, x: gain(t) @ x
    law.gain = gain
    return law


def lq_cost(p: LqProblem, law: Callable, x0, steps: int = 2000):
    """Simulate the plant under the feedback of `lq_feedback` and evaluate the LQ cost by Simpson.

    The closed loop x' = (A + B K(t)) x runs on rk4_linear_sweep; a law without
    a `gain` raises TypeError.  Returns (cost, trajectory, control samples).
    """
    if not hasattr(law, "gain"):
        raise TypeError("lq_cost needs the feedback that lq_feedback returns")
    x0 = np.asarray(x0, dtype=float).reshape(p.sys.n)
    times, weights = simpson_grid(p.T, steps)
    K = law.gain(0.5 * times[1] * np.arange(2 * len(times) - 1))
    X = rk4_linear_sweep(p.sys.A + p.sys.B @ K, None, times, x0, times[1])
    controls = (K[::2] @ X[:, :, None])[:, :, 0]
    running = np.sum((X @ p.W) * X, axis=1) + np.sum((controls @ p.U) * controls, axis=1)
    cost = float(weights @ running) + float(X[-1] @ p.Q @ X[-1])
    return cost, Trajectory(times, X), controls


# ---------------------------------------------------------------------------
# PMP shooting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OcProblem:
    """A Pontryagin optimal control problem for single shooting.

    terminal_kind is one of "fixed" (x1 given), "free", or "manifold"
    (F(x) = 0 with F_jacobian rows).  horizon is the fixed final time or
    None for free final time (then the shooting guess must include one).
    The maximizer returns argmax_u H(t, x, p, p0, u).  `hamiltonian_dx`,
    when provided, supplies the analytic dH/dx and avoids finite
    differencing the Hamiltonian (worth it for tight runtimes).

    `f`, `f0`, `maximizer`, `hamiltonian_dx` and a maximizer's `switching`
    get x and p as sequences of floats: lists while the extremal is
    integrated, 1-D arrays at its endpoints.  They return sequences of
    floats (`f0` a float); tuples or lists keep the integration fast.
    """

    dimension: int
    control_dim: int
    f: Callable
    maximizer: Callable
    x0: np.ndarray
    f0: Optional[Callable] = None
    g_x: Optional[Callable] = None
    terminal_kind: str = "fixed"
    x1: Optional[np.ndarray] = None
    F: Optional[Callable] = None
    F_jacobian: Optional[Callable] = None
    horizon: Optional[float] = None
    hamiltonian_dx: Optional[Callable] = None

    def __post_init__(self):
        kinds = ("fixed", "free", "manifold")
        if self.terminal_kind not in kinds:
            raise ValueError(f"terminal_kind must be one of {kinds}")
        if self.terminal_kind == "fixed" and self.x1 is None:
            raise ValueError("fixed terminal condition requires x1")
        if self.terminal_kind == "manifold" and (self.F is None or self.F_jacobian is None):
            raise ValueError("manifold terminal condition requires F and F_jacobian")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.dimension,):
            raise DimensionError(f"x0 must have {self.dimension} entries")
        if self.x1 is not None:
            object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))


@dataclass
class Extremal:
    state: Trajectory
    adjoint: Trajectory
    p0: float
    control: np.ndarray
    residual: np.ndarray
    hamiltonian_samples: np.ndarray
    converged: bool
    residual_history: list
    tf: float
    singular_arc: bool = False
    history_steps: list = field(default_factory=list)

    @property
    def newton_iterations(self) -> int:
        """Accepted Newton steps: history entries that follow one on the same grid."""
        s = self.history_steps
        return sum(a == b for a, b in zip(s, s[1:]))


def _hamiltonian(p: OcProblem, t, x, pv, p0, u):
    val = float(pv @ np.asarray(p.f(t, x, u), dtype=float))
    if p.f0 is not None:
        val += p0 * float(p.f0(t, x, u))
    return val


def _ham_rhs(p: OcProblem, p0):
    """(t, z, u=None) -> z' = (f, -dH/dx) on a list z = (x, p) of floats, as a list."""
    n, f, maximizer, ham_dx = p.dimension, p.f, p.maximizer, p.hamiltonian_dx
    if ham_dx is None:

        def ham_dx(t, x, pv, p0, u):  # central differences of H in x
            H = lambda xv: _hamiltonian(p, t, xv, pv, p0, u)
            return fd_jacobian(H, x, 1e-6 * (1.0 + np.abs(x)))[0].tolist()

    def rhs(t, z, u=None):
        x = z[:n]
        pv = z[n:]
        if u is None:
            u = maximizer(t, x, pv, p0)
        return [*f(t, x, u), *map(operator.neg, ham_dx(t, x, pv, p0, u))]

    return rhs


def _rk4(rhs, t, z, h, u=None):
    """numcore.rk4_step on a list of floats: the same operations in the same order.

    `u`, when given, is the control of every stage (rhs's own maximizer otherwise).
    """
    a = 0.5 * h
    k1 = rhs(t, z, u)
    k2 = rhs(t + a, [zi + a * ki for zi, ki in zip(z, k1)], u)
    k3 = rhs(t + a, [zi + a * ki for zi, ki in zip(z, k2)], u)
    k4 = rhs(t + h, [zi + h * ki for zi, ki in zip(z, k3)], u)
    b = h / 6.0
    return [
        zi + b * (c1 + 2.0 * c2 + 2.0 * c3 + c4) for zi, c1, c2, c3, c4 in zip(z, k1, k2, k3, k4)
    ]


def _sign(v):
    """np.sign(v) with the measure-zero tie |v| < 1e-12 broken to 0."""
    if abs(v) < 1e-12:
        return 0.0
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else v  # v is NaN in the last case


def _switch_signs(switching, t, z, n, p0):
    return [_sign(v) for v in switching(t, z[:n], z[n:], p0)]


def _dot(a, b):
    """<a, b> of two float sequences, summed left to right."""
    return sum(ai * bi for ai, bi in zip(a, b))


def _crossed(s0, s1):
    """Whether some switching function changed sign between two sign lists."""
    return any(a * b < 0.0 for a, b in zip(s0, s1))


def _event_step(rhs, maximizer, switching, t, z, h, n, p0, s0, t_next):
    """RK4 step that locates bang-bang switching times by bisection.

    Bang-bang controls are piecewise constant, so each substep freezes the
    control at its starting value; splitting the step at each sign change of
    the switching function then keeps the shooting map smooth in the initial
    adjoint.  The integration lands 1e-10 past each crossing so the new sign
    is resolved against the maximizer's tie-break.

    `s0` are the switching signs at (t, z), or None if the caller has none.
    A maximizer with a `bound` a (the box's) takes the control a s0 from
    them; any other is called.  Returns the new state and its switching
    signs at `t_next`, the time the caller's next step starts from.  The
    signs are None when the step ended on a landed crossing or its end time
    is not exactly `t_next`.
    """
    bound = getattr(maximizer, "bound", None)
    remaining = h
    for _ in range(12):
        if s0 is None:
            s0 = _switch_signs(switching, t, z, n, p0)
        u0 = maximizer(t, z[:n], z[n:], p0) if bound is None else [bound * s for s in s0]
        z_try = _rk4(rhs, t, z, remaining, u0)
        s1 = _switch_signs(switching, t + remaining, z_try, n, p0)
        if not _crossed(s0, s1):
            return z_try, (s1 if t + remaining == t_next else None)
        lo, hi = 0.0, remaining
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            z_mid = _rk4(rhs, t, z, mid, u0)
            if _crossed(s0, _switch_signs(switching, t + mid, z_mid, n, p0)):
                hi = mid
            else:
                lo = mid
        step = min(remaining, hi + 1e-10)
        z = _rk4(rhs, t, z, step, u0)
        t += step
        remaining -= step
        s0 = None
        if remaining <= 0.0:
            return z, None
    return _rk4(rhs, t, z, remaining), None


def integrate_extremal(p: OcProblem, p_init, tf: float, steps: int, p0: float = -1.0):
    """Integrate the PMP Hamiltonian system from (x0, p_init) over [0, tf].

    Uses `steps` fixed RK4 steps, with switch-time event location for
    bang-bang maximizers.  The flow runs on lists of Python floats, which
    cost far less per operation than arrays of 2n entries.  Returns (times,
    Z) where Z[k] = (x(t_k), p(t_k)).  Raises IntegrationBlowup if the state
    leaves the finite range.
    """
    n = p.dimension
    rhs = _ham_rhs(p, p0)
    switching = (
        getattr(p.maximizer, "switching", None)
        if getattr(p.maximizer, "bang_bang", False)
        else None
    )
    h = tf / steps
    times = h * np.arange(steps + 1)
    z0 = np.concatenate([p.x0, p_init]).tolist()
    if switching is None:
        return times, rk4_sweep(rhs, times, z0, h, lambda t, z, t_next: _rk4(rhs, t, z, h))
    signs = None  # switching signs at the start of the next step, when known

    def step(t, z, t_next):
        nonlocal signs
        z, signs = _event_step(rhs, p.maximizer, switching, t, z, h, n, p0, signs, t_next)
        return z

    return times, rk4_sweep(rhs, times, z0, h, step)


def _terminal_residual(p: OcProblem, t_f, x_f, p_f, p0):
    pieces = []
    gx = np.asarray(p.g_x(t_f, x_f), dtype=float) if p.g_x is not None else np.zeros(p.dimension)
    if p.terminal_kind == "fixed":
        pieces.append(x_f - p.x1)
    elif p.terminal_kind == "free":
        pieces.append(p_f - p0 * gx)
    else:
        Fv = np.atleast_1d(np.asarray(p.F(x_f), dtype=float))
        dF = np.atleast_2d(np.asarray(p.F_jacobian(x_f), dtype=float))
        pieces.append(Fv)
        # Tangent basis of the manifold: null space of the gradient rows.  The
        # count has an absolute floor, max(1, sigma_0), so it is not numerical_rank.
        _, sv, Vt = np.linalg.svd(dF)
        q = int(np.count_nonzero(sv > 1e-12 * max(1.0, sv[0] if sv.size else 1.0)))
        tangent = Vt[q:]
        pieces.append(tangent @ (p_f - p0 * gx))
    if p.horizon is None:
        u_f = np.atleast_1d(np.asarray(p.maximizer(t_f, x_f, p_f, p0), dtype=float))
        pieces.append(np.array([_hamiltonian(p, t_f, x_f, p_f, p0, u_f)]))
    return np.concatenate(pieces)


def pmp_shoot(
    p: OcProblem,
    guess,
    steps: int = 1000,
    newton_iters: int = 50,
    tol: float = 1e-9,
    p0: float = -1.0,
) -> Extremal:
    """Damped-Newton single shooting on the PMP boundary value problem.

    `guess` is the initial adjoint vector p(0), with the final-time guess
    appended when the horizon is free.  Abnormal candidates (p0 = 0) append
    the normalization ||p(0)||^2 = 1 to the residual and use a least-squares
    Newton step.

    Newton runs on two grids.  A guess whose residual on the requested
    `steps` grid is already below `tol` is returned at once.  Otherwise
    Newton first runs on a coarse grid of `steps // 8` steps (skipped when
    `steps` < 8 leaves it empty) until the coarse residual is below
    max(tol, delta), where delta = ||r_fine - r_coarse|| at the guess is the
    coarse grid's discretization floor, or until a step fails.  It then
    continues on the requested grid, from the coarse iterate if that has the
    smaller fine residual and from the guess otherwise.  `converged` means
    the residual on the requested grid is below `tol`.  `newton_iters`
    bounds the Newton iterations of both grids together.

    Newton steps are least-squares solves with singular values below
    1e-10 sigma_max cut off: these directions of the finite-difference
    Jacobian are noise, and the line search would otherwise halve along them
    to no effect.  `residual_history` holds the residual norm of the start
    and of every accepted iterate on each grid, coarse first;
    `history_steps` gives the grid step count of each entry.

    Bang-bang maximizers are integrated with switch-time event location, so
    the shooting map stays smooth in the guess and the forward-difference
    Jacobian, with step 1e-6 (1 + |z|), applies to them too.

    Raises ShootingError when Newton ends at a final time t_f with
    t_f / steps <= 0: that extremal has no grid to be sampled on.
    """
    n = p.dimension
    z = np.asarray(guess, dtype=float).copy()
    expect = n + (1 if p.horizon is None else 0)
    if z.shape[0] != expect:
        raise DimensionError(f"guess must have {expect} entries")
    history, history_steps = [], []

    def shoot(zv, grid):
        """Residual at zv on a `grid`-step extremal, and that extremal (None if penalized)."""
        p_init = zv[:n]
        tf = float(zv[n]) if p.horizon is None else float(p.horizon)
        if tf <= 0:
            # Penalize nonpositive horizons smoothly so backtracking recovers.
            return np.full(expect + (1 if p0 == 0.0 else 0), 1e6 * (1.0 - tf)), None
        times, Z = integrate_extremal(p, p_init, tf, grid, p0)
        r = _terminal_residual(p, tf, Z[-1, :n], Z[-1, n:], p0)
        if p0 == 0.0:
            r = np.concatenate([r, [p_init @ p_init - 1.0]])
        return r, (times, Z)

    def newton(z, shot, grid, target, iters):
        """Damped Newton on the `grid`-step shooting map until ||r|| < target or a step fails.

        Runs at most `iters` iterations; returns the iterate, its shot and the
        iterations run.
        """
        history.append(float(np.linalg.norm(shot[0])))
        history_steps.append(grid)
        for it in range(iters):
            if history[-1] < target:
                return z, shot, it
            r = shot[0]
            h = 1e-6 * (1.0 + np.abs(z))
            J = fd_jacobian(lambda zv: shoot(zv, grid)[0], z, h, "forward", r)
            step, *_ = np.linalg.lstsq(J, -r, rcond=1e-10)
            alpha = 1.0
            for _ in range(30):
                trial = shoot(z + alpha * step, grid)
                if np.linalg.norm(trial[0]) < history[-1]:
                    z, shot = z + alpha * step, trial
                    history.append(float(np.linalg.norm(trial[0])))
                    history_steps.append(grid)
                    break
                alpha *= 0.5
            else:
                return z, shot, it + 1
        return z, shot, iters

    shot = shoot(z, steps)
    coarse = steps // 8
    used = 0
    if np.linalg.norm(shot[0]) >= tol and coarse >= 1:
        coarse_shot = shoot(z, coarse)
        # The grids' disagreement at the guess: coarse Newton gains nothing below it.
        floor = float(np.linalg.norm(shot[0] - coarse_shot[0]))
        z_coarse, _, used = newton(z, coarse_shot, coarse, max(tol, floor), newton_iters)
        if z_coarse is not z:  # newton hands back z itself when it took no step
            trial = shoot(z_coarse, steps)
            if np.linalg.norm(trial[0]) < np.linalg.norm(shot[0]):
                z, shot = z_coarse, trial
    z, (r, extremal), _ = newton(z, shot, steps, tol, newton_iters - used)

    converged = history[-1] < tol
    tf = float(z[n]) if p.horizon is None else float(p.horizon)
    if not tf / steps > 0.0:
        raise ShootingError(f"Newton ended at t_f = {tf:.6g}: no positive grid step", history)
    times, Z = extremal if extremal is not None else integrate_extremal(p, z[:n], tf, steps, p0)
    controls = np.empty((steps + 1, p.control_dim))
    hams = np.empty(steps + 1)
    for i, t in enumerate(times):
        x, pv = Z[i, :n], Z[i, n:]
        u = np.atleast_1d(np.asarray(p.maximizer(t, x, pv, p0), dtype=float))
        controls[i] = u
        hams[i] = _hamiltonian(p, t, x, pv, p0, u)
    singular = False
    switching = getattr(p.maximizer, "switching", None)
    if switching is not None:
        phi = np.array(
            [
                np.min(np.abs(np.atleast_1d(switching(t, Z[i, :n], Z[i, n:], p0))))
                for i, t in enumerate(times)
            ]
        )
        below = phi < 1e-9
        run = 0
        for flag in below:
            run = run + 1 if flag else 0
            if run >= 5:
                singular = True
                break
    return Extremal(
        state=Trajectory(times, Z[:, :n]),
        adjoint=Trajectory(times, Z[:, n:]),
        p0=p0,
        control=controls,
        residual=r,
        hamiltonian_samples=hams,
        converged=converged,
        residual_history=history,
        history_steps=history_steps,
        tf=tf,
        singular_arc=singular,
    )


# ---------------------------------------------------------------------------
# Hamiltonian maximizers
# ---------------------------------------------------------------------------


def hamiltonian_maximizer_box(a: float, fields: Sequence[Callable]):
    """Bang-bang maximizer for f = f_0 + sum u_i f_i with |u_i| <= a.

    The switching function is phi_i(t) = <p, f_i(t, x)>; u_i = a sign(phi_i),
    with the measure-zero tie |phi_i| < 1e-12 broken to 0.  The maximizer
    carries `switching` and the bound a as `bound`.
    """

    def switching(t, x, p, p0):
        return [_dot(p, fi(t, x)) for fi in fields]

    def maximizer(t, x, p, p0):
        return [a * _sign(v) for v in switching(t, x, p, p0)]

    maximizer.switching = switching
    maximizer.bound = a
    maximizer.bang_bang = True
    return maximizer


def hamiltonian_maximizer_ball(r: float, fields: Sequence[Callable]):
    """Maximizer over the Euclidean ball ||u|| <= r: u = r phi / ||phi||."""

    def switching(t, x, p, p0):
        return [_dot(p, fi(t, x)) for fi in fields]

    def maximizer(t, x, p, p0):
        phi = switching(t, x, p, p0)
        nrm = math.hypot(*phi)
        if nrm < 1e-12:
            return [0.0] * len(phi)
        return [r * v / nrm for v in phi]

    maximizer.switching = switching
    return maximizer


def hamiltonian_maximizer_unconstrained(B, U):
    """Stationary maximizer for quadratic-in-u cost: u = U^-1 B^T p (p0 = -1), constant B, U."""
    gain = np.linalg.solve(np.atleast_2d(U), np.atleast_2d(B).T)

    def maximizer(t, x, p, p0):
        return gain @ p

    return maximizer


def check_extremal(e: Extremal, p: OcProblem) -> dict:
    """Diagnostics: Hamiltonian constancy, transversality, nontriviality."""
    hams = e.hamiltonian_samples
    diag = {
        "hamiltonian_deviation": float(np.max(np.abs(hams - np.mean(hams)))),
        "nontriviality": float(
            np.hypot(np.linalg.norm(e.adjoint.states[0]), abs(e.p0))
        ),
        "terminal_residual": float(
            np.linalg.norm(
                _terminal_residual(p, e.tf, e.state.at_end(), e.adjoint.at_end(), e.p0)
            )
        ),
    }
    if p.horizon is None:
        diag["free_time_residual"] = float(abs(hams[-1]))
    return diag
