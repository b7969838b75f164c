"""Optimal control: finite-horizon LQ via Riccati, and PMP shooting.

The LQ path integrates the matrix Riccati equation backward and returns the
optimal state feedback.  The shooting path integrates the Hamiltonian system
of the maximum principle forward with a pluggable Hamiltonian maximizer and
drives the terminal/transversality/free-time residuals to zero with a damped
Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .numcore import DenseOutput, DimensionError, Trajectory, fd_jacobian, rk4_step, simpson
from .lincontrol import ControlLaw, LtiSystem, LtvSystem, _as_callables

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


class RiccatiBlowup(RuntimeError):
    """Raised when the backward Riccati sweep exceeds the norm guard."""


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


def _mat_fun(M):
    """Accept either a constant matrix or a callable t -> matrix."""
    if callable(M):
        return lambda t: np.atleast_2d(np.asarray(M(t), dtype=float))
    Mc = np.atleast_2d(np.asarray(M, dtype=float))
    return lambda t: Mc


@dataclass(frozen=True)
class LqProblem:
    """Minimize int_0^T x'W x + u'U u dt + x(T)'Q x(T) subject to dx = Ax + Bu."""

    sys: object  # LtiSystem | LtvSystem
    W: object  # matrix or t -> matrix, PSD
    U: object  # matrix or t -> matrix, PD
    Q: np.ndarray
    T: float


@dataclass(frozen=True)
class RiccatiSolution:
    grid: np.ndarray
    E: np.ndarray  # shape (nodes, n, n), symmetric at every node
    dE: np.ndarray  # E'(t) at every node, from the Riccati equation

    def at(self, t: float) -> np.ndarray:
        """E(t) between grid nodes, cubic Hermite from E and dE."""
        g = self.grid
        if t < g[0] - 1e-9 or t > g[-1] + 1e-9:
            raise ValueError(f"t={t} outside the Riccati grid [{g[0]}, {g[-1]}]")
        return self._dense(t)

    @cached_property
    def _dense(self) -> DenseOutput:
        return DenseOutput(self.grid, self.E, self.dE)


def _riccati_sweep(Afun, Bfun, Wfun, Uinvfun, Q, T, steps):
    """E and E' on the grid; E' at a node is the first RK4 stage leaving it."""
    n = Q.shape[0]
    grid = np.linspace(0.0, T, steps + 1)
    E = np.empty((steps + 1, n, n))
    dE = np.empty((steps + 1, n * n))
    E[-1] = -Q

    def rhs(t, Eflat):
        Em = Eflat.reshape(n, n)
        A = Afun(t)
        B = Bfun(t)
        dE = Wfun(t) - A.T @ Em - Em @ A - Em @ B @ Uinvfun(t) @ B.T @ Em
        return dE.ravel()

    h = T / steps
    x = E[-1].ravel().copy()
    for k in range(steps, 0, -1):
        dE[k] = rhs(grid[k], x)
        x = rk4_step(rhs, grid[k], x, -h, dE[k])
        Em = x.reshape(n, n)
        Em = 0.5 * (Em + Em.T)
        if np.linalg.norm(Em) > 1e8 or not np.all(np.isfinite(Em)):
            raise RiccatiBlowup(f"Riccati sweep blew up near t={grid[k - 1]:.6g}")
        E[k - 1] = Em
        x = Em.ravel()
    dE[0] = rhs(grid[0], x)
    dE = dE.reshape(steps + 1, n, n)
    return grid, E, 0.5 * (dE + dE.transpose(0, 2, 1))


def riccati_solve(p: LqProblem, steps: int = 2000) -> RiccatiSolution:
    """Backward RK4 sweep of E' = W - A'E - EA - EBU^-1B'E, E(T) = -Q."""
    Afun, Bfun, _, n = _as_callables(p.sys)
    Wfun = _mat_fun(p.W)
    Ufun = _mat_fun(p.U)
    Uinvfun = lambda t: np.linalg.inv(Ufun(t))
    Q = np.atleast_2d(np.asarray(p.Q, dtype=float))
    return RiccatiSolution(*_riccati_sweep(Afun, Bfun, Wfun, Uinvfun, Q, p.T, steps))


def lq_feedback(sol: RiccatiSolution, p: LqProblem) -> ControlLaw:
    """Optimal LQ state feedback u(t) = U(t)^-1 B(t)^T E(t) x(t)."""
    _, Bfun, _, _ = _as_callables(p.sys)
    Ufun = _mat_fun(p.U)

    def law(t, x):
        B = Bfun(t)
        return np.linalg.solve(Ufun(t), B.T @ sol.at(t) @ x)

    return ControlLaw("feedback", law)


def lq_cost(p: LqProblem, law: ControlLaw, x0, steps: int = 2000):
    """Simulate the controlled plant and evaluate the LQ cost by Simpson.

    Returns (cost, trajectory, control samples).
    """
    from .lincontrol import simulate_linear

    if steps % 2 != 0:
        steps += 1
    Wfun = _mat_fun(p.W)
    Ufun = _mat_fun(p.U)
    traj = simulate_linear(p.sys, law, x0, p.T, steps)
    running = np.empty(steps + 1)
    controls = []
    for i, (t, x) in enumerate(zip(traj.times, traj.states)):
        u = law(t, x)
        controls.append(u)
        running[i] = float(x @ Wfun(t) @ x + u @ Ufun(t) @ u)
    Q = np.atleast_2d(np.asarray(p.Q, dtype=float))
    xT = traj.at_end()
    cost = simpson(running, p.T / steps) + float(xT @ Q @ xT)
    return cost, traj, np.asarray(controls)


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
    """

    dimension: int
    control_dim: int
    f: Callable
    maximizer: Callable
    x0: np.ndarray
    f0: Optional[Callable] = None
    g: Optional[Callable] = None
    g_t: Optional[Callable] = None
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
    n = p.dimension

    def rhs(t, z, u=None):
        x = z[:n]
        pv = z[n:]
        if u is None:
            u = np.atleast_1d(np.asarray(p.maximizer(t, x, pv, p0), dtype=float))
        fx = np.asarray(p.f(t, x, u), dtype=float)
        if p.hamiltonian_dx is not None:
            dHdx = np.asarray(p.hamiltonian_dx(t, x, pv, p0, u), dtype=float)
        else:
            H = lambda xv: _hamiltonian(p, t, xv, pv, p0, u)
            dHdx = fd_jacobian(H, x, 1e-6 * (1.0 + np.abs(x)))[0]
        return np.concatenate([fx, -dHdx])

    return rhs


def _switch_signs(switching, t, z, n, p0):
    phi = np.atleast_1d(switching(t, z[:n], z[n:], p0))
    s = np.sign(phi)
    s[np.abs(phi) < 1e-12] = 0.0
    return s


def _event_step(rhs, maximizer, switching, t, z, h, n, p0, s0, t_next):
    """RK4 step that locates bang-bang switching times by bisection.

    Bang-bang controls are piecewise constant, so each substep freezes the
    control at its starting value; splitting the step at each sign change of
    the switching function then keeps the shooting map smooth in the initial
    adjoint.  The integration lands 1e-10 past each crossing so the new sign
    is resolved against the maximizer's tie-break.

    `s0` are the switching signs at (t, z), or None if the caller has none.
    Returns the new state and its switching signs at `t_next`, the time the
    caller's next step starts from.  The signs are None when the step ended
    on a landed crossing or its end time is not exactly `t_next`.
    """
    remaining = h
    for _ in range(12):
        u0 = np.atleast_1d(np.asarray(maximizer(t, z[:n], z[n:], p0), dtype=float))
        frozen = lambda tt, zz: rhs(tt, zz, u0)
        if s0 is None:
            s0 = _switch_signs(switching, t, z, n, p0)
        z_try = rk4_step(frozen, t, z, remaining)
        s1 = _switch_signs(switching, t + remaining, z_try, n, p0)
        if not np.any(s0 * s1 < 0.0):
            return z_try, (s1 if t + remaining == t_next else None)
        lo, hi = 0.0, remaining
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            z_mid = rk4_step(frozen, t, z, mid)
            if np.any(s0 * _switch_signs(switching, t + mid, z_mid, n, p0) < 0.0):
                hi = mid
            else:
                lo = mid
        step = min(remaining, hi + 1e-10)
        z = rk4_step(frozen, t, z, step)
        t += step
        remaining -= step
        s0 = None
        if remaining <= 0.0:
            return z, None
    return rk4_step(rhs, t, z, remaining), None


def integrate_extremal(p: OcProblem, p_init, tf: float, steps: int, p0: float = -1.0):
    """Integrate the PMP Hamiltonian system from (x0, p_init) over [0, tf].

    Uses `steps` fixed RK4 steps, with switch-time event location for
    bang-bang maximizers.  Returns (times, Z) where Z[k] = (x(t_k), p(t_k)).
    Raises RiccatiBlowup if the state leaves the finite range.
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
    Z = np.empty((steps + 1, 2 * n))
    z = np.concatenate([p.x0, p_init])
    Z[0] = z
    signs = None
    for k in range(steps):
        if switching is None:
            z = rk4_step(rhs, times[k], z, h)
        else:
            z, signs = _event_step(
                rhs, p.maximizer, switching, times[k], z, h, n, p0, signs, times[k + 1]
            )
        if not np.all(np.isfinite(z)):
            raise RiccatiBlowup(f"extremal integration blew up at t={times[k + 1]:.6g}")
        Z[k + 1] = z
    return times, Z


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
        gt = float(p.g_t(t_f, x_f)) if p.g_t is not None else 0.0
        u_f = np.atleast_1d(np.asarray(p.maximizer(t_f, x_f, p_f, p0), dtype=float))
        pieces.append(np.array([_hamiltonian(p, t_f, x_f, p_f, p0, u_f) + p0 * gt]))
    return np.concatenate(pieces)


def pmp_shoot(
    p: OcProblem,
    guess,
    steps: int = 1000,
    newton_iters: int = 50,
    tol: float = 1e-9,
    p0: float = -1.0,
    jacobian_step: Optional[float] = None,
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
    the shooting map stays smooth in the guess and the default
    finite-difference `jacobian_step` applies to them too.
    """
    n = p.dimension
    z = np.asarray(guess, dtype=float).copy()
    expect = n + (1 if p.horizon is None else 0)
    if z.shape[0] != expect:
        raise DimensionError(f"guess must have {expect} entries")
    if jacobian_step is None:
        jacobian_step = 1e-6
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
            h = jacobian_step * (1.0 + np.abs(z))
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
    with the measure-zero tie |phi_i| < 1e-12 broken to 0.
    """

    def switching(t, x, p, p0):
        return np.array([float(p @ np.asarray(fi(t, x), dtype=float)) for fi in fields])

    def maximizer(t, x, p, p0):
        phi = switching(t, x, p, p0)
        u = a * np.sign(phi)
        u[np.abs(phi) < 1e-12] = 0.0
        return u

    maximizer.switching = switching
    maximizer.bang_bang = True
    return maximizer


def hamiltonian_maximizer_ball(r: float, fields: Sequence[Callable]):
    """Maximizer over the Euclidean ball ||u|| <= r: u = r phi / ||phi||."""

    def switching(t, x, p, p0):
        return np.array([float(p @ np.asarray(fi(t, x), dtype=float)) for fi in fields])

    def maximizer(t, x, p, p0):
        phi = switching(t, x, p, p0)
        nrm = np.linalg.norm(phi)
        if nrm < 1e-12:
            return np.zeros_like(phi)
        return r * phi / nrm

    maximizer.switching = switching
    return maximizer


def hamiltonian_maximizer_unconstrained(B, U):
    """Stationary maximizer for quadratic-in-u cost: u = U^-1 B^T p (p0 = -1)."""
    Bfun = _mat_fun(B)
    Ufun = _mat_fun(U)

    def maximizer(t, x, p, p0):
        return np.linalg.solve(Ufun(t), Bfun(t).T @ p)

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
        gt = float(p.g_t(e.tf, e.state.at_end())) if p.g_t is not None else 0.0
        diag["free_time_residual"] = float(abs(hams[-1] + e.p0 * gt))
    return diag
