"""Stability tests and feedback synthesis.

Routh table and Hurwitz minors for polynomial stability, pole placement for
controllable pairs by orthogonal deflation, the Lyapunov matrix equation,
finite-difference linearization at an equilibrium, Jurdjevic-Quinn damping
feedback, and the one closed-loop simulator, which validates the syntheses
empirically.  A control law is a plain callable law(t, x) -> u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numcore import DimensionError, Grid, Trajectory, fd_jacobian, rk4_sweep, spectral_rank
from .lincontrol import LtiSystem, NotControllableError, kalman_test

__all__ = [
    "RouthReport",
    "EquilibriumError",
    "routh",
    "hurwitz",
    "pole_place",
    "lyapunov_solve",
    "linearize",
    "jurdjevic_quinn_feedback",
    "simulate_closed_loop",
]


class EquilibriumError(ValueError):
    """Raised when linearize is asked to expand around a non-equilibrium.

    Attributes:
        residual: the norm of f(x_bar, u_bar).
    """

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"not an equilibrium: ||f(x,u)|| = {residual:.3e}")


@dataclass(frozen=True)
class RouthReport:
    complete: bool
    first_column: np.ndarray
    sign_changes: Optional[int]
    hurwitz: bool


def routh(coeffs: Sequence[float]) -> RouthReport:
    """Routh table of P(z) = a0 z^n + a1 z^(n-1) + ... + an.

    The table is complete when all n+1 rows have a nonzero leading entry;
    in that case the number of sign changes in the first column equals the
    number of roots with positive real part, and P is Hurwitz iff there are
    no sign changes.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != 1 or a.shape[0] < 1:
        raise DimensionError("need a coefficient vector")
    if a[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    n = a.shape[0] - 1
    if n == 0:
        return RouthReport(True, np.array([a[0]]), 0, True)
    width = (n + 2) // 2
    rows = [np.zeros(width), np.zeros(width)]
    rows[0][: len(a[0::2])] = a[0::2]
    rows[1][: len(a[1::2])] = a[1::2]
    complete = True
    for k in range(2, n + 1):
        prev, prev2 = rows[k - 1], rows[k - 2]
        if prev[0] == 0.0:
            complete = False
            break
        row = np.zeros(width)
        for i in range(width - 1):
            row[i] = (prev[0] * prev2[i + 1] - prev2[0] * prev[i + 1]) / prev[0]
        rows.append(row)
    if complete and rows[-1][0] == 0.0 and n >= 1:
        complete = False
    first = np.array([r[0] for r in rows])
    if not complete:
        return RouthReport(False, first, None, False)
    signs = np.sign(first)
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return RouthReport(True, first, changes, changes == 0)


def hurwitz(coeffs: Sequence[float]):
    """Leading principal minors of the Hurwitz matrix; P Hurwitz iff all > 0.

    Returns (minors, verdict).  Requires a positive leading coefficient
    (normalize the polynomial first otherwise).
    """
    a = np.asarray(coeffs, dtype=float)
    if a[0] <= 0.0:
        raise ValueError("leading coefficient must be positive; normalize first")
    n = a.shape[0] - 1
    if n == 0:
        return np.array([]), True

    def coef(k: int) -> float:
        return a[k] if 0 <= k <= n else 0.0

    H = np.array([[coef(2 * j - i) for j in range(1, n + 1)] for i in range(1, n + 1)])
    minors = np.array([np.linalg.det(H[:k, :k]) for k in range(1, n + 1)])
    return minors, bool(np.all(minors > 0.0))


# ---------------------------------------------------------------------------
# Pole placement
# ---------------------------------------------------------------------------


def pole_place(sys: LtiSystem, target: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    """Gain K (m x n) such that the characteristic polynomial of A+BK is `target`.

    `target` is the monic coefficient vector (1, alpha_1, ..., alpha_n).

    Orthogonal deflation, after Miminis and Paige (Automatica 24(3), 1988).
    One real root, or one conjugate pair, at a time is placed on the
    orthonormal basis Q_r of the not-yet-placed subspace: a null vector (v, w)
    of [Q_r^T A Q_r - lambda I, Q_r^T B] sets K Q_r v = w (a pair uses the
    real 2-plane [Re v, Im v]), and placement goes on in the orthogonal
    complement.  So A + BK is block upper triangular in the accumulated
    basis X, with placed block T_p.  Real roots go first, in ascending order.

    Null-vector rule: the closed-loop eigenvector of lambda is linear in the
    null coordinates c, x(c) = Q_r v(c) - X (T_p - lambda I)^-1 X^T (A Q_r
    v(c) + B w(c)), and c makes x farthest from span(X), the eigenvectors
    already placed, which keeps the eigenvector basis well conditioned as in
    Kautsky, Nichols and Van Dooren (Int. J. Control 41(5), 1985).  The first
    root, and a root with sigma_min(T_p - lambda I) <= 1e-6 max(1, |lambda|)
    (a repeated root), take the null vector with the largest state part,
    which is the smallest gain.  For a pair, v mixes the two best candidates
    so that Re v and Im v are orthogonal and of equal norm: the best one
    alone can be real up to a phase (B = I ties every direction), and then
    the 2-plane is degenerate.
    """
    target = np.asarray(target, dtype=float)
    n = sys.n
    if target.shape[0] != n + 1:
        raise DimensionError("target polynomial degree must equal the state dimension")
    if target[0] != 1.0:
        if target[0] == 0.0:
            raise ValueError("target leading coefficient must be nonzero")
        target = target / target[0]
    if not kalman_test(sys, tol).controllable:
        raise NotControllableError("pole placement requires the Kalman condition")
    A, B = sys.A, sys.B
    X, W = np.zeros((n, 0)), np.zeros((sys.m, 0))  # K X = W
    Qr = np.eye(n)
    rho = np.roots(target)
    for lam in [*np.sort(rho[rho.imag == 0.0].real), *np.sort_complex(rho[rho.imag > 0.0])]:
        r = Qr.shape[1]
        Vh = np.linalg.svd(np.hstack([Qr.T @ A @ Qr - lam * np.eye(r), Qr.T @ B]))[2]
        Zv, Zw = np.split(Vh[r:].conj().T, [r])  # null space, one column per input
        shifted = X.T @ (A @ X + B @ W) - lam * np.eye(X.shape[1])  # T_p - lambda I
        # Not spectral_rank: a distance from lambda to the placed spectrum, not a rank.
        if X.shape[1] and np.linalg.svd(shifted, compute_uv=False)[-1] > 1e-6 * max(1.0, abs(lam)):
            # x(c) = [Qr, X] [Zv; Y] c: orthonormalize the map, then rank c by
            # the right singular vectors of its part off span(X).
            Y = -np.linalg.solve(shifted, X.T @ (A @ Qr @ Zv + B @ Zw))
            _, sm, Vm = np.linalg.svd(np.vstack([Zv, Y]), full_matrices=False)
            q = spectral_rank(sm, tol)
            P = Vm[:q].conj().T / sm[:q]
            C = P @ np.linalg.svd(Zv @ P)[2].conj().T
        else:
            C = np.linalg.svd(Zv)[2].conj().T  # largest state part: the smallest gain
        c = C[:, 0]
        if np.iscomplexobj(c) and C.shape[1] > 1 and np.linalg.norm(Zv @ C[:, 1]) > tol:
            v1, v2 = Zv @ C[:, 0], Zv @ C[:, 1]
            t = np.roots([v2 @ v2, 2.0 * (v1 @ v2), v1 @ v1])  # (v1 + t v2)^T (v1 + t v2) = 0
            c = c + t[np.argmin(np.abs(t))] * C[:, 1] if t.size else C[:, 1]
        v, w = Zv @ c, Zw @ c
        if np.iscomplexobj(v):  # a conjugate pair
            v, w = np.column_stack([v.real, v.imag]), np.column_stack([w.real, w.imag])
        Q, R = np.linalg.qr(v.reshape(r, -1), mode="complete")
        k = R.shape[1]
        X = np.hstack([X, Qr @ Q[:, :k]])
        W = np.hstack([W, np.linalg.solve(R[:k].T, w.reshape(sys.m, k).T).T])
        Qr = Qr @ Q[:, k:]
    K = W @ X.T
    achieved = np.poly(A + B @ K)
    if np.max(np.abs(achieved - target)) > max(1e-6, tol) * max(
        1.0, np.max(np.abs(target))
    ):
        raise NotControllableError("pole placement verification failed")
    return K


# ---------------------------------------------------------------------------
# Lyapunov equation
# ---------------------------------------------------------------------------


def lyapunov_solve(A: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A = -I for the Hurwitz matrix A (Kronecker linearization)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionError("A must be square")
    if np.max(np.linalg.eigvals(A).real) >= 0.0:
        raise ValueError("A is not Hurwitz; the Lyapunov integral diverges")
    lhs = np.kron(np.eye(n), A.T) + np.kron(A.T, np.eye(n))
    vecP = np.linalg.solve(lhs, -np.eye(n).ravel())
    P = vecP.reshape(n, n)
    return 0.5 * (P + P.T)


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def linearize(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_bar,
    u_bar,
) -> LtiSystem:
    """Linearize dx/dt = f(x, u) at an equilibrium (x_bar, u_bar).

    Raises EquilibriumError when ||f(x_bar, u_bar)|| exceeds 1e-8.  Jacobians
    by 4th-order central differences with step 1e-5 scaled by the coordinate
    magnitude.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    u_bar = np.atleast_1d(np.asarray(u_bar, dtype=float))
    res = float(np.linalg.norm(np.asarray(f(x_bar, u_bar), dtype=float)))
    if res > 1e-8:
        raise EquilibriumError(res)
    A = fd_jacobian(lambda z: f(z, u_bar), x_bar, 1e-5 * np.maximum(1.0, np.abs(x_bar)), "central4")
    B = fd_jacobian(lambda w: f(x_bar, w), u_bar, 1e-5 * np.maximum(1.0, np.abs(u_bar)), "central4")
    return LtiSystem(A, B)


# ---------------------------------------------------------------------------
# Jurdjevic-Quinn feedback and closed-loop simulation
# ---------------------------------------------------------------------------


def jurdjevic_quinn_feedback(
    controlled_fields: Sequence[Callable[[np.ndarray], np.ndarray]],
    V_gradient: Callable[[np.ndarray], np.ndarray],
    saturation: Optional[float] = None,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Damping feedback law(t, x) with u_i = -<grad V(x), g_i(x)>, optionally saturated.

    The caller is responsible for the structural hypotheses (properness of V,
    the invariance condition); only the decrease of V along simulations is
    checked empirically elsewhere.
    """

    def law(t, x):
        g = np.asarray(V_gradient(x), dtype=float)
        u = np.array([-float(g @ np.asarray(gi(x), dtype=float)) for gi in controlled_fields])
        if saturation is not None:
            u = np.clip(u, -saturation, saturation)
        return u

    return law


def simulate_closed_loop(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    law: Callable[[float, np.ndarray], np.ndarray],
    x0,
    T: float,
    steps: int,
    V: Optional[Callable[[np.ndarray], float]] = None,
):
    """RK4 simulation of dx/dt = f(x, law(t, x)) on `steps` equal steps of [0, T].

    An open-loop control u(t) goes in as lambda t, x: u(t).  Raises GridError
    for a grid that Grid refuses and DimensionError for an x0 that is not a
    vector.  Returns (trajectory, control samples at nodes, V samples or None).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise DimensionError(f"x0 must be a vector, got shape {x0.shape}")
    grid = Grid(T, steps)
    states = rk4_sweep(lambda t, x: np.asarray(f(x, law(t, x)), dtype=float), grid, x0)
    controls = np.array([law(t, x) for t, x in zip(grid.times, states)])
    v_samples = None if V is None else np.array([float(V(x)) for x in states])
    return Trajectory(grid.times, states), controls, v_samples
