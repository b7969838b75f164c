"""Stability tests and feedback synthesis.

Routh table and Hurwitz minors for polynomial stability, pole placement for
controllable pairs (single-input via the companion form, multi-input via the
reduction lemma), the Lyapunov matrix equation, finite-difference
linearization at an equilibrium, Jurdjevic-Quinn damping feedback, and a
closed-loop simulator used to validate the syntheses empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numcore import DimensionError, OdeProblem, Trajectory, fd_jacobian, integrate
from .lincontrol import (
    ControlLaw,
    LtiSystem,
    NotControllableError,
    brunovski_form,
    kalman_matrix,
    kalman_test,
)

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
    table: list
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
        return RouthReport([ [a[0]] ], True, np.array([a[0]]), 0, True)
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
    table = [r.copy() for r in rows]
    first = np.array([r[0] for r in rows])
    if not complete:
        return RouthReport(table, False, first, None, False)
    signs = np.sign(first)
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return RouthReport(table, True, first, changes, changes == 0)


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


def _pole_place_single(sys: LtiSystem, target: np.ndarray, tol: float) -> np.ndarray:
    P, _, a = brunovski_form(sys, tol)
    n = sys.n
    alpha = target[1:]  # monic: target[0] == 1
    # In companion coordinates k_i = a_{n+1-i} - alpha_{n+1-i}.
    k = np.array([a[n - i] - alpha[n - i] for i in range(1, n + 1)])
    K = (k @ P).reshape(1, n)
    # Iterative refinement: the map k -> characteristic coefficients has
    # identity Jacobian in companion coordinates, so the floating-point
    # coefficient residual (amplified by cond(P)) can be corrected directly.
    scale = max(1.0, float(np.max(np.abs(target))))
    for _ in range(3):
        resid = np.poly(sys.A + sys.B @ K)[1:] - alpha
        if np.max(np.abs(resid)) < 1e-13 * scale:
            break
        k = k + np.array([resid[n - i] for i in range(1, n + 1)])
        K = (k @ P).reshape(1, n)
    return K


def _grow_basis(sys: LtiSystem, tol: float, rng=None):
    """Reduction to a single-input pair: chain x1 = By, x_{k+1} = A x_k + B y_k.

    Deterministic candidate rule: y and each y_k scanned over zero and the
    canonical input directions, keeping the choice that maximizes the
    smallest singular value of the column-normalized grown basis.  With an
    `rng`, the start direction is random and random candidates are added,
    which rescues pairs where the greedy deterministic chain is badly
    conditioned.  Returns (y, C) with (A + BC, By) controllable.
    """
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    y = None
    if rng is not None:
        y = rng.standard_normal(m)
        y /= np.linalg.norm(y)
        if np.linalg.norm(B @ y) <= tol:
            y = None
    if y is None:
        for i in range(m):
            if np.linalg.norm(B[:, i]) > tol:
                y = np.zeros(m)
                y[i] = 1.0
                break
    if y is None:
        raise NotControllableError("B is numerically zero")
    xs = [B @ y]
    ys = []  # y_k driving x_k -> x_{k+1}
    candidates = [np.zeros(m)]
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        candidates.append(e)
        candidates.append(-e)
    if rng is not None:
        for _ in range(4):
            candidates.append(rng.standard_normal(m))
    for _ in range(n - 1):
        best = None
        best_sv = -1.0
        for cand in candidates:
            xk1 = A @ xs[-1] + B @ cand
            nrm = np.linalg.norm(xk1)
            if nrm <= tol:
                continue
            M = np.column_stack([v / np.linalg.norm(v) for v in xs] + [xk1 / nrm])
            sv = np.linalg.svd(M, compute_uv=False)[-1]
            if sv > best_sv:
                best_sv = sv
                best = (cand, xk1)
        if best is None or best_sv <= tol:
            raise NotControllableError("could not extend the reduction chain")
        ys.append(best[0])
        xs.append(best[1])
    X = np.column_stack(xs)
    Y = np.column_stack(ys + [np.zeros(m)])  # C x_n := 0
    C = Y @ np.linalg.inv(X)
    return y, C


def _refine_multi(sys: LtiSystem, K: np.ndarray, target: np.ndarray, iters: int = 4):
    """Least-squares Newton polish of the coefficient residual over all of K.

    The chain-basis reduction can be poorly conditioned, leaving coefficient
    errors well above round-off; a few Newton steps on the full gain drive
    the characteristic-polynomial residual back to ~1e-13."""
    n, m = sys.n, sys.m
    alpha = target[1:]
    scale = max(1.0, float(np.max(np.abs(target))))

    def residual(k):
        return np.poly(sys.A + sys.B @ k.reshape(m, n))[1:] - alpha

    for _ in range(iters):
        k = K.ravel()
        resid = residual(k)
        if np.max(np.abs(resid)) < 1e-13 * scale:
            break
        J = fd_jacobian(residual, k, 1e-6 * (1.0 + np.abs(k)), "forward", resid)
        step, *_ = np.linalg.lstsq(J, -resid, rcond=None)
        K = K + step.reshape(m, n)
    return K


def _assign_robust(sys: LtiSystem, rho: np.ndarray, sweeps: int = 12):
    """Eigenstructure assignment for m > 1 with real distinct target roots.

    For each root pick (v_i, w_i) in the null space of [A - rho_i I, B], so
    that (A + BK) v_i = rho_i v_i once K V = W.  The per-root choice is the
    Kautsky-Nichols rank-one sweep: rotate each v_i toward the direction
    orthogonal to the other eigenvectors, which minimizes the eigenvector
    condition number and hence the sensitivity of the assigned spectrum.
    """
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    Xs, Ws = [], []
    for r in rho:
        M = np.hstack([A - r * np.eye(n), B])
        _, sv, Vt = np.linalg.svd(M)
        null = Vt[n:].T  # (n+m) x m basis of the null space
        # orthonormalize the state part's coordinates
        q, _ = np.linalg.qr(null)
        Xs.append(q[:n])
        Ws.append(q[n:])
    V = np.column_stack([X[:, 0] for X in Xs])
    V /= np.linalg.norm(V, axis=0)
    for _ in range(sweeps):
        for i in range(n):
            others = np.delete(V, i, axis=1)
            Q, _ = np.linalg.qr(others, mode="complete")
            q = Q[:, -1]  # unit vector orthogonal to the other eigenvectors
            proj = Xs[i] @ (Xs[i].T @ q)
            nrm = np.linalg.norm(proj)
            if nrm > 1e-12:
                V[:, i] = proj / nrm
    coeffs = [np.linalg.lstsq(Xs[i], V[:, i], rcond=None)[0] for i in range(n)]
    W = np.column_stack([Ws[i] @ coeffs[i] for i in range(n)])
    return np.linalg.solve(V.T, W.T).T  # K = W V^{-1}


def _match_eigs(lam: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Greedy pairing: index into `lam` of the eigenvalue nearest each root."""
    order = np.empty(rho.shape[0], dtype=int)
    dist = np.abs(lam[None, :] - rho[:, None])
    for i in range(rho.shape[0]):
        j = int(np.argmin(dist[i]))
        order[i] = j
        dist[:, j] = np.inf
    return order


def _refine_eigs(sys: LtiSystem, K: np.ndarray, rho: np.ndarray, iters: int = 12):
    """Newton polish of the closed-loop spectrum against the target roots.

    Coefficient-space refinement cannot push the eigenvalue error below the
    root sensitivity of the characteristic polynomial (~1e-5 at n = 8 even
    with coefficients at round-off), so the last stage iterates on the
    eigenvalues themselves using the first-order perturbation
    d(lambda_i) = w_i^H B dK v_i for biorthogonal left/right eigenvectors.
    """
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    rho = np.asarray(rho, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(rho))))
    best_err, best_K = np.inf, K
    for _ in range(iters):
        lam, V = np.linalg.eig(A + B @ K)
        order = _match_eigs(lam, rho)
        resid = lam[order] - rho
        err = float(np.max(np.abs(resid)))
        if err < best_err:
            best_err, best_K = err, K
        if err < 1e-13 * scale:
            break
        W = np.linalg.inv(V)  # rows: left eigenvectors with w_i^H v_j = delta_ij
        J = np.empty((n, n * m), dtype=complex)
        for row, i in enumerate(order):
            J[row] = np.outer(W[i] @ B, V[:, i]).ravel()
        Jr = np.vstack([J.real, J.imag])
        rr = np.concatenate([resid.real, resid.imag])
        step, *_ = np.linalg.lstsq(Jr, -rr, rcond=None)
        K = K + step.reshape(m, n)
    lam = np.linalg.eigvals(A + B @ K)
    err = float(np.max(np.abs(lam[_match_eigs(lam, rho)] - rho)))
    return K if err <= best_err else best_K


def pole_place(sys: LtiSystem, target: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    """Gain K (m x n) such that the characteristic polynomial of A+BK is `target`.

    `target` is the monic coefficient vector (1, alpha_1, ..., alpha_n).
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
    scale = max(1.0, float(np.max(np.abs(target))))
    rho = np.roots(target)
    # Eigenvalue-space refinement needs a diagonalizable closed loop, so it
    # only runs for well-separated target roots; for repeated roots (e.g. a
    # defective (s+1)^n target) the coefficient residual is the right metric.
    if n > 1:
        rs = np.sort_complex(rho)
        separated = float(np.min(np.abs(np.diff(rs)))) > 1e-6 * scale
    else:
        separated = True

    def dev_of(gain):
        if separated:
            lam = np.linalg.eigvals(sys.A + sys.B @ gain)
            d = float(np.max(np.abs(lam[_match_eigs(lam, rho)] - rho)))
        else:
            d = float(np.max(np.abs(np.poly(sys.A + sys.B @ gain) - target)))
        return d if np.isfinite(d) else np.inf

    def polish(gain):
        return _refine_eigs(sys, gain, rho) if separated else gain

    if sys.m == 1:
        K = polish(_pole_place_single(sys, target, tol))
    else:
        best = None
        # With input freedom, prefer the robust eigenstructure assignment:
        # it keeps the closed-loop eigenvector basis well conditioned, which
        # the chain reduction does not control.
        if separated and np.max(np.abs(rho.imag)) < 1e-9 * scale:
            try:
                cand = polish(_assign_robust(sys, np.sort(rho.real)))
                best = (dev_of(cand), cand)
            except np.linalg.LinAlgError:
                pass
        # The greedy chain reduction can be badly conditioned for some
        # pairs; retry from random start directions and keep the best gain.
        rng = np.random.default_rng(0)
        for attempt in range(8):
            if best is not None and best[0] < 1e-12 * scale:
                break
            try:
                y, C = _grow_basis(sys, tol, rng=None if attempt == 0 else rng)
                reduced = LtiSystem(sys.A + sys.B @ C, (sys.B @ y).reshape(n, 1))
                K1 = _pole_place_single(reduced, target, tol)
                cand = C + np.outer(y, K1[0])
                cand = polish(_refine_multi(sys, cand, target))
            except (NotControllableError, np.linalg.LinAlgError):
                continue
            d = dev_of(cand)
            if best is None or d < best[0]:
                best = (d, cand)
        if best is None:
            raise NotControllableError("could not build a single-input reduction")
        K = best[1]
    achieved = np.poly(sys.A + sys.B @ K)
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
) -> ControlLaw:
    """Damping feedback u_i(x) = -<grad V(x), g_i(x)>, optionally saturated.

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

    return ControlLaw("feedback", law)


def simulate_closed_loop(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    law: ControlLaw,
    x0,
    T: float,
    steps: int,
    V: Optional[Callable[[np.ndarray], float]] = None,
):
    """RK4 simulation of dx/dt = f(x, u(t, x)).

    Returns (trajectory, control samples at nodes, V samples or None).
    """
    x0 = np.asarray(x0, dtype=float)

    def rhs(t, x):
        return np.asarray(f(x, law(t, x)), dtype=float)

    traj = integrate(OdeProblem(x0.shape[0], rhs, 0.0, x0, T, steps))
    controls = np.array([law(t, x) for t, x in zip(traj.times, traj.states)])
    v_samples = None
    if V is not None:
        v_samples = np.array([float(V(x)) for x in traj.states])
    return traj, controls, v_samples
