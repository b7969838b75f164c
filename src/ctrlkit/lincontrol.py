"""Controllability analysis and finite-dimensional minimum-norm steering.

Covers autonomous linear systems (Kalman rank test, Hautus eigenvalue test,
controllable decomposition, Brunovski normal form), time-varying linear
systems (controllability Gramian, iterated-derivative rank test), and
control-affine nonlinear systems (Lie brackets, Lie algebra rank condition).
The Gramian route also yields the explicit minimum-L2-norm steering control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as C

from .numcore import (
    DenseOutput,
    DimensionError,
    Trajectory,
    OdeProblem,
    expm,
    fd_jacobian,
    integrate,
    numerical_rank,
    rk4_step,
    simpson,
)

__all__ = [
    "LtiSystem",
    "LtvSystem",
    "ControlLaw",
    "KalmanReport",
    "GramianReport",
    "VectorField",
    "VectorFieldSet",
    "NotControllableError",
    "kalman_matrix",
    "kalman_test",
    "hautus_test",
    "controllable_decomposition",
    "brunovski_form",
    "gramian",
    "ltv_kalman_test",
    "lie_bracket",
    "larc_rank",
    "hum_control_finite",
    "HumControl",
    "simulate_linear",
]


class NotControllableError(RuntimeError):
    """Raised when an operation requires controllability and the system lacks it."""


@dataclass(frozen=True)
class LtiSystem:
    """Autonomous linear plant dx/dt = A x + B u + r."""

    A: np.ndarray
    B: np.ndarray
    r: Optional[np.ndarray] = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if B.shape[0] != A.shape[0] and B.shape[1] == A.shape[0]:
            B = B.T  # accept a row vector for single-input systems
        if A.shape[0] != A.shape[1]:
            raise DimensionError("A must be square")
        if B.shape[0] != A.shape[0]:
            raise DimensionError("B must have as many rows as A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if self.r is not None:
            r = np.asarray(self.r, dtype=float).reshape(-1)
            if r.shape[0] != A.shape[0]:
                raise DimensionError("drift r must have length n")
            object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class LtvSystem:
    """Time-varying linear plant dx/dt = A(t) x + B(t) u + r(t).

    The evaluation callables must be stateless (they are invoked repeatedly
    and possibly from concurrent contexts).
    """

    n: int
    m: int
    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]
    r: Optional[Callable[[float], np.ndarray]] = None


@dataclass
class ControlLaw:
    """Either an open-loop control t -> u or a feedback (t, x) -> u."""

    kind: str  # "open_loop" | "feedback"
    function: Callable

    def __call__(self, t: float, x: Optional[np.ndarray] = None) -> np.ndarray:
        if self.kind == "open_loop":
            return np.atleast_1d(np.asarray(self.function(t), dtype=float))
        return np.atleast_1d(np.asarray(self.function(t, x), dtype=float))


@dataclass(frozen=True)
class KalmanReport:
    kalman_matrix: np.ndarray
    rank: int
    controllable: bool
    tolerance_used: float


@dataclass(frozen=True)
class GramianReport:
    horizon: float
    G: np.ndarray
    eigenvalues: np.ndarray  # sorted ascending
    C_T: float
    invertible: bool


@dataclass(frozen=True)
class VectorField:
    """A vector field with its Jacobian map."""

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VectorFieldSet:
    dimension: int
    fields: Sequence[VectorField]


# ---------------------------------------------------------------------------
# Autonomous tests
# ---------------------------------------------------------------------------


def kalman_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The block matrix [B, AB, ..., A^(n-1) B]."""
    n = A.shape[0]
    blocks = []
    Ak_B = B
    for _ in range(n):
        blocks.append(Ak_B)
        Ak_B = A @ Ak_B
    return np.hstack(blocks)


def kalman_test(sys: LtiSystem, tol: float = 1e-9) -> KalmanReport:
    K = kalman_matrix(sys.A, sys.B)
    r = numerical_rank(K, tol)
    return KalmanReport(K, r, r == sys.n, tol)


def hautus_test(sys: LtiSystem, tol: float = 1e-9):
    """Rank of [lambda I - A, B] at every eigenvalue of A."""
    eigs = np.linalg.eigvals(sys.A)
    per_eig = []
    ok = True
    for lam in eigs:
        M = np.hstack([lam * np.eye(sys.n) - sys.A, sys.B.astype(complex)])
        rank = numerical_rank(M, tol)
        per_eig.append((complex(lam), rank))
        ok = ok and rank == sys.n
    return ok, per_eig


def controllable_decomposition(sys: LtiSystem, tol: float = 1e-9):
    """Similarity P putting (A, B) into controllable block-triangular form.

    Returns (P, A1, A2, A3, B1, r) with P A P^-1 = [[A1, A2], [0, A3]] and
    P B = [[B1], [0]], where r is the controllable rank.
    """
    K = kalman_matrix(sys.A, sys.B)
    r = numerical_rank(K, tol)
    U = np.linalg.svd(K)[0]
    # U's columns are orthonormal: the first r span the controllable subspace.
    P = U.T  # P^-1 = U
    Ab = P @ sys.A @ U
    Bb = P @ sys.B
    A1 = Ab[:r, :r]
    A2 = Ab[:r, r:]
    A3 = Ab[r:, r:]
    B1 = Bb[:r, :]
    return P, A1, A2, A3, B1, r


def brunovski_form(sys: LtiSystem, tol: float = 1e-9):
    """Change of basis to companion form for controllable single-input pairs.

    Returns (P, companion, a) where a = (a_1, ..., a_n) are the characteristic
    polynomial coefficients chi_A(X) = X^n + a_1 X^(n-1) + ... + a_n, and
    P A P^-1 = companion(chi_A), P B = (0, ..., 0, 1)^T.
    """
    if sys.m != 1:
        raise DimensionError("Brunovski form requires a single-input system")
    rep = kalman_test(sys, tol)
    if not rep.controllable:
        raise NotControllableError("pair (A, B) fails the Kalman condition")
    n = sys.n
    a = np.poly(sys.A)[1:]  # a_1 ... a_n
    b = sys.B[:, 0]
    f = [None] * (n + 1)  # 1-indexed
    f[n] = b
    for k in range(n - 1, 0, -1):
        f[k] = sys.A @ f[k + 1] + a[n - k - 1] * b
    F = np.column_stack(f[1:])
    P = np.linalg.inv(F)
    companion = np.zeros((n, n))
    companion[:-1, 1:] = np.eye(n - 1)
    companion[-1, :] = -a[::-1]
    return P, companion, a


# ---------------------------------------------------------------------------
# Gramian machinery
# ---------------------------------------------------------------------------


def _as_callables(sys):
    """Uniform (A(t), B(t), r(t), n) view over LtiSystem / LtvSystem."""
    if isinstance(sys, LtiSystem):
        A, B = sys.A, sys.B
        rvec = sys.r if sys.r is not None else np.zeros(sys.n)
        return (lambda t: A), (lambda t: B), (lambda t: rvec), sys.n
    rfun = sys.r if sys.r is not None else (lambda t: np.zeros(sys.n))
    return sys.A, sys.B, (lambda t: np.asarray(rfun(t), dtype=float)), sys.n


def _transition_grid(sys, T: float, steps: int):
    """R(T, t_i) on the uniform grid t_i = i T / steps, i = 0..steps."""
    h = T / steps
    times = h * np.arange(steps + 1)
    if isinstance(sys, LtiSystem):
        Eh = expm(h * sys.A)
        R = [None] * (steps + 1)
        R[steps] = np.eye(sys.n)
        for i in range(steps - 1, -1, -1):
            R[i] = R[i + 1] @ Eh
        return times, R
    # Time-varying: propagate Phi(t) = R(t, 0) forward, then R(T, t) = Phi(T) Phi(t)^-1.
    n = sys.n
    substeps = 4

    def rhs(tau, flat):
        return (np.asarray(sys.A(tau)) @ flat.reshape(n, n)).ravel()

    Phi = [np.eye(n)]
    x = Phi[0].ravel()
    for i in range(steps):
        hh = h / substeps
        for j in range(substeps):
            x = rk4_step(rhs, times[i] + j * hh, x, hh)
        Phi.append(x.reshape(n, n).copy())
    PhiT = Phi[steps]
    R = [np.linalg.solve(Phi[i].T, PhiT.T).T for i in range(steps + 1)]
    return times, R


def gramian(sys, T: float, steps: int = 2000) -> GramianReport:
    """Controllability Gramian G_T = int_0^T R(T,t) B(t) B(t)^T R(T,t)^T dt."""
    return _gramian(sys, T, steps)[0]


def _gramian(sys, T: float, steps: int):
    """The Gramian report with the grid and R(T, t_i) it was assembled from."""
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if steps % 2 != 0:
        steps += 1  # Simpson needs an odd node count
    Afun, Bfun, _, n = _as_callables(sys)
    times, R = _transition_grid(sys, T, steps)
    h = T / steps
    integrand = np.empty((steps + 1, n, n))
    for i, t in enumerate(times):
        RB = R[i] @ np.asarray(Bfun(t), dtype=float)
        integrand[i] = RB @ RB.T
    G = simpson(integrand, h)
    G = 0.5 * (G + G.T)
    w = np.linalg.eigvalsh(G)
    C_T = float(w[0])
    return GramianReport(T, G, w, C_T, C_T > 1e-12 * max(1.0, float(w[-1]))), times, R


# ---------------------------------------------------------------------------
# Time-varying Kalman test (iterated B_k recursion)
# ---------------------------------------------------------------------------


class _ChebMat:
    """Matrix-valued local Chebyshev approximation on [t0 - rho, t0 + rho].

    Entry (i, j) is a Chebyshev coefficient vector in the scaled variable
    s = (t - t0) / rho.  Supports the operations the B_k recursion needs:
    matrix product and differentiation in t.  Local polynomial models keep
    nested differentiation well conditioned, which nested finite differences
    of black-box callables are not.
    """

    def __init__(self, coeffs: np.ndarray, t0: float, rho: float):
        self.coeffs = coeffs  # shape (deg + 1, rows, cols)
        self.t0 = t0
        self.rho = rho

    @classmethod
    def fit(cls, fun, t0: float, rho: float, deg: int = 16) -> "_ChebMat":
        nodes = np.cos(np.pi * (2 * np.arange(deg + 1) + 1) / (2 * (deg + 1)))
        sample0 = np.atleast_2d(np.asarray(fun(t0), dtype=float))
        rows, cols = sample0.shape
        vals = np.empty((deg + 1, rows, cols))
        for k, s in enumerate(nodes):
            vals[k] = np.atleast_2d(np.asarray(fun(t0 + rho * s), dtype=float))
        coeffs = np.empty((deg + 1, rows, cols))
        for i in range(rows):
            for j in range(cols):
                coeffs[:, i, j] = C.chebfit(nodes, vals[:, i, j], deg)
        return cls(coeffs, t0, rho)

    @property
    def shape(self):
        return self.coeffs.shape[1:]

    def matmul(self, other: "_ChebMat") -> "_ChebMat":
        rows = self.shape[0]
        inner = self.shape[1]
        cols = other.shape[1]
        deg_out = self.coeffs.shape[0] + other.coeffs.shape[0] - 1
        out = np.zeros((deg_out, rows, cols))
        for i in range(rows):
            for j in range(cols):
                acc = np.zeros(deg_out)
                for k in range(inner):
                    prod = C.chebmul(self.coeffs[:, i, k], other.coeffs[:, k, j])
                    acc[: prod.shape[0]] += prod
                out[:, i, j] = acc
        return _ChebMat(out, self.t0, self.rho)

    def derivative(self) -> "_ChebMat":
        deg, rows, cols = self.coeffs.shape
        out = np.zeros((max(deg - 1, 1), rows, cols))
        for i in range(rows):
            for j in range(cols):
                d = C.chebder(self.coeffs[:, i, j]) / self.rho
                out[: d.shape[0], i, j] = d
        return _ChebMat(out, self.t0, self.rho)

    def subtract(self, other: "_ChebMat") -> "_ChebMat":
        deg = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((deg,) + self.shape)
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] -= other.coeffs
        return _ChebMat(out, self.t0, self.rho)

    def eval_at_center(self) -> np.ndarray:
        rows, cols = self.shape
        out = np.empty((rows, cols))
        for i in range(rows):
            for j in range(cols):
                out[i, j] = C.chebval(0.0, self.coeffs[:, i, j])
        return out


def ltv_kalman_test(sys: LtvSystem, t: float, depth: int = 3, tol: float = 1e-6):
    """Rank of the stacked columns of B_0(t), ..., B_depth(t).

    Implements B_0 = B, B_{k+1} = A B_k - dB_k/dt via local polynomial models
    of A(.) and B(.) around t, so the repeated differentiation stays accurate.
    Returns (rank, satisfied).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rho = 0.1 * max(1.0, abs(t))
    Ac = _ChebMat.fit(sys.A, t, rho)
    Bc = _ChebMat.fit(lambda tau: np.atleast_2d(np.asarray(sys.B(tau), dtype=float)).reshape(sys.n, sys.m), t, rho)
    blocks = [Bc.eval_at_center()]
    Bk = Bc
    for _ in range(depth):
        Bk = Ac.matmul(Bk).subtract(Bk.derivative())
        blocks.append(Bk.eval_at_center())
    stacked = np.hstack(blocks)
    rank = numerical_rank(stacked, tol)
    return rank, rank == sys.n


# ---------------------------------------------------------------------------
# Lie brackets / LARC
# ---------------------------------------------------------------------------


def lie_bracket(X: VectorField, Y: VectorField, x: np.ndarray) -> np.ndarray:
    """[X, Y](x) = dY(x) X(x) - dX(x) Y(x)."""
    x = np.asarray(x, dtype=float)
    return np.asarray(Y.jacobian(x)) @ np.asarray(X.value(x)) - np.asarray(
        X.jacobian(x)
    ) @ np.asarray(Y.value(x))


def _bracket_field(X: VectorField, Y: VectorField) -> VectorField:
    def value(x):
        return lie_bracket(X, Y, x)

    return VectorField(value=value, jacobian=lambda x: fd_jacobian(value, x, 1e-5))


def larc_rank(fields: VectorFieldSet, x: np.ndarray, depth: int = 3, tol: float = 1e-7):
    """Lie algebra rank condition: rank of iterated brackets evaluated at x.

    Brackets are generated breadth-first as [f_i, w] with w from the previous
    level (left-normed words span the Lie algebra).  Jacobians of generated
    brackets come from central finite differences of the bracket map.
    Returns (rank, satisfied).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x = np.asarray(x, dtype=float)
    generators = list(fields.fields)
    level = list(generators)
    vectors = [np.asarray(f.value(x), dtype=float) for f in level]
    for _ in range(1, depth):
        nxt = []
        for w in level:
            for g in generators:
                bf = _bracket_field(g, w)
                nxt.append(bf)
                vectors.append(np.asarray(bf.value(x), dtype=float))
        level = nxt
    M = np.column_stack(vectors)
    rank = numerical_rank(M, tol)
    return rank, rank == fields.dimension


# ---------------------------------------------------------------------------
# Finite-dimensional minimum-norm steering (Gramian inversion)
# ---------------------------------------------------------------------------


@dataclass
class HumControl:
    law: ControlLaw
    times: np.ndarray
    samples: np.ndarray  # control values on the grid, shape (nodes, m)
    psi: np.ndarray
    cost: float
    endpoint: np.ndarray
    endpoint_error: float


def simulate_linear(sys, law: ControlLaw, x0, T: float, steps: int) -> Trajectory:
    """RK4 simulation of dx/dt = A(t) x + B(t) u + r(t) under a control law."""
    Afun, Bfun, rfun, n = _as_callables(sys)
    x0 = np.asarray(x0, dtype=float)

    def rhs(t, x):
        u = law(t, x)
        return np.asarray(Afun(t)) @ x + np.asarray(Bfun(t)) @ u + rfun(t)

    return integrate(OdeProblem(n, rhs, 0.0, x0, T, steps))


def hum_control_finite(sys, T: float, x0, x1, steps: int = 2000) -> HumControl:
    """Minimum-L2-norm control steering x0 to x1 in time T via the Gramian.

    Solves G_T psi = x1 - x*, with x* the free endpoint, and applies
    u(t) = B(t)^T lambda(t) with the adjoint lambda(t) = R(T, t)^T psi.
    Between grid nodes lambda is the cubic Hermite interpolant of its node
    values and lambda' = -A(t)^T lambda, fourth order like the RK4 grid.
    The closed system is re-simulated to report the actual endpoint error.
    """
    Afun, Bfun, rfun, n = _as_callables(sys)
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if steps % 2 != 0:
        steps += 1
    rep, times, R = _gramian(sys, T, steps)
    if not rep.invertible:
        raise NotControllableError(
            f"Gramian is numerically singular (C_T = {rep.C_T:.3e})"
        )
    h = T / steps
    # Free endpoint x* = R(T,0) x0 + int_0^T R(T,t) r(t) dt.
    drift = np.empty((steps + 1, n))
    for i, t in enumerate(times):
        drift[i] = R[i] @ rfun(t)
    x_star = R[0] @ x0 + simpson(drift, h)
    psi = np.linalg.solve(rep.G, x1 - x_star)
    cost = float(psi @ rep.G @ psi)

    lam = psi @ np.asarray(R)  # row i is R(T, t_i)^T psi
    lam_dot = np.empty_like(lam)
    samples = np.empty((steps + 1, np.asarray(Bfun(0.0)).shape[1]))
    for i, t in enumerate(times):
        lam_dot[i] = -np.asarray(Afun(t)).T @ lam[i]
        samples[i] = np.asarray(Bfun(t)).T @ lam[i]
    adjoint = DenseOutput(times, lam, lam_dot)

    def ufun(t):
        return np.asarray(Bfun(t)).T @ adjoint(t)

    law = ControlLaw("open_loop", ufun)
    endpoint = simulate_linear(sys, law, x0, T, steps).at_end()
    return HumControl(
        law=law,
        times=times,
        samples=samples,
        psi=psi,
        cost=cost,
        endpoint=endpoint,
        endpoint_error=float(np.linalg.norm(endpoint - x1)),
    )
