"""Controllability analysis and finite-dimensional minimum-norm steering.

Covers autonomous linear systems (Kalman rank test, Hautus eigenvalue test,
controllable decomposition, Brunovski normal form), time-varying linear
systems (controllability Gramian, iterated-derivative rank test), and
control-affine nonlinear systems (Lie brackets, Lie algebra rank condition).
The Gramian route also yields the explicit minimum-L2-norm steering control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as C

from .numcore import (
    DenseOutput,
    DimensionError,
    expm,
    fd_jacobian,
    numerical_rank,
    rk4_linear_sweep,
    simpson_grid,
)

__all__ = [
    "LtiSystem",
    "LtvSystem",
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
]


class NotControllableError(RuntimeError):
    """Raised when an operation requires controllability and the system lacks it."""


@dataclass(frozen=True)
class LtiSystem:
    """Autonomous linear plant dx/dt = A x + B u."""

    A: np.ndarray
    B: np.ndarray

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

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class LtvSystem:
    """Time-varying linear plant dx/dt = A(t) x + B(t) u.

    The evaluation callables must be stateless (they are invoked repeatedly
    and possibly from concurrent contexts).
    """

    n: int
    m: int
    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]


@dataclass(frozen=True)
class KalmanReport:
    rank: int
    controllable: bool


@dataclass(frozen=True)
class GramianReport:
    horizon: float
    G: np.ndarray
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
    return KalmanReport(r, r == sys.n)


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


def _transition_grid(sys, times, A):
    """R(T, t_i) at the nodes t_i = i h of the uniform grid `times`, T = times[-1].

    LTI: expm((T - t_i) A), one stacked call.  LTV: Y(t) =
    R(T, t)^T solves Y' = -A(t)^T Y backward from Y(T) = I, by RK4 over A
    sampled on the nodes and midpoints.
    """
    h = times[1]
    if isinstance(sys, LtiSystem):
        return expm((times[-1] - times)[:, None, None] * sys.A)
    Y = rk4_linear_sweep(-A[::-1].transpose(0, 2, 1), None, times[::-1], np.eye(sys.n), -h)
    return Y[::-1].transpose(0, 2, 1)


def gramian(sys, T: float, steps: int = 2000) -> GramianReport:
    """Controllability Gramian G_T = int_0^T R(T,t) B(t) B(t)^T R(T,t)^T dt.

    Exact for an LtiSystem; Simpson on the `simpson_grid(T, steps)` grid for
    an LtvSystem.  A bad grid raises GridError for either.
    """
    return _gramian(sys, T, steps, with_grid=False)[0]


def _gramian(sys, T: float, steps: int, with_grid: bool = True):
    """The Gramian report, the Simpson grid, R(T, t_i) on it, and A and B on its nodes and midpoints.

    LTI: G_T = F22^T F12 from F = expm(T [[-A, BB^T], [0, A^T]]) (Van Loan,
    IEEE TAC 23(3), 1978).  LTV: Simpson's rule over R(T, t_i) B(t_i).  R is
    None for an LtiSystem without `with_grid`; its A and B are broadcast views.
    """
    times, weights = simpson_grid(T, steps)
    half = (0.5 * times[1] * np.arange(2 * len(times) - 1)).tolist()
    if isinstance(sys, LtiSystem):
        A, B = (np.broadcast_to(M, (len(half),) + M.shape) for M in (sys.A, sys.B))
        R = _transition_grid(sys, times, A) if with_grid else None
        n = sys.n
        F = expm(T * np.block([[-sys.A, sys.B @ sys.B.T], [np.zeros((n, n)), sys.A.T]]))
        G = F[n:, n:].T @ F[:n, n:]
    else:  # one call of each callable per time, straight into the arrays
        shapes = ((sys.A, (sys.n, sys.n)), (sys.B, (sys.n, sys.m)))
        A, B = (np.fromiter(map(f, half), (float, s), len(half)) for f, s in shapes)
        R = _transition_grid(sys, times, A)
        RB = R @ B[::2]
        # A time-last copy sums by BLAS dot products; tensordot over the time
        # axis gathers rounding linearly in the step count (2.6e-13 at 4000).
        G = np.ascontiguousarray(np.moveaxis(RB @ RB.transpose(0, 2, 1), 0, -1)) @ weights
    G = 0.5 * (G + G.T)
    w = np.linalg.eigvalsh(G)
    C_T = float(w[0])
    return GramianReport(T, G, C_T, C_T > 1e-12 * max(1.0, float(w[-1]))), times, R, A, B


# ---------------------------------------------------------------------------
# Time-varying Kalman test (iterated B_k recursion)
# ---------------------------------------------------------------------------


# The B_k recursion holds its local models as values on 17 first-kind Chebyshev
# points of [-1, 1].
_CHEB_DEG = 16
_CHEB_NODES = np.cos(np.pi * (2 * np.arange(_CHEB_DEG + 1) + 1) / (2 * (_CHEB_DEG + 1)))


def _cheb_model(s):
    """Chebyshev fit, d/ds and the weights that read s = 0, for values at the nodes s.

    Each diagonal entry of d/ds is minus its row's off-diagonal sum, so
    constants differentiate to exactly 0 (tenfold less rounding in three
    nested derivatives).
    """
    fit = np.linalg.inv(C.chebvander(s, _CHEB_DEG))
    diff = C.chebvander(s, _CHEB_DEG - 1) @ C.chebder(fit)
    diff[np.diag_indices(_CHEB_DEG + 1)] -= diff.sum(axis=1)
    return fit, diff, C.chebvander(0.0, _CHEB_DEG)[0] @ fit


def _resolved(fit, values) -> bool:
    """Whether the Chebyshev coefficients of `values` decay to a relative tail of 1e-13."""
    c = np.abs(np.tensordot(fit, values, axes=1))
    return c[-4:].max() <= 1e-13 * c.max()


def ltv_kalman_test(sys: LtvSystem, t: float, depth: int = 3, tol: float = 1e-6):
    """Rank of the stacked columns of B_0(t), ..., B_depth(t).

    Implements B_0 = B, B_{k+1} = A B_k - dB_k/dt via local polynomial models
    of A(.) and B(.) around t, so the repeated differentiation stays accurate.
    The models interpolate on Chebyshev points of [t - rho, t + rho], at the
    nodes tau = t + rho s as they round, so that rounding is no error of the
    model at large |t|.  rho starts at 0.1 and halves until the models are
    resolved: the last 4 Chebyshev coefficients of A and of B are within
    1e-13 of their largest (a plateau check in the style of Aurentz &
    Trefethen, ACM TOMS 43(4), 2017).  Below rho = 1e3 ulps of max(1, |t|)
    the nodes are too coarse to resolve anything, and FloatingPointError is
    raised instead of a rank.  The models have degree 16, so their 17th
    derivative is 0 and depth must lie in [1, 16].  Returns (rank, satisfied).
    """
    if not 1 <= depth <= _CHEB_DEG:
        raise ValueError(f"depth must lie in [1, {_CHEB_DEG}], got {depth}")
    rho, floor = 0.1, 1e3 * np.spacing(max(1.0, abs(t)))
    while True:
        if rho < floor:
            raise FloatingPointError(f"no local model of A and B is resolved at t={t:.6g}")
        taus = t + rho * _CHEB_NODES
        fit, diff, centre = _cheb_model((taus - t) / rho)
        A = np.array([np.asarray(sys.A(tau), dtype=float).reshape(sys.n, sys.n) for tau in taus])
        Bk = np.array([np.asarray(sys.B(tau), dtype=float).reshape(sys.n, sys.m) for tau in taus])
        if _resolved(fit, A) and _resolved(fit, Bk):
            break
        rho *= 0.5
    D = diff / rho
    blocks = [np.tensordot(centre, Bk, axes=1)]
    for _ in range(depth):
        Bk = A @ Bk - np.tensordot(D, Bk, axes=1)
        blocks.append(np.tensordot(centre, Bk, axes=1))
    rank = numerical_rank(np.hstack(blocks), tol)
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


def larc_rank(fields: VectorFieldSet, x: np.ndarray, depth: int = 3):
    """Lie algebra rank condition: rank of iterated brackets evaluated at x.

    Brackets are generated breadth-first as [f_i, w] with w from the previous
    level (left-normed words span the Lie algebra).  Jacobians of generated
    brackets come from central finite differences of the bracket map.  The
    rank tolerance is 1e-7, relative to the largest singular value.
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
    rank = numerical_rank(M, 1e-7)
    return rank, rank == fields.dimension


# ---------------------------------------------------------------------------
# Finite-dimensional minimum-norm steering (Gramian inversion)
# ---------------------------------------------------------------------------


@dataclass
class HumControl:
    law: Callable[[float], np.ndarray]  # the open-loop control t -> u(t)
    times: np.ndarray
    samples: np.ndarray  # control values on the grid, shape (nodes, m)
    psi: np.ndarray
    cost: float
    endpoint: np.ndarray
    endpoint_error: float


def hum_control_finite(sys, T: float, x0, x1, steps: int = 2000) -> HumControl:
    """Minimum-L2-norm control steering x0 to x1 in time T via the Gramian.

    Solves G_T psi = x1 - R(T, 0) x0, the gap to the free endpoint, and applies
    u(t) = B(t)^T lambda(t) with the adjoint lambda(t) = R(T, t)^T psi.
    Between grid nodes lambda is the cubic Hermite interpolant of its node
    values and lambda' = -A(t)^T lambda, fourth order like the RK4 grid.
    The plant is re-simulated under u by RK4 on the Gramian's grid to report
    the actual endpoint error.  The result's `law` is the callable t -> u(t).
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    rep, times, R, A, B = _gramian(sys, T, steps)
    if not rep.invertible:
        raise NotControllableError(f"Gramian is numerically singular (C_T = {rep.C_T:.3e})")
    psi = np.linalg.solve(rep.G, x1 - R[0] @ x0)
    cost = float(psi @ rep.G @ psi)

    lam = psi @ R  # row i is R(T, t_i)^T psi, and lambda' = -A^T lambda
    adjoint = DenseOutput(times, lam, -(lam[:, None] @ A[::2])[:, 0])

    def ufun(t):
        return np.asarray(sys.B(t) if callable(sys.B) else sys.B).T @ adjoint(t)

    u = (adjoint(0.5 * times[1] * np.arange(len(A)))[:, None] @ B)[:, 0]  # at A's times
    endpoint = rk4_linear_sweep(A, (B @ u[:, :, None])[..., 0], times, x0, times[1])[-1]
    return HumControl(
        law=ufun,
        times=times,
        samples=u[::2],
        psi=psi,
        cost=cost,
        endpoint=endpoint,
        endpoint_error=float(np.linalg.norm(endpoint - x1)),
    )
