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
    Chebyshev,
    DenseOutput,
    DimensionError,
    GridError,
    chebyshev,
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

    A and B are called with a 1-D array of k times and return the k samples
    in one array, of shape (k, n, n) for A and (k, n, m) for B, or one matrix,
    (n, n) or (n, m), that holds at every time.  Any other shape raises
    DimensionError; no result is reshaped.  The callables must be stateless
    (they are invoked repeatedly and possibly from concurrent contexts).
    """

    n: int
    m: int
    A: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]
    breaks: Sequence[float] = ()  # times where A or B may have a kink


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
    degree: int | None = None  # LTV: the Chebyshev degree N of each piece
    pieces: int | None = None  # LTV: the pieces of [0, T] between the system's breaks


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

# The largest n (N + 1) of one collocation solve of the LTV Gramian.
_COLLOCATION_SIZE = 1600


def _samples(f, times, shape):
    """f at the 1-D array `times` in one call: (k,) + shape, a constant f broadcast to it."""
    want = (len(times),) + shape
    v = np.asarray(f(times), dtype=float)
    if v.shape == shape:
        return np.broadcast_to(v, want)
    if v.shape != want:
        raise DimensionError(
            f"A(t) or B(t) for {len(times)} times must have shape {want} or {shape}, got {v.shape}"
        )
    return v


def gramian(sys, T: float) -> GramianReport:
    """Controllability Gramian G_T = int_0^T R(T,t) B(t) B(t)^T R(T,t)^T dt.

    LTI: G_T = F22^T F12 from F = expm(T [[-A, BB^T], [0, A^T]]) (Van Loan,
    IEEE TAC 23(3), 1978), exact.  LTV: Chebyshev collocation, see
    _ltv_adjoint.  A horizon T outside (0, inf) raises GridError.
    """
    if not 0.0 < T < np.inf:
        raise GridError(f"the Gramian needs 0 < T < inf, got T={T}")
    if isinstance(sys, LtiSystem):
        n = sys.n
        F = expm(T * np.block([[-sys.A, sys.B @ sys.B.T], [np.zeros((n, n)), sys.A.T]]))
        return _report(T, F[n:, n:].T @ F[:n, n:])
    return _ltv_adjoint(sys, T)[0]


def _report(T, G, **counts) -> GramianReport:
    G = 0.5 * (G + G.T)
    w = np.linalg.eigvalsh(G)
    C_T = float(w[0])
    return GramianReport(T, G, C_T, C_T > 1e-12 * max(1.0, float(w[-1])), **counts)


def _ltv_adjoint(sys: LtvSystem, T: float):
    """The Gramian report and Y(t) = R(T, t)^T on the Chebyshev nodes of each piece.

    [0, T] splits at the system's breaks.  On N + 1 Chebyshev-Lobatto nodes
    of a piece, Y' = -A(t)^T Y with Y given at the piece's right end (I at T,
    else the next piece's left end) is one dense solve of size n N.  Then
    G_T = sum_j w_j R B B^T R^T, R = Y^T, with the Clenshaw-Curtis weights w.
    N starts at 16 and doubles until, on every piece, the Chebyshev
    coefficients of A, B and Y pass the tail test (Chebyshev.resolved).
    When n (N + 1) would exceed _COLLOCATION_SIZE, FloatingPointError is
    raised instead.  Returns (report, pieces), pieces [(a, b, Y on the
    nodes)] in time order.
    """
    inner = sorted({float(t) for t in sys.breaks if 0.0 < t < T})
    edges = list(zip([0.0] + inner, inner + [T]))[::-1]  # backward from T
    N = 16
    while (found := _collocate(sys, edges, chebyshev(N))) is None:
        N *= 2
        if sys.n * (N + 1) > _COLLOCATION_SIZE:
            raise FloatingPointError(
                f"the time-varying Gramian is not resolved at Chebyshev degree {N // 2}"
            )
    G, pieces = found
    return _report(T, G, degree=N, pieces=len(pieces)), pieces


def _collocate(sys: LtvSystem, edges, cheb: Chebyshev):
    """(G_T, pieces) on the nodes of `cheb`, or None at the first piece not resolved there."""
    n, N = sys.n, len(cheb.nodes) - 1
    j = np.arange(N + 1)
    Y_end, G, pieces = np.eye(n), np.zeros((n, n)), []
    for a, b in edges:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * cheb.nodes  # from b down to a
        A = _samples(sys.A, t, (n, n))
        if not cheb.resolved(A):
            return None
        B = _samples(sys.B, t, (n, sys.m))
        if not cheb.resolved(B):
            return None
        # (1/half) D Y + A^T Y = 0 on nodes 1..N; node 0 holds Y(b) = Y_end.
        L = np.zeros((N + 1, n, N + 1, n))
        D = cheb.diff / half
        for i in range(n):
            L[:, i, :, i] = D
        L[j, :, j, :] += A.transpose(0, 2, 1)
        L = L.reshape((N + 1) * n, (N + 1) * n)
        Y = np.empty((N + 1, n, n))
        Y[0] = Y_end
        Y[1:] = np.linalg.solve(L[n:, n:], -L[n:, :n] @ Y_end).reshape(N, n, n)
        if not cheb.resolved(Y):
            return None
        RB = Y.transpose(0, 2, 1) @ B
        G += half * np.tensordot(cheb.weights, RB @ RB.transpose(0, 2, 1), axes=1)
        pieces.append((a, b, Y))
        Y_end = Y[-1]
    return G, pieces[::-1]


# ---------------------------------------------------------------------------
# Time-varying Kalman test (iterated B_k recursion)
# ---------------------------------------------------------------------------


# The B_k recursion holds its local models as values on 17 first-kind Chebyshev
# points of [-1, 1].
_CHEB_DEG = 16


def ltv_kalman_test(sys: LtvSystem, t: float, depth: int = 3, tol: float = 1e-6):
    """Rank of the stacked columns of B_0(t), ..., B_depth(t).

    Implements B_0 = B, B_{k+1} = A B_k - dB_k/dt via local polynomial models
    of A(.) and B(.) around t, so the repeated differentiation stays accurate.
    The models interpolate on Chebyshev points of [t - rho, t + rho], at the
    nodes tau = t + rho s as they round, so that rounding is no error of the
    model at large |t|.  rho starts at 0.1 and halves until the models are
    resolved: the last 4 Chebyshev coefficients of A and of B are within
    1e-13 of their largest (Chebyshev.resolved).  Below rho = 1e3 ulps of
    max(1, |t|) the nodes are too coarse to resolve anything, and
    FloatingPointError is raised instead of a rank.  The models have degree 16, so their 17th
    derivative is 0 and depth must lie in [1, 16].  Returns (rank, satisfied).
    """
    if not 1 <= depth <= _CHEB_DEG:
        raise ValueError(f"depth must lie in [1, {_CHEB_DEG}], got {depth}")
    rho, floor = 0.1, 1e3 * np.spacing(max(1.0, abs(t)))
    while True:
        if rho < floor:
            raise FloatingPointError(f"no local model of A and B is resolved at t={t:.6g}")
        taus = t + rho * chebyshev(_CHEB_DEG, kind=1).nodes
        model = Chebyshev((taus - t) / rho)
        A = _samples(sys.A, taus, (sys.n, sys.n))
        Bk = _samples(sys.B, taus, (sys.n, sys.m))
        if model.resolved(A) and model.resolved(Bk):
            break
        rho *= 0.5
    D = model.diff / rho
    centre = C.chebvander(0.0, _CHEB_DEG)[0] @ model.fit
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
    u(t) = B(t)^T lambda(t) with the adjoint lambda(t) = R(T, t)^T psi.  LTI:
    R is exact on the `simpson_grid(T, steps)` nodes, and between them lambda
    is the cubic Hermite interpolant of its node values and lambda' =
    -A^T lambda, fourth order.  LTV: lambda = Y psi is the barycentric
    interpolant of the Gramian's Chebyshev nodes (_ltv_adjoint).  Either
    way, the plant is re-simulated under u by RK4 on the `simpson_grid`
    nodes, a grid that did not build lambda, to report the actual endpoint
    error.  The result's `law` is the callable t -> u(t).
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    grid = simpson_grid(T, steps)[0]
    times, stage_times = grid.times, grid.stages
    if isinstance(sys, LtiSystem):
        rep = gramian(sys, T)
        R = _transition_grid(sys, times)
        psi = _steering_adjoint(rep, R[0], x0, x1)
        A, B = (np.broadcast_to(M, (len(stage_times),) + M.shape) for M in (sys.A, sys.B))
        lam = psi @ R  # row i is R(T, t_i)^T psi, and lambda' = -A^T lambda
        adjoint = DenseOutput(times, lam, -(lam[:, None] @ A[::2])[:, 0])
    else:
        rep, pieces = _ltv_adjoint(sys, T)
        psi = _steering_adjoint(rep, pieces[0][2][-1].T, x0, x1)  # R(T, 0) = Y(0)^T
        A = _samples(sys.A, stage_times, (sys.n, sys.n))
        B = _samples(sys.B, stage_times, (sys.n, sys.m))
        adjoint = _barycentric_adjoint(chebyshev(rep.degree), pieces, psi)
    cost = float(psi @ rep.G @ psi)

    def ufun(t):
        Bt = _samples(sys.B, np.array([t], dtype=float), (sys.n, sys.m))[0] if callable(sys.B) else sys.B
        return Bt.T @ adjoint(t)

    u = (adjoint(stage_times)[:, None] @ B)[:, 0]
    endpoint = rk4_linear_sweep(A, (B @ u[:, :, None])[..., 0], grid, x0)[-1]
    return HumControl(
        law=ufun,
        times=times,
        samples=u[::2],
        psi=psi,
        cost=cost,
        endpoint=endpoint,
        endpoint_error=float(np.linalg.norm(endpoint - x1)),
    )


def _steering_adjoint(rep: GramianReport, R0, x0, x1):
    """psi with G_T psi = x1 - R(T, 0) x0; NotControllableError for a singular G_T."""
    if not rep.invertible:
        raise NotControllableError(f"Gramian is numerically singular (C_T = {rep.C_T:.3e})")
    return np.linalg.solve(rep.G, x1 - R0 @ x0)


def _transition_grid(sys: LtiSystem, times):
    """R(T, t_i) = expm((T - t_i) A) at the nodes of `times`, T = times[-1], one stacked call."""
    return expm((times[-1] - times)[:, None, None] * sys.A)


def _barycentric_adjoint(cheb: Chebyshev, pieces, psi):
    """t -> lambda(t) = Y(t) psi, from Y on the Chebyshev nodes of each piece.

    t is a float or an array; times outside [0, T] are clamped to its ends.
    """
    lam = [(0.5 * (a + b), 0.5 * (b - a), Y @ psi) for a, b, Y in pieces]
    starts = [a for a, _, _ in pieces[1:]]

    def adjoint(t):
        t = np.asarray(t, dtype=float)
        ts = t.ravel()
        k = np.searchsorted(starts, ts, side="right")
        out = np.empty(ts.shape + (len(psi),))
        for i, (mid, half, nodes) in enumerate(lam):
            on = k == i
            out[on] = cheb.interpolate(nodes, np.clip((ts[on] - mid) / half, -1.0, 1.0))
        return out.reshape(t.shape + (len(psi),))

    return adjoint
