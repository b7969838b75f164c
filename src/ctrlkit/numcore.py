"""Shared deterministic numerical kernels.

Dense matrix exponential (Pade 13 with scaling and squaring), classical RK4
integration on uniform grids (linear ODEs from batched step matrices), dense
output between grid nodes, finite-difference Jacobians, SVD-based numerical
rank, and the composite Simpson grid.  Everything here is a pure function of
its inputs; all downstream modules build on these kernels so that results are
bit-reproducible run to run.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DimensionError",
    "IntegrationBlowup",
    "GridError",
    "Trajectory",
    "DenseOutput",
    "expm",
    "rk4_step",
    "rk4_sweep",
    "rk4_linear_sweep",
    "fd_jacobian",
    "numerical_rank",
    "simpson_grid",
]


class DimensionError(ValueError):
    """Raised when matrix/vector shapes are inconsistent."""


class IntegrationBlowup(RuntimeError):
    """Raised when an ODE sweep produces a non-finite value.

    Attributes:
        time: the grid time at which the blow-up was detected.
    """

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"non-finite state during integration at t={time}")


class GridError(ValueError):
    """Raised for an invalid quadrature grid (no steps, or a horizon not in (0, inf))."""


@dataclass(frozen=True)
class Trajectory:
    """A sampled path: strictly increasing times, one state vector per node."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), state dimension)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.shape[0]:
            raise DimensionError("trajectory times/states shape mismatch")
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    def at_end(self) -> np.ndarray:
        return self.states[-1]

    def interp(self, t: float) -> np.ndarray:
        """Linear interpolation between grid nodes (clamped outside them)."""
        return self._dense(t)

    @cached_property
    def _dense(self) -> "DenseOutput":
        return DenseOutput(self.times, self.states)


def _hermite_weights(w, h):
    """Weights of (y_k, y'_k, y_k+1, y'_k+1) at the fraction w of a step h (floats or arrays)."""
    v, hwv = 1.0 - w, h * w * (1.0 - w)
    return v * v * (1.0 + 2.0 * w), hwv * v, w * w * (3.0 - 2.0 * w), -hwv * w


class DenseOutput:
    """Dense output p(t) of a function sampled on a grid, y_k = y(t_k).

    Given the exact derivatives y'(t_k) too, p is the piecewise-cubic Hermite
    interpolant, accurate to O(h^4) like the RK4 sweep that made the samples
    (Hairer, Norsett & Wanner, Solving ODEs I, II.6).  Given values alone it
    is piecewise linear, (1 - w) y_k + w y_{k+1}.  Node values come back bit
    for bit, t outside the grid is clamped to its ends, the samples may have
    any shape (axis 0 is time), and an array of times is one batched call.
    """

    def __init__(self, times, values, derivatives=None):
        t = np.asarray(times, dtype=float)
        y = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape[0] < 2 or y.shape[0] != t.shape[0]:
            raise DimensionError("dense output needs >= 2 times and one sample per time")
        if not np.all(np.diff(t) > 0):
            raise ValueError("dense output times must be strictly increasing")
        self._grid = t
        self._times = t.tolist()  # bisect on a list beats np.searchsorted per call
        self._shape = y.shape[1:]
        y = y.reshape(t.shape[0], -1)
        if derivatives is None:
            self._values = y
            self._blocks = None
            return
        d = np.asarray(derivatives, dtype=float)
        if d.shape[0] != t.shape[0] or d.shape[1:] != self._shape:
            raise DimensionError("derivatives must have the shape of the values")
        d = d.reshape(y.shape)
        # Interval k holds (y_k, y'_k, y_k+1, y'_k+1): one dot product per call.
        self._blocks = np.stack([y[:-1], d[:-1], y[1:], d[1:]], axis=1)

    def __call__(self, t) -> np.ndarray:
        if isinstance(t, np.ndarray) and t.ndim:
            return self._many(t)
        g = self._times
        t = min(max(t, g[0]), g[-1])
        i = bisect_right(g, t, 1, len(g) - 1) - 1
        h = g[i + 1] - g[i]
        w = (t - g[i]) / h
        if self._blocks is None:
            p = (1.0 - w) * self._values[i] + w * self._values[i + 1]
        else:
            p = np.dot(_hermite_weights(w, h), self._blocks[i])
        return p.reshape(self._shape) if len(self._shape) != 1 else p

    def _many(self, t: np.ndarray) -> np.ndarray:
        g = self._grid
        s = np.clip(t.ravel(), g[0], g[-1])
        i = np.searchsorted(g, s, side="right").clip(1, len(g) - 1) - 1
        w = (s - g[i]) / (g[i + 1] - g[i])
        if self._blocks is None:
            p = (1.0 - w)[:, None] * self._values[i] + w[:, None] * self._values[i + 1]
        else:
            p = np.einsum("jk,kjf->kf", _hermite_weights(w, g[i + 1] - g[i]), self._blocks[i])
        return p.reshape(t.shape + self._shape)


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------

# Pade 13 numerator coefficients (denominator is the same with alternating signs).
_PADE13 = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)

# 1-norm threshold below which the order-13 approximant alone is accurate.
_THETA13 = 5.371920351148152


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a Pade 13 approximant.

    Non-finite entries, which only an overflow upstream produces, raise
    FloatingPointError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expm requires a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise FloatingPointError("expm requires finite entries")
    n = M.shape[0]
    norm1 = np.linalg.norm(M, 1)
    s = 0
    if norm1 > _THETA13:
        s = int(np.ceil(np.log2(norm1 / _THETA13)))
    A = M / (2.0**s)

    b = _PADE13
    ident = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * ident
    )
    F = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        F = F @ F
    return F


# ---------------------------------------------------------------------------
# ODE integration (classical RK4, fixed uniform grid)
# ---------------------------------------------------------------------------


def rk4_step(rhs, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size h (either sign) from (t, x)."""
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_sweep(rhs, times, x0, h: float, step=None) -> np.ndarray:
    """The state at every node of `times`, one fixed RK4 step per interval.

    Step k starts at times[k] with the signed step h, so a reversed grid
    with h < 0 sweeps backward.  States may have any shape (axis 0 of the
    result is time).  `step(t, x, t_next)`, when given, replaces the RK4
    step and gets `x0` as it is, so it may carry the state as a flat list
    of floats.  Times are handed out as Python floats.  Raises
    IntegrationBlowup(times[k + 1]) on a non-finite state.
    """
    x = np.asarray(x0, dtype=float) if step is None else x0
    # On a flat list of floats, math.isfinite costs a tenth of np.isfinite.
    finite = (lambda x: all(map(math.isfinite, x))) if step else (lambda x: np.isfinite(x).all())
    states = np.empty((len(times),) + np.shape(x))
    states[0] = x
    times = np.asarray(times, dtype=float).tolist()
    for k in range(len(times) - 1):
        x = rk4_step(rhs, times[k], x, h) if step is None else step(times[k], x, times[k + 1])
        if not finite(x):
            raise IntegrationBlowup(times[k + 1])
        states[k + 1] = x
    return states


def rk4_linear_sweep(M, b, times, x0, h: float) -> np.ndarray:
    """rk4_sweep of x' = M(t) x + b(t) (b None for 0), from batched step matrices.

    M[2k] and b[2k] are taken at times[k], M[2k + 1] and b[2k + 1] at times[k] + h/2.
    Phi = I + h/6 (M_0 + 2 K2 + 2 K3 + K4), K2 = M_h (I + h/2 M_0), K3 = M_h (I + h/2 K2),
    K4 = M_1 (I + h K3) come from batched products, 256 steps at a time, and one loop
    applies them: rk4_sweep's method and blow-up contract, its states to rounding.
    """
    x = np.asarray(x0, dtype=float)
    n = x.shape[0]
    if b is not None:  # x' = M x + b is z' = [[M, b], [0, 0]] z for z = [x; I]
        b = np.asarray(b, dtype=float).reshape(len(M), n, -1)
        x = np.concatenate([x, np.eye(b.shape[2]).reshape(b.shape[2:] + x.shape[1:])])
    states = np.empty((len(M) // 2 + 1,) + x.shape)
    states[0] = x
    for s in range(0, len(states) - 1, 256):  # bounds the temporaries
        m = M[2 * s : 2 * s + 513]
        if b is not None:
            m = np.block([[m, b[2 * s : 2 * s + 513]], [np.zeros((len(m), len(x) - n, len(x)))]])
        M0, Mh, M1 = m[:-1:2], m[1::2], m[2::2]
        K2 = Mh + (0.5 * h) * (Mh @ M0)
        K3 = Mh + (0.5 * h) * (Mh @ K2)
        K4 = M1 + h * (M1 @ K3)
        for k, P in enumerate(np.eye(len(x)) + (h / 6.0) * (M0 + 2.0 * K2 + 2.0 * K3 + K4), s + 1):
            x = states[k] = np.dot(P, x)
    finite = np.isfinite(states[1:]).all(axis=tuple(range(1, states.ndim)))
    if not finite.all():
        raise IntegrationBlowup(float(times[int(finite.argmin()) + 1]))
    return states if b is None else states[:, :n]


# ---------------------------------------------------------------------------
# Finite differences, rank and quadrature
# ---------------------------------------------------------------------------


def fd_jacobian(fun, x, h, scheme: str = "central", f0=None) -> np.ndarray:
    """Finite-difference Jacobian of `fun` at `x`; column k steps x_k by h_k.

    `h` is a scalar or one step per coordinate.  Schemes: "forward",
    (fun(x + h_k e_k) - f0) / h_k against the value f0 = fun(x) the caller
    already has, first order; "central", second order; "central4", the
    five-point stencil, fourth order.  A scalar `fun` gives a 1 x n row.
    """
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    if scheme not in ("forward", "central", "central4"):
        raise ValueError(f"unknown finite-difference scheme {scheme!r}")
    if scheme == "forward" and f0 is None:
        raise ValueError("the forward scheme needs f0 = fun(x)")
    columns = []
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h[k]

        def f(s):
            return np.atleast_1d(np.asarray(fun(x + s * e), dtype=float))

        if scheme == "forward":
            columns.append((f(1.0) - f0) / h[k])
        elif scheme == "central":
            columns.append((f(1.0) - f(-1.0)) / (2.0 * h[k]))
        else:
            columns.append((-f(2.0) + 8.0 * f(1.0) - 8.0 * f(-1.0) + f(-2.0)) / (12.0 * h[k]))
    if not columns:  # no coordinates: an m x 0 Jacobian
        return np.empty((np.atleast_1d(fun(x)).shape[0], 0))
    return np.column_stack(columns)


def numerical_rank(M: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Number of singular values above rel_tol times the largest one.

    Complex matrices keep their imaginary part.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    M = np.atleast_2d(np.asarray(M, dtype=complex if np.iscomplexobj(M) else float))
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def simpson_grid(T: float, steps: int):
    """Nodes and composite Simpson weights on [0, T]: (times, weights).

    Simpson's rule needs an even step count, so an odd `steps` is rounded up
    here and nowhere else: len(times) - 1 is the count used.  The nodes are
    h * arange, h = T / n, like every rk4_sweep grid; the weights are
    (h/3)(1, 4, 2, 4, ..., 2, 4, 1), and the rule is weights @ samples, or
    np.tensordot(weights, stack, axes=1) for a stack of arrays.
    """
    if not (steps >= 1 and 0.0 < T < np.inf):
        raise GridError(f"Simpson needs steps >= 1 and 0 < T < inf, got steps={steps}, T={T}")
    n = steps + steps % 2
    h = T / n
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h * np.arange(n + 1), w * (h / 3.0)
