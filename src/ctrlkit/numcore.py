"""Shared deterministic numerical kernels.

Dense matrix exponential (Pade 13 with scaling and squaring, of one matrix
or a stack), classical RK4
integration on uniform grids (linear ODEs from batched step matrices), dense
output between grid nodes, finite-difference Jacobians, SVD-based numerical
rank, the composite Simpson grid, and Chebyshev interpolation (nodes,
differentiation, quadrature, barycentric evaluation and a tail test).
Everything here is a pure function of its inputs; all downstream modules
build on these kernels so that results are bit-reproducible run to run.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev as C

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
    "Chebyshev",
    "chebyshev",
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
            # The weighted sum of four gathered rows, without a (times, 4, f) gather.
            c = _hermite_weights(w[:, None], (g[i + 1] - g[i])[:, None])
            p = sum(c[j] * self._blocks[i, j] for j in range(4))
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

    M is one n x n matrix or a (k, n, n) stack; a stack is one batched call,
    each matrix scaled by its own power of 2 (Higham, SIAM J. Matrix Anal.
    Appl. 26(4), 2005) and squared back only that often.  A zero matrix gives
    exactly I.  Non-finite entries, which only an overflow upstream
    produces, raise FloatingPointError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"expm requires a square matrix or a stack of them, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise FloatingPointError("expm requires finite entries")
    n = M.shape[-1]
    norm1 = np.abs(M).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm1, _THETA13) / _THETA13))  # 0 up to theta_13
    A = M / (2.0**s)[..., None, None]

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
    for j in range(int(s.max(initial=0.0))):
        k = s > j  # the matrices still to square
        if k.all():  # always so for one matrix: no gather
            F = F @ F
        else:
            F[k] = F[k] @ F[k]
    F[norm1 == 0.0] = ident  # the solve rounds the diagonal of expm(0) to 1 - 2^-53
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


# ---------------------------------------------------------------------------
# Chebyshev interpolation
# ---------------------------------------------------------------------------


class Chebyshev:
    """The degree-N polynomial interpolant on N + 1 nodes of [-1, 1] near Chebyshev points.

    `fit` maps node values to Chebyshev coefficients and `diff` to the node
    values of the derivative; each diagonal entry of `diff` is minus its
    row's off-diagonal sum, so constants differentiate to 0 up to the
    rounding of one sum (tenfold less rounding in nested derivatives).
    `weights` integrate the interpolant over [-1, 1]: Clenshaw-Curtis on
    second-kind points, Fejer's first rule on first-kind ones (Trefethen,
    Spectral Methods in MATLAB, SIAM 2000, ch. 6 and 12).  `bary` are the
    barycentric weights, the leading coefficients of the Lagrange basis.
    Values may be stacks of arrays; axis 0 runs over the nodes.
    """

    def __init__(self, nodes):
        s = np.asarray(nodes, dtype=float)
        N = len(s) - 1
        self.nodes = s
        self.fit = np.linalg.inv(C.chebvander(s, N))
        self.diff = C.chebvander(s, N - 1) @ C.chebder(self.fit)
        self.diff[np.diag_indices(N + 1)] -= self.diff.sum(axis=1)
        moments = np.zeros(N + 1)  # the integrals of T_k over [-1, 1]
        moments[::2] = 2.0 / (1.0 - np.arange(0, N + 1, 2) ** 2)
        self.weights = moments @ self.fit
        self.bary = self.fit[-1]

    def resolved(self, values) -> bool:
        """Whether the last 4 Chebyshev coefficients of `values` are within 1e-13 of the largest.

        A plateau check in the style of Aurentz & Trefethen, ACM TOMS 43(4), 2017.
        """
        c = np.abs(self.fit @ np.reshape(values, (len(self.nodes), -1)))
        return c[-4:].max() <= 1e-13 * c.max()

    def interpolate(self, values, x):
        """The interpolant of `values` at the points x (second barycentric formula).

        A point on a node returns that node's value bit for bit.
        """
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        v = values.reshape(len(self.nodes), -1)
        xs = x.ravel()
        p = np.empty((len(xs), v.shape[1]))
        for s in range(0, len(xs), 1024):  # bounds the (points, nodes) temporaries
            c = np.subtract.outer(xs[s : s + 1024], self.nodes)
            rows, nodes = np.nonzero(c == 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):  # the rows on a node
                np.divide(self.bary, c, out=c)
                q = (c @ v) / c.sum(axis=1)[:, None]
            q[rows] = v[nodes]
            p[s : s + 1024] = q
        return p.reshape(x.shape + values.shape[1:])


@lru_cache(maxsize=16)
def chebyshev(N: int, kind: int = 2) -> Chebyshev:
    """Chebyshev on the N + 1 points of the first kind, cos(pi (2j + 1) / (2N + 2)),
    or of the second (Lobatto, both ends included), cos(pi j / N).  Built
    once per process (the 16 last used are kept), so its arrays are
    read-only.  The nodes run from near 1 down to near -1.
    """
    j = np.arange(N + 1)
    if kind == 1:
        cheb = Chebyshev(np.cos(np.pi * (2 * j + 1) / (2 * (N + 1))))
    else:
        cheb = Chebyshev(np.cos(np.pi * j / N))
    for a in vars(cheb).values():
        a.flags.writeable = False
    return cheb
