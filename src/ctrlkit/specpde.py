"""Spectral control of 1D heat and wave equations on (0, L).

Everything lives on the Dirichlet sine basis: heat and wave evolution are
diagonal, the wave observability functionals and the boundary-control
Gramian are integrals of trigonometric products, taken in closed form in
time and in space by one helper (_trig_gram), the heat moment-method
control uses an extended-precision biorthogonal family, and the semilinear
heat equation is stabilized through its finite-mode Galerkin truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numcore import DimensionError, Grid, GridError, expm, rk4_linear_sweep, rk4_sweep, simpson_grid
from .numcore import _step_scan, spectral_rank
from .lincontrol import LtiSystem
from .stabilize import lyapunov_solve, pole_place

__all__ = [
    "SineBasis",
    "WaveState",
    "IntervalUnion",
    "SemilinearPlant",
    "IllPosedError",
    "KTooLargeError",
    "heat_evolve",
    "wave_evolve",
    "wave_energy",
    "boundary_observation_energy",
    "sin2_mass",
    "periago_bound",
    "optimal_interval_union",
    "internal_wave_observation",
    "hum_wave_boundary",
    "HumWaveResult",
    "biorthogonal_family",
    "moment_heat_control",
    "MomentControlResult",
    "damping_decay_experiment",
    "DampingResult",
    "semilinear_steps",
    "semilinear_stabilize",
    "SemilinearResult",
]


class IllPosedError(RuntimeError):
    """Raised when a control Gramian is numerically non-invertible.

    Attributes:
        min_singular_value: smallest singular value of the offending Gramian.
    """

    def __init__(self, message, min_singular_value):
        self.min_singular_value = min_singular_value
        super().__init__(message)


class KTooLargeError(RuntimeError):
    """Raised when a biorthogonal family exceeds feasible precision.

    Attributes:
        feasible_K: the largest family size whose Gram system is solvable.
    """

    def __init__(self, message, feasible_K):
        self.feasible_K = feasible_K
        super().__init__(message)


@dataclass(frozen=True)
class SineBasis:
    """Dirichlet sine basis of (0, L): modes sin(j pi x / L), j = 1..N.

    mu holds the (positive convention) Dirichlet-Laplacian eigenvalues
    (j pi / L)^2.
    """

    L: float
    N: int

    def __post_init__(self):
        if self.L <= 0 or self.N < 1:
            raise ValueError("need L > 0 and N >= 1")

    @property
    def j(self) -> np.ndarray:
        return np.arange(1, self.N + 1)

    @property
    def mu(self) -> np.ndarray:
        return (self.j * np.pi / self.L) ** 2

    @property
    def omega(self) -> np.ndarray:
        """Wave angular frequencies j pi / L."""
        return self.j * np.pi / self.L


@dataclass(frozen=True)
class WaveState:
    """Truncated wave data in the (a, b) Fourier amplitude convention.

    The free solution is psi(t, x) = sum_k (L / k pi) (a_k cos(k pi t / L)
    + b_k sin(k pi t / L)) sin(k pi x / L); a holds the position amplitudes,
    b the velocity-related ones.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise DimensionError("a and b must be equal-length vectors")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def N(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint sorted open subintervals of (0, L)."""

    intervals: tuple

    def __init__(self, intervals: Sequence[Sequence[float]]):
        ivs = tuple(tuple(map(float, iv)) for iv in intervals)
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo}, {hi})")
        for (l0, h0), (l1, h1) in zip(ivs, ivs[1:]):
            if h0 > l1:
                raise ValueError("intervals must be sorted and disjoint")
        object.__setattr__(self, "intervals", ivs)

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def _check_modes(basis: SineBasis, N: int) -> None:
    """Raise DimensionError unless a state of N modes fits the basis."""
    if N > basis.N:
        raise DimensionError(f"a state of {N} modes does not fit a basis of {basis.N}")


def heat_evolve(basis: SineBasis, coeffs, t: float) -> np.ndarray:
    """Heat semigroup on coefficients: multiply mode j by exp(-mu_j t)."""
    if t < 0:
        raise ValueError("the heat semigroup is not reversible: t must be >= 0")
    c = np.asarray(coeffs, dtype=float)
    _check_modes(basis, c.shape[0])
    return c * np.exp(-basis.mu[: c.shape[0]] * t)


def wave_evolve(basis: SineBasis, s: WaveState, t: float) -> WaveState:
    """Wave group: rotation by angle j pi t / L in each (a_j, b_j) plane."""
    _check_modes(basis, s.N)
    th = basis.omega[: s.N] * t
    co, si = np.cos(th), np.sin(th)
    return WaveState(s.a * co + s.b * si, -s.a * si + s.b * co)


def wave_energy(basis: SineBasis, s: WaveState) -> float:
    """||psi(0)||^2_{H^1_0} + ||dt psi(0)||^2_{L^2} = (L/2) sum(a^2 + b^2)."""
    return 0.5 * basis.L * float(np.sum(s.a**2) + np.sum(s.b**2))


# ---------------------------------------------------------------------------
# Observability functionals
# ---------------------------------------------------------------------------


def _trig_gram(k: np.ndarray, scale: float, intervals) -> np.ndarray:
    """K = sum over [a, b] of int_a^b f f' dt, f(t) = (sin(omega t), cos(omega t)), omega = k scale.

    Time integrals pass [(0, T)], space integrals the intervals of omega.  Entries are half sums of
    F(b) - F(a) at x = (k_i -+ k_j) scale, rounded once from the mode numbers k: F(t) = t sinc(x t / pi)
    for cos(x t), and 2 sin^2(x t / 2) / x = h (x h / 2), h = t sinc(x t / 2 pi), for sin(x t).  Exact
    at x = 0, free of cancellation near it, finite unless x t overflows; K is exactly symmetric.
    """
    if not all(-np.inf < a < b < np.inf for a, b in intervals):
        raise GridError(f"the integral needs intervals -inf < a < b < inf, got {list(intervals)}")
    t = np.array(intervals, dtype=float).reshape(-1, 2).T[:, :, None, None, None]  # (end, interval, -+, i, j)
    x = np.stack([k[:, None] - k, k[:, None] + k]) * scale
    y = x * (t / np.pi)
    h = t * np.sinc(0.5 * y)
    C, S = t * np.sinc(y), h * (0.5 * x * h)  # F of cos(x t) and of sin(x t)
    Cm, Cp = np.sum(C[1] - C[0], axis=0)
    sc = 0.5 * np.sum(S[1] - S[0], axis=(0, 1))  # int sin(omega_i t) cos(omega_j t) dt
    return np.vstack([np.hstack([0.5 * (Cm - Cp), sc]), np.hstack([sc.T, 0.5 * (Cm + Cp)])])


def _time_gram(basis: SineBasis, N: int, T: float) -> np.ndarray:
    """_trig_gram of the first N wave frequencies over [0, T]; N may not exceed the basis."""
    _check_modes(basis, N)
    return _trig_gram(basis.j[:N], np.pi / basis.L, [(0.0, T)])


def boundary_observation_energy(basis: SineBasis, s: WaveState, T: float) -> float:
    """int_0^T |dx psi(t, L)|^2 dt with the boundary trace computed modally.

    dx psi(t, L) = sum_k (-1)^k (a_k cos(k pi t / L) + b_k sin(k pi t / L)).
    """
    K = _time_gram(basis, s.N, T)
    sign = (-1.0) ** basis.j[: s.N]
    v = np.concatenate([sign * s.b, sign * s.a])
    return float(v @ K @ v)


def sin2_mass(omega: IntervalUnion, j: int, basis: SineBasis) -> float:
    """int_omega sin^2(j pi x / L) dx, in closed form."""
    return float(_trig_gram(np.array([j]), np.pi / basis.L, omega.intervals)[0, 0])


def periago_bound(measure: float, L: float) -> float:
    """Lower bound (1/2)(|omega| - (L/pi) sin(pi |omega| / L)) on sin^2 masses."""
    return 0.5 * (measure - (L / np.pi) * np.sin(np.pi * measure / L))


def optimal_interval_union(j: int, measure: float, L: float) -> IntervalUnion:
    """The measure-|omega| set on which int sin^2(j pi x/L) attains the bound.

    Neighborhoods of the j+1 zeros of sin(j pi x / L): half-width measure/2j
    around each interior zero, and measure/2j stubs at both endpoints.
    """
    d = measure / (2.0 * j)
    ivs = [(0.0, d)]
    for k in range(1, j):
        c = k * L / j
        ivs.append((c - d, c + d))
    ivs.append((L - d, L))
    return IntervalUnion(ivs)


def _sin_product_integrals(omega: IntervalUnion, basis: SineBasis, N: int) -> np.ndarray:
    """S[j-1, k-1] = int_omega sin(j pi x/L) sin(k pi x/L) dx, closed form."""
    return _trig_gram(np.arange(1, N + 1), np.pi / basis.L, omega.intervals)[:N, :N]


def internal_wave_observation(basis: SineBasis, s: WaveState, omega: IntervalUnion, T: float) -> float:
    """int_0^T int_omega phi(t, x)^2 dx dt for the internal-observation solution.

    Here phi(t, x) = sum_j (a_j cos(j pi t/L) + b_j sin(j pi t/L))
    sin(j pi x/L); both integrals are closed-form.
    """
    return _internal_observation(basis, s, _sin_product_integrals(omega, basis, s.N), T)


def _internal_observation(basis: SineBasis, s: WaveState, S: np.ndarray, T: float) -> float:
    """internal_wave_observation from the space integrals S = _sin_product_integrals(omega, basis, s.N)."""
    V = np.vstack([np.diag(s.b), np.diag(s.a)])  # phi's modal amplitudes are V' (sin, cos)
    return float(np.sum(S * (V.T @ _time_gram(basis, s.N, T) @ V)))


# ---------------------------------------------------------------------------
# HUM for the boundary-controlled wave
# ---------------------------------------------------------------------------


def _wave_control_operator(basis: SineBasis, N: int):
    """Input vector d of the boundary-controlled truncated wave in (a, b) form.

    With state Z = (a, b), the controlled system is dZ/dt = A Z + D u with
    D = (0, d): a_j' = omega_j b_j and b_j' = -omega_j a_j + d_j u,
    d_j = (2/L)(j pi / L)(-1)^(j+1).
    """
    j = np.arange(1, N + 1)
    return (2.0 / basis.L) * (j * np.pi / basis.L) * (-1.0) ** (j + 1)


@dataclass
class HumWaveResult:
    z: WaveState  # the HUM minimizer (adjoint datum psi)
    times: np.ndarray
    control: np.ndarray  # u(t) samples
    endpoint: WaveState  # Simpson check of the sampled control, not the state it reaches
    endpoint_error: float  # that check's miss, not the control's true miss
    gramian: np.ndarray
    condition_number: float
    cost: float  # <G z, z>
    control_l2_sq: float  # Simpson of u^2 on the same grid


def hum_wave_boundary(
    basis: SineBasis,
    y0: WaveState,
    y1: WaveState,
    T: float,
    steps: int = 2000,
    force: bool = False,
) -> HumWaveResult:
    """Minimal-L2 boundary control steering the truncated wave y0 -> y1.

    Forms the 2N x 2N Gramian G = int_0^T S(T-t) D D' S(T-t)' dt on the (a, b)
    coefficients in closed form, solves G z = y1 - S(T) y0, and samples u(t) = D' S(T-t)' z
    on the `steps` Simpson grid, whose rule gives `control_l2_sq` and the endpoint.  The
    control reaches y1 up to the solve's rounding, so `endpoint_error` is that rule's error.
    A Gramian of numerical rank below 2N at 1e-12 (spectral_rank) raises IllPosedError.
    """
    N = y0.N
    if y1.N != N:
        raise DimensionError("y0 and y1 must have the same mode count")
    if T < 2.0 * basis.L and not force:
        raise IllPosedError(
            f"T={T} < 2L={2 * basis.L}: uniform observability fails; "
            "pass force=True to attempt anyway",
            float("nan"),
        )
    if T <= 0.0:
        raise IllPosedError(f"T={T}: the Gramian needs a positive horizon", 0.0)
    grid, wts = simpson_grid(T, steps)
    d = np.tile(_wave_control_operator(basis, N), 2)
    G = _time_gram(basis, N, T) * np.outer(d, d)
    # Rows w_i = S(T - t_i) D = (sin, cos)(omega (T - t_i)) d of the observation map.
    th = np.outer(T - grid.times, basis.omega[:N])
    w = np.hstack([np.sin(th), np.cos(th)]) * d
    sv = np.linalg.svd(G, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if spectral_rank(sv, 1e-12) < len(sv):
        raise IllPosedError(f"wave Gramian condition number {cond:.3e} exceeds 1.0e+12", float(sv[-1]))
    free = wave_evolve(basis, y0, T)
    S_T_y0 = np.concatenate([free.a, free.b])
    Z1 = np.concatenate([y1.a, y1.b])
    z = np.linalg.solve(G, Z1 - S_T_y0)
    control = w @ z
    endpoint_vec = S_T_y0 + (w.T * wts) @ control
    endpoint = WaveState(endpoint_vec[:N], endpoint_vec[N:])
    return HumWaveResult(
        z=WaveState(z[:N], z[N:]),
        times=grid.times,
        control=control,
        endpoint=endpoint,
        endpoint_error=float(np.linalg.norm(endpoint_vec - Z1)),
        gramian=G,
        condition_number=cond,
        cost=float(z @ G @ z),
        control_l2_sq=float(wts @ control**2),
    )


# ---------------------------------------------------------------------------
# Moment method for the heat equation
# ---------------------------------------------------------------------------


def biorthogonal_family(exponents: Sequence[float], T: float, K: int):
    """Family theta^k(t) = sum_i c_ik exp(-mu_i t) biorthogonal to exp(-mu_j t).

    Solves the K x K exponential Gram system M in 80-digit mpmath precision
    (the condition number grows super-exponentially in K) and returns the
    mpmath coefficient matrix C = M^-1 (column k holds theta^k).  The family
    is feasible when cond_2(M) <= 1e65.  C is accepted at once when the bound
    cond_2(M) <= ||M||_F ||C||_F is below 1e65 (1 - 1e-6): the margin covers
    the rounding of C and of an SVD ratio, at most cond 1e-80 <= 1e-15
    relative.  Otherwise (or when M is numerically singular) the singular
    values of M decide; an infeasible K raises KTooLargeError with the
    2-norm condition and the largest feasible leading block.
    """
    import mpmath as mp  # imported here: only the moment method needs it

    mus = [mp.mpf(x) for x in exponents]
    if K > len(mus):
        raise DimensionError("K exceeds the number of exponents")
    if len(set(float(m) for m in mus)) != len(mus):
        raise ValueError("exponents must be distinct")
    dps = 80
    with mp.workdps(dps):
        Tm = mp.mpf(T)
        M = mp.matrix(K, K)
        for i in range(K):
            for j in range(i, K):
                s = mus[i] + mus[j]
                M[i, j] = M[j, i] = (1 - mp.exp(-s * Tm)) / s
        # Not spectral_rank: feasibility is a bound on cond from the working precision.
        limit = mp.mpf(10) ** (dps - 15)
        try:
            C = M**-1  # columns are the biorthogonal coefficient vectors
            if mp.mnorm(M, "F") * mp.mnorm(C, "F") < limit * (1 - mp.mpf(10) ** -6):
                return C
        except ZeroDivisionError:
            pass  # numerically singular: the singular values say how far K is off
        sv = mp.svd_r(M, compute_uv=False)
        cond = float(sv[0] / sv[K - 1]) if sv[K - 1] > 0 else float("inf")
        if not math.isfinite(cond) or cond > limit:
            feasible = 0
            for KK in range(K - 1, 0, -1):  # the leading KK x KK block is the Gram of the first KK
                svk = mp.svd_r(M[:KK, :KK], compute_uv=False)
                ck = svk[0] / svk[KK - 1] if svk[KK - 1] > 0 else mp.inf
                if ck < limit:
                    feasible = KK
                    break
            raise KTooLargeError(
                f"Gram condition {cond:.3e} exceeds precision; largest feasible K={feasible}",
                feasible,
            )
        return M**-1


@dataclass
class MomentControlResult:
    mode_coeffs: Callable  # t -> per-mode control coefficients g_k(t)
    final_modes: np.ndarray  # y_j(T) of the controlled modes, j = 1..N
    max_final: float
    denominators: np.ndarray


def moment_heat_control(
    basis: SineBasis,
    omega: IntervalUnion,
    y0_coeffs,
    T: float,
    N: int,
) -> MomentControlResult:
    """Null control of the first N heat modes on (0, pi) by the moment method.

    u(t, x) = -sum_k a_k exp(-k^2 T) theta_T^k(T - t) sin(k x)
    / int_omega sin^2(k y) dy, with the paper's projection convention
    y_j' = -j^2 y_j + int_omega u(t, x) sin(j x) dx.  The surviving mode
    amplitudes y_j(T) of the controlled system come from the closed-form
    solution of these linear mode equations, so they are exact up to
    rounding.
    """
    if abs(basis.L - np.pi) > 1e-12:
        raise ValueError("the moment construction uses the L = pi convention")
    a0 = np.asarray(y0_coeffs, dtype=float)
    if a0.shape[0] < N:
        raise DimensionError("y0_coeffs must cover the first N modes")
    mus = [float(k * k) for k in range(1, N + 1)]
    C = biorthogonal_family(mus, T, N)
    if omega.measure <= 0.0:
        raise ValueError("omega must have positive measure")
    S = _sin_product_integrals(omega, basis, N)  # int_omega sin(jx) sin(kx) dx
    denom = np.diag(S).copy()

    # Biorthogonal coefficients in float64: the K <= 6 families used here lose
    # only a few digits to cancellation.
    Cf = np.array([[float(C[i, k]) for k in range(N)] for i in range(N)])
    mu_arr = np.array(mus)
    scale = -a0[:N] * np.exp(-mu_arr * T) / denom

    def mode_coeffs(t: float) -> np.ndarray:
        """g_k(t): coefficient of sin(k x) in u(t, .)."""
        return scale * (np.exp(-mu_arr * (T - t)) @ Cf)

    # y_j' = -mu_j y_j + sum_k S[j,k] g_k(t) in closed form: every forcing term
    # is an exponential, and int_0^T e^{-(mu_j + mu_i)(T - t)} dt is the
    # exponential Gram matrix of the biorthogonal family.
    s = mu_arr[:, None] + mu_arr[None, :]
    gram = -np.expm1(-s * T) / s
    y = np.exp(-mu_arr * T) * a0[:N] + (S * (gram @ Cf)) @ scale
    return MomentControlResult(
        mode_coeffs=mode_coeffs,
        final_modes=y,
        max_final=float(np.max(np.abs(y))),
        denominators=denom,
    )


# ---------------------------------------------------------------------------
# Damped wave: observability vs exponential decay
# ---------------------------------------------------------------------------


@dataclass
class DampingResult:
    delta: float
    C1: float
    observability_value: float
    times: np.ndarray
    energy: np.ndarray


def damping_decay_experiment(
    basis: SineBasis,
    damping: Optional[IntervalUnion],
    T_fit: float,
    samples: int = 400,
) -> DampingResult:
    """Energy decay of the internally damped truncated wave.

    Simulates dZ/dt = M Z from a = (1, ..., 1), b = 0, with M the Galerkin
    matrix of the damped wave (damping operator B_jk = (2/L) int_omega sin
    sin), steps with the exact matrix exponential of M (numcore's blocked
    step scan with Delta = expm(h M) - I, in blocks of 6 steps for the
    corpus spec, whose ||expm(h M)||_1 is 1.18), fits log E(t) by
    least squares for delta, and reports C1 = max_t E(t) e^(delta t) / E(0).
    The observability value is the conservative integral
    int_0^T ||B^(1/2) dt phi||^2 dt.
    """
    N = basis.N
    y0 = WaveState(np.ones(N), np.zeros(N))
    grid = Grid(T_fit, samples)
    times = grid.times
    om = basis.omega
    M = np.zeros((2 * N, 2 * N))
    M[:N, N:] = np.diag(om)
    M[N:, :N] = np.diag(-om)
    S = _sin_product_integrals(damping or IntervalUnion([]), basis, N)
    M[N:, N:] = -(2.0 / basis.L) * S
    z0 = np.concatenate([y0.a, y0.b])
    Z = np.vstack([z0, _step_scan(expm(grid.h * M) - np.eye(2 * N), z0, grid.steps)])
    energy = 0.5 * np.sum(Z**2, axis=1)
    if damping is not None and damping.intervals:
        logs = np.log(energy)
        slope, _ = np.polyfit(times, logs, 1)
        delta = -float(slope)
        C1 = float(np.max(energy * np.exp(delta * times)) / energy[0])
        # Conservative observation integral on the undamped flow from the same
        # data: dt phi has the amplitudes (b, -a), and S is the sin-sin mass.
        obs = _internal_observation(basis, WaveState(y0.b, -y0.a), S, T_fit)
    else:
        delta, C1, obs = 0.0, 1.0, 0.0
    return DampingResult(delta, C1, obs, times, energy)


# ---------------------------------------------------------------------------
# Semilinear heat stabilization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemilinearPlant:
    """1D semilinear heat plant dt y = dxx y + f(y), y(t, L) = u(t).

    f acts elementwise on arrays: the simulation applies it to the whole
    space grid at once.  An f with the attribute `linear` set true is
    f(y) = f_prime_0 y, and its simulation runs on rk4_linear_sweep.  n is
    the stabilized (finite-mode) count, N_sim the Galerkin simulation size,
    gamma the weight of the finite-mode block in the composite Lyapunov
    function.
    """

    L: float
    f: Callable[[np.ndarray], np.ndarray]
    f_prime_0: float
    n: int
    N_sim: int
    gamma: float

    def __post_init__(self):
        if self.N_sim < self.n or self.n < 1:
            raise ValueError("need N_sim >= n >= 1")
        probe = np.array([0.0, 0.5, -0.5])
        try:
            values = np.asarray(self.f(probe), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"f must act elementwise on an array; f({probe.tolist()}) raised {exc}")
        if values.shape != probe.shape:
            raise ValueError(
                f"f must act elementwise on an array; f of shape {probe.shape} gave shape {values.shape}"
            )
        if not abs(values[0]) <= 1e-12:
            raise ValueError("nonlinearity must satisfy f(0) = 0")
        if getattr(self.f, "linear", False) and not np.array_equal(values, self.f_prime_0 * probe):
            raise ValueError(
                f"an f marked linear must be f(y) = f_prime_0 y; f({probe.tolist()}) gave {values.tolist()}"
            )


def semilinear_defaults(L: float, f_prime_0: float, gamma: Optional[float] = None):
    """Default mode counts: all unstable modes plus two; gamma scaled by |f'(0)|."""
    mu = lambda j: (j * np.pi / L) ** 2
    unstable = 0
    while f_prime_0 - mu(unstable + 1) > 0:
        unstable += 1
    n = unstable + 2
    if gamma is None:
        gamma = 10.0 * max(1.0, abs(f_prime_0))
    return n, max(2 * n, 8), gamma


@dataclass
class SemilinearResult:
    K: np.ndarray
    A_n: np.ndarray
    B_n: np.ndarray
    times: np.ndarray
    u: np.ndarray
    z: np.ndarray  # shape (nodes, N_sim)
    v: np.ndarray
    V: np.ndarray


def _semilinear_modes(L: float, count: int):
    """(j, mu_j, I_j, b_j) of the modes j = 1..count: mu_j = (j pi / L)^2, I_j = int_0^L x e_j dx
    with e_j = sqrt(2/L) sin(j pi x / L), and b_j = -I_j / L."""
    j = np.arange(1, count + 1)
    I = math.sqrt(2.0 / L) * L**2 * (-1.0) ** (j + 1) / (j * np.pi)
    return j, (j * np.pi / L) ** 2, I, -I / L


def semilinear_matrices(plant: SemilinearPlant):
    """The finite-mode model X_n = (u, z_1..z_n): X' = A_n X + B_n v.

    a_j = (f'(0)/L) int x e_j, b_j = -(1/L) int x e_j, lambda_j = f'(0)-mu_j;
    A_n has the a_j in its first column, the lambda_j on the diagonal, and a
    zero first row (u' = v); B_n = (1, b_1, ..., b_n)^T.
    """
    L = plant.L
    n = plant.n
    _, mu, I, b = _semilinear_modes(L, n)
    lam = plant.f_prime_0 - mu
    a = plant.f_prime_0 / L * I
    A = np.zeros((n + 1, n + 1))
    A[1:, 0] = a
    A[1:, 1:] = np.diag(lam)
    B = np.concatenate([[1.0], b]).reshape(n + 1, 1)
    return A, B, a, b, lam


def semilinear_steps(L: float, N_sim: int, T_sim: float, steps: int) -> int:
    """The RK4 step count of the semilinear simulation: max(steps, ceil(T_sim mu_N / 2.5)).

    Explicit RK4 is stable for the fastest mode mu_N = (N_sim pi / L)^2 only
    while h < 2.78 / mu_N, so a grid coarser than h = 2.5 / mu_N is refined.
    A `steps` or `T_sim` that Grid refuses raises its GridError.
    """
    Grid(T_sim, steps)
    k = N_sim * math.pi / L
    need = T_sim * (k * k) / 2.5
    if need == math.inf:
        raise ValueError(f"T_sim = {T_sim} needs more RK4 steps than a float can count")
    return max(steps, math.ceil(need))


def _semilinear_rhs(plant: SemilinearPlant, Krow: np.ndarray):
    """The Galerkin right-hand side under v = K X_n, its Jacobian M at 0, and the modal rates lambda_j.

    On s = (u, z_1..z_N_sim) it is s' = Lin s + F f(Y s), from matrices built
    once: Lin holds u' = v and z_j' = -mu_j z_j + b_j v, Y evaluates
    y = (x/L) u + sum z_j e_j on the 201 Simpson nodes of (0, L), and F
    projects f(y) on the modes, <f(y), e_j> by Simpson, below a zero row for
    u.  Lin and Y are stacked, so one call is two products, one f on the
    whole space grid and one sum, whatever f is.  M = Lin + f'(0) F Y keeps
    the Simpson projection, so for f(y) = f'(0) y, s' = M s is the same ODE.
    """
    Ns, n, L = plant.N_sim, plant.n, plant.L
    jj, mu, _, b_all = _semilinear_modes(L, Ns)
    space, weights = simpson_grid(L, 200)
    xs = space.times
    E = math.sqrt(2.0 / L) * np.sin(np.outer(xs, jj) * np.pi / L)  # e_j on the grid
    Kfull = np.zeros(Ns + 1)  # v = K X_n = Kfull s
    Kfull[: n + 1] = Krow
    Lin = np.outer(np.concatenate([[1.0], b_all]), Kfull)
    Lin[1:, 1:] -= np.diag(mu)
    LinY = np.vstack([Lin, np.column_stack([xs / L, E])])
    F = np.vstack([np.zeros(len(xs)), E.T * weights])
    f, m = plant.f, Ns + 1

    def rhs(t, state):
        w = np.dot(LinY, state)
        return w[:m] + np.dot(F, f(w[m:]))

    return rhs, Lin + plant.f_prime_0 * (F @ LinY[m:]), plant.f_prime_0 - mu


def semilinear_stabilize(
    plant: SemilinearPlant,
    y0_coeffs,
    T_sim: float,
    steps: int = 2000,
) -> SemilinearResult:
    """Finite-mode boundary stabilization of the semilinear heat equation.

    Pole-places the (n+1)-dimensional model at -1 (all multiplicities),
    solves the Lyapunov equation for the closed loop, then simulates the
    N_sim-mode Galerkin truncation of the true nonlinear system under
    v = K X_n, u' = v, u(0) = 0 (z = y - (x/L) u substitution), recording
    the composite Lyapunov function V = gamma X'PX - (1/2) sum lambda_j z_j^2.
    The nonlinearity is projected on the modes by Simpson's rule on 201
    space nodes.  The grid has `semilinear_steps` steps.  An f marked
    `linear` makes the system s' = M s, swept by rk4_linear_sweep from one
    step matrix; any other f runs on rk4_sweep.  T_sim must be positive:
    the heat flow is not reversible.
    """
    grid = Grid(T_sim, semilinear_steps(plant.L, plant.N_sim, T_sim, steps))
    A, B = semilinear_matrices(plant)[:2]
    n = plant.n
    target = np.poly(-np.ones(n + 1))  # (s+1)^(n+1)
    K = pole_place(LtiSystem(A, B), target)
    Krow = np.asarray(K).ravel()
    P = lyapunov_solve(A + B @ K)

    rhs, M, lam_all = _semilinear_rhs(plant, Krow)
    z0 = np.zeros(plant.N_sim)
    y0_coeffs = np.asarray(y0_coeffs, dtype=float)
    z0[: y0_coeffs.shape[0]] = y0_coeffs
    s0 = np.concatenate([[0.0], z0])
    if getattr(plant.f, "linear", False):
        states = rk4_linear_sweep(np.broadcast_to(M, (2 * grid.steps + 1,) + M.shape), None, grid, s0)
    else:
        states = rk4_sweep(rhs, grid, s0)
    X = states[:, : n + 1]  # the model coordinates (u, z_1..z_n)
    v_samples = X @ Krow
    V = plant.gamma * np.einsum("ij,jk,ik->i", X, P, X) - 0.5 * (states[:, 1:] ** 2 @ lam_all)
    return SemilinearResult(
        K=K,
        A_n=A,
        B_n=B,
        times=grid.times,
        u=states[:, 0],
        z=states[:, 1:],
        v=v_samples,
        V=V,
    )
