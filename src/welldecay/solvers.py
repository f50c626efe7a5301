"""Time-domain solvers for the survival amplitude b0(t) on signed time grids.

Three routes, all starting from b0(0) = 1:

* solve_volterra: the memory-integral equation

      db0/dt = -i E0(t) b0(t) - w(t) int_0^t K(t - t') w(t') b0(t') dt'

  for any finite-bandwidth kernel K, discretized by trapezoidal product
  integration on a uniform grid with one predictor-corrector (Heun) pass
  per step; second-order accurate. The integral keeps its signed
  orientation, so integrating toward negative t needs no special casing.
  Exponentially decaying kernels are truncated where they fall below
  1e-18 of their peak, which is far below the discretization error but
  turns the wide-band-like regime (lam ~ 1e3 Gamma) from quadratic to
  linear cost.

* solve_lorentzian_ode: the equivalent second-order ODE for the Lorentzian
  kernel,

      i b0'' = [E0(t) - i s L + i w'/w] b0'
               + [E0'(t) + (s L - w'/w) E0(t) - i L Gamma w^2 / 2] b0,

  with s = sgn(t) constant on each side of zero, integrated by the
  classical fixed-step Runge-Kutta scheme (fourth order). The ODE is
  linear, so each step is a 2x2 matrix built from the coefficients on the
  step's node and half-node times. The second initial condition is
  b0'(0) = -i E0(0): the memory integral vanishes at t = 0.

* solve_wideband: the closed-form wide-band amplitude evaluated on the
  grid, from the drive integrals of SystemParams.

Every route reads E0(t) and w(t) from its SystemParams, and solve(params,
reservoir, cfg, method) picks the route from the reservoir (see ROUTES).

Grids always contain t = 0 as a node and satisfy the resolution rule
dt * max(Gamma, band, |E0| + u, omega) <= 0.05, the band being 0 for the
wide band, L, W, or W + |E0| + u for the finite chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closedform import b0_lorentzian_static, wideband_phase
from .model import (
    FiniteChain,
    Lorentzian,
    ModelError,
    Semicircle,
    SpectralDensity,
    SystemParams,
    WideBand,
    _check_finite,
)

VOLTERRA_PC = "volterra-pc"
LORENTZIAN_ODE = "lorentzian-ode"
WIDEBAND_CLOSED = "wideband-closed-form"
LORENTZIAN_CLOSED = "closed-form"
# solve's methods per reservoir; "auto" takes the first ("exact" is chain.evolve_chain)
ROUTES = {
    WideBand: ("closed",),
    Lorentzian: ("ode", "volterra", "closed"),
    Semicircle: ("volterra",),
    FiniteChain: ("exact",),
}

RESOLUTION_LIMIT = 0.05
KERNEL_TRUNCATION = 1.0e-18
DIVERGENCE_LIMIT = 2.0
_RK4_CHUNK = 256  # RK4 steps whose step matrices are held at once


class SolverError(RuntimeError):
    """Numerical failure during a solve (divergence, singular drive...)."""


class ResolutionError(ValueError):
    """Step size too coarse for the fastest scale in the problem."""


class MismatchError(ValueError):
    """Trajectories with different physics cannot be compared."""


@dataclass(frozen=True)
class SolverConfig:
    """Step size, signed end time, and the error budget used for sanity bounds."""

    dt: float
    t_end: float
    tolerance: float = 1.0e-6

    def __post_init__(self):
        _check_finite(self, "dt", "t_end", "tolerance")
        if not self.dt > 0.0:
            raise ModelError(f"SolverConfig.dt must be positive and finite, got {self.dt}")
        if self.t_end == 0.0:
            raise ModelError(f"SolverConfig.t_end must be nonzero and finite, got {self.t_end}")
        if not self.tolerance > 0.0:
            raise ModelError(f"SolverConfig.tolerance must be positive and finite, got "
                             f"{self.tolerance}")


@dataclass
class AmplitudeTrajectory:
    """Sampled amplitude on a signed uniform grid, plus run provenance.

    br holds the reservoir amplitudes (one row per sample) and norm_drift
    the largest |<psi|psi> - 1| seen, for routes that evolve the reservoir
    exactly; both stay None elsewhere.
    """

    times: np.ndarray
    b0: np.ndarray
    b0_dot: Optional[np.ndarray]
    params: SystemParams
    sd: Optional[SpectralDensity]
    cfg: SolverConfig
    method: str
    br: Optional[np.ndarray] = None
    norm_drift: Optional[float] = None

    def __post_init__(self):
        i0 = int(np.argmin(np.abs(self.times)))
        if self.times[i0] != 0.0 or self.b0[i0] != 1.0:
            raise SolverError("trajectory must contain t = 0 with b0(0) = 1")
        bound = 1.0 + 10.0 * self.cfg.tolerance
        peak = float(np.max(np.abs(self.b0)))
        if peak > bound:
            raise SolverError(f"|b0| reached {peak}, beyond the norm bound {bound}")

    @property
    def p0(self) -> np.ndarray:
        """Survival probability |b0(t)|^2 on the grid."""
        return np.abs(self.b0) ** 2

    def index_of(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(self.times[i], t, rel_tol=0.0, abs_tol=1.0e-9 * max(1.0, abs(t))):
            raise KeyError(f"t = {t} is not a grid node")
        return i

    def same_physics(self, other: "AmplitudeTrajectory") -> bool:
        return (
            self.params == other.params
            and self.sd == other.sd
            and self.method == other.method
            and math.isclose(self.times[-1], other.times[-1], rel_tol=1.0e-12, abs_tol=0.0)
        )


def _grid(cfg: SolverConfig) -> np.ndarray:
    n = max(1, int(round(abs(cfg.t_end) / cfg.dt)))
    sign = 1.0 if cfg.t_end > 0 else -1.0
    return sign * cfg.dt * np.arange(n + 1)


def _band(params: SystemParams, reservoir: SpectralDensity) -> float:
    """The reservoir's own fastest scale in the resolution rule."""
    if isinstance(reservoir, WideBand):
        return 0.0
    if isinstance(reservoir, Lorentzian):
        return reservoir.lam
    if isinstance(reservoir, Semicircle):
        return reservoir.w_band
    if isinstance(reservoir, FiniteChain):
        return reservoir.w_band + abs(params.e0) + params.u
    raise ModelError(f"no resolution band for reservoir {reservoir!r}")


def _resolution_scale(params: SystemParams, reservoir: SpectralDensity) -> float:
    scale = max(params.gamma, abs(params.e0) + params.u, _band(params, reservoir))
    if params.level_drive is not None:
        scale = max(scale, params.level_drive.omega)
    if params.barrier_drive is not None:
        scale = max(scale, params.barrier_drive.omega)
    return scale


def _check_resolution(cfg: SolverConfig, params: SystemParams, reservoir: SpectralDensity) -> None:
    scale = _resolution_scale(params, reservoir)
    if cfg.dt * scale > RESOLUTION_LIMIT:
        raise ResolutionError(
            f"dt * max-rate = {cfg.dt * scale:.3g} exceeds {RESOLUTION_LIMIT} "
            f"(dt = {cfg.dt}, fastest scale = {scale:.3g})"
        )


def default_dt(params: SystemParams, reservoir: SpectralDensity) -> float:
    """Half the largest step the resolution rule allows for this run."""
    return RESOLUTION_LIMIT / (_resolution_scale(params, reservoir) * 2.0)


def solve(
    params: SystemParams, reservoir: SpectralDensity, cfg: SolverConfig, method: str = "auto"
) -> AmplitudeTrajectory:
    """b0 on the grid of cfg by one of the reservoir's ROUTES.

    The Lorentzian "closed" route is the static closed form; a FiniteChain
    evolves without storing the reservoir amplitudes.
    """
    routes = ROUTES.get(type(reservoir), ())
    if method == "auto" and routes:
        method = routes[0]
    if method not in routes:
        raise ModelError(f"{reservoir!r} is solved by one of {routes}, not {method!r}")
    if method == "exact":
        from .chain import evolve_chain  # chain imports this module
        return evolve_chain(params, reservoir, cfg, store_reservoir=False)
    if isinstance(reservoir, WideBand):
        return solve_wideband(params, cfg)
    if method == "ode":
        return solve_lorentzian_ode(params, reservoir, cfg)
    if method == "volterra":
        return solve_volterra(params, reservoir, cfg)
    if not params.static:
        raise ModelError("the closed-form method covers the static Hamiltonian only")
    times = _grid(cfg)
    b0 = b0_lorentzian_static(params, reservoir.lam, times)
    exact = SolverConfig(cfg.dt, cfg.t_end, tolerance=1.0e-12)
    return AmplitudeTrajectory(times, b0, None, params, reservoir, exact, LORENTZIAN_CLOSED)


def solve_volterra(
    params: SystemParams, sd: SpectralDensity, cfg: SolverConfig
) -> AmplitudeTrajectory:
    """Integrate the memory-integral equation for a finite-band reservoir."""
    if isinstance(sd, (WideBand, FiniteChain)):
        raise ValueError("solve_volterra needs a Lorentzian or Semicircle reservoir")
    _check_resolution(cfg, params, sd)

    times = _grid(cfg)
    n = times.size - 1
    h = times[1] - times[0]  # signed
    dt = abs(h)

    kern = sd.kernel(dt * np.arange(n + 1))  # kernel is even, |tau| grid suffices
    cutoff = sd.kernel_cutoff(KERNEL_TRUNCATION)
    jcut = n if cutoff is None else min(n, int(math.ceil(cutoff / dt)))

    w = params.w_at(times)
    e0 = params.e0_at(times)

    b = np.zeros(n + 1, dtype=complex)  # zeros: g = w * b below reads every entry
    f = np.empty(n + 1, dtype=complex)  # db0/dt at the nodes
    b[0] = 1.0
    f[0] = -1j * e0[0]
    g = w * b  # weighted history, updated in place
    for k in range(1, n + 1):
        lo = max(0, k - jcut)
        kw = kern[k - lo : 0 : -1]  # K[(k-j) dt] for j = lo .. k-1
        base = np.dot(kw, g[lo:k])
        if lo == 0:
            base -= 0.5 * kw[0] * g[0]  # trapezoid half-weight at t' = 0
        wk = w[k]
        bp = b[k - 1] + h * f[k - 1]
        integral = h * (base + 0.5 * kern[0] * wk * bp)
        fp = -1j * e0[k] * bp - wk * integral
        b[k] = b[k - 1] + 0.5 * h * (f[k - 1] + fp)
        integral += 0.5 * h * kern[0] * wk * (b[k] - bp)
        f[k] = -1j * e0[k] * b[k] - wk * integral
        g[k] = wk * b[k]
        if abs(b[k]) > DIVERGENCE_LIMIT:
            raise SolverError(f"|b0| exceeded {DIVERGENCE_LIMIT} at t = {times[k]:.4g}")

    return AmplitudeTrajectory(times, b, None, params, sd, cfg, VOLTERRA_PC)


def solve_lorentzian_ode(
    params: SystemParams, sd: Lorentzian, cfg: SolverConfig
) -> AmplitudeTrajectory:
    """Integrate the second-order Lorentzian-reservoir ODE by fixed-step RK4."""
    _check_resolution(cfg, params, sd)

    times = _grid(cfg)
    n = times.size - 1
    h = times[1] - times[0]
    s = 1.0 if h > 0 else -1.0  # sgn(t), constant on this side of zero
    lam, g = sd.lam, sd.gamma

    # every RK4 stage time in time order: nodes at even, half-nodes at odd positions
    stages = np.empty(2 * n + 1)
    stages[0::2] = times
    stages[1::2] = times[:-1] + 0.5 * h
    wv = params.w_at(stages)
    low = np.flatnonzero(wv < 1.0e-6)
    if low.size:
        # the w'/w coefficient degenerates; the reduction needs w > 0
        i = low[0]
        raise SolverError(f"barrier profile w(t) reached {wv[i]:.3g} at t = {stages[i]:.4g}")
    wdw = params.w_rate(stages) / wv
    e0v = params.e0_at(stages)
    # y' = [[0, 1], [a, bc]] y for y = (b0, b0'): a and bc are -i times the ODE's brackets
    bc = -1j * (e0v - 1j * s * lam + 1j * wdw)
    a = -1j * (params.e0_rate(stages) + (s * lam - wdw) * e0v - 0.5j * lam * g * wv * wv)

    b = np.empty(n + 1, dtype=complex)
    bdot = np.empty(n + 1, dtype=complex)
    y0, y1 = 1.0 + 0.0j, -1j * float(e0v[0])
    b[0], bdot[0] = y0, y1
    for lo in range(0, n, _RK4_CHUNK):  # chunks bound the memory of the step matrices
        hi = min(lo + _RK4_CHUNK, n)
        prop = _rk4_propagators(a[2 * lo : 2 * hi + 1], bc[2 * lo : 2 * hi + 1], h)
        for k, (p11, p12, p21, p22) in enumerate(zip(*(p.tolist() for p in prop)), lo + 1):
            y0, y1 = p11 * y0 + p12 * y1, p21 * y0 + p22 * y1
            b[k], bdot[k] = y0, y1
            if abs(y0) > DIVERGENCE_LIMIT:
                raise SolverError(f"|b0| exceeded {DIVERGENCE_LIMIT} at t = {times[k]:.4g}")

    return AmplitudeTrajectory(times, b, bdot, params, sd, cfg, LORENTZIAN_ODE)


def _rk4_propagators(a: np.ndarray, b: np.ndarray, h: float) -> tuple:
    """Entries (p11, p12, p21, p22) of the RK4 step matrices, y_{k+1} = P_k y_k.

    The system is y' = [[0, 1], [a(t), b(t)]] y, with a and b sampled on the
    stage times (nodes at even, half-nodes at odd positions). Each entry is
    a 1-D array over the steps.
    """
    a0, b0 = a[0:-1:2], b[0:-1:2]
    ah, bh = a[1::2], b[1::2]
    a1, b1 = a[2::2], b[2::2]

    def shifted(c, m):  # I + c M
        return (1.0 + c * m[0], c * m[1], c * m[2], 1.0 + c * m[3])

    def times_a(ak, bk, m):  # [[0, 1], [ak, bk]] M
        return (m[2], m[3], ak * m[0] + bk * m[2], ak * m[1] + bk * m[3])

    k1 = (0.0, 1.0, a0, b0)
    k2 = times_a(ah, bh, shifted(0.5 * h, k1))
    k3 = times_a(ah, bh, shifted(0.5 * h, k2))
    k4 = times_a(a1, b1, shifted(h, k3))
    return shifted(h / 6.0, [p + 2.0 * q + 2.0 * r + t for p, q, r, t in zip(k1, k2, k3, k4)])


def solve_wideband(params: SystemParams, cfg: SolverConfig) -> AmplitudeTrajectory:
    """Evaluate the wide-band amplitude b0 = exp(-i Phi(t)) on the grid."""
    _check_resolution(cfg, params, WideBand())
    times = _grid(cfg)
    phase = wideband_phase(params, times)
    cfg_exact = SolverConfig(cfg.dt, cfg.t_end, min(cfg.tolerance, 1.0e-12))
    b = np.exp(-1j * phase)
    return AmplitudeTrajectory(times, b, None, params, WideBand(params.gamma), cfg_exact, WIDEBAND_CLOSED)


def combine_signed(neg: AmplitudeTrajectory, pos: AmplitudeTrajectory) -> AmplitudeTrajectory:
    """Join a negative-side and a positive-side run into one ascending grid."""
    if neg.times[-1] > 0 or pos.times[-1] < 0:
        raise MismatchError("expected one negative-side and one positive-side trajectory")
    if neg.params != pos.params or neg.sd != pos.sd or neg.method != pos.method:
        raise MismatchError("cannot join trajectories with different physics")

    def join(a, b):
        return None if a is None or b is None else np.concatenate([a[::-1][:-1], b])

    drift = None
    if neg.norm_drift is not None and pos.norm_drift is not None:
        drift = max(neg.norm_drift, pos.norm_drift)
    return AmplitudeTrajectory(
        join(neg.times, pos.times), join(neg.b0, pos.b0), join(neg.b0_dot, pos.b0_dot),
        pos.params, pos.sd, pos.cfg, pos.method, join(neg.br, pos.br), drift,
    )


def convergence_order(
    coarse: AmplitudeTrajectory,
    fine: AmplitudeTrajectory,
    reference,
) -> float:
    """Richardson estimate of the convergence order from a (dt, dt/2) run pair.

    reference supplies the third datum the estimate needs: either a further
    halved trajectory (dt/4), giving log2 of the ratio of successive
    differences, or a callable t -> b0 evaluated as the exact solution,
    giving log2 of the ratio of true errors. Identical runs degenerate to
    zero differences and are reported as +inf.
    """
    if not coarse.same_physics(fine):
        raise MismatchError("run pair differs in physics metadata")
    if not math.isclose(fine.cfg.dt, 0.5 * coarse.cfg.dt, rel_tol=1.0e-9):
        raise MismatchError("fine run must halve the coarse step")

    if callable(reference):
        e1 = float(np.max(np.abs(coarse.b0 - reference(coarse.times))))
        e2 = float(np.max(np.abs(fine.b0 - reference(fine.times))))
    else:
        if not fine.same_physics(reference):
            raise MismatchError("reference run differs in physics metadata")
        if not math.isclose(reference.cfg.dt, 0.5 * fine.cfg.dt, rel_tol=1.0e-9):
            raise MismatchError("reference run must halve the fine step")
        e1 = float(np.max(np.abs(coarse.b0 - fine.b0[::2])))
        e2 = float(np.max(np.abs(fine.b0 - reference.b0[::2])))
    if e2 == 0.0:
        return math.inf
    return math.log2(e1 / e2)
