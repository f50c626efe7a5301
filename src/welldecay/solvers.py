"""Time-domain solvers for the survival amplitude b0(t) on signed time grids.

solve(params, reservoir, cfg, method) is the one way in: it picks the route
from the reservoir (see ROUTES; "auto" takes the first), and every route
starts from b0(0) = 1:

* "volterra" (solve_volterra): the memory-integral equation

      db0/dt = -i E0(t) b0(t) - w(t) int_0^t K(t - t') w(t') b0(t') dt'

  for any finite-bandwidth kernel K, discretized by trapezoidal product
  integration on a uniform grid with one predictor-corrector (Heun) pass
  per step; second-order accurate. The integral keeps its signed
  orientation, so integrating toward negative t needs no special casing.
  Exponentially decaying kernels are truncated after jcut steps, below
  1e-18 of their peak. The Heun step is linear in the state (b0, db0/dt)
  and in its history sum sum_{j<k} K((k-j) dt) w_j b_j, so the solve is one
  call of _memory_recurrence, which advances a linear recurrence with a
  Toeplitz memory a sub-block of S = 16 steps at a time: earlier blocks of
  B = 256 steps enter by a uniformly partitioned FFT convolution (Hairer,
  Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6:532, 1985), earlier
  sub-blocks of the block by a dense Toeplitz product, and the sub-block's
  own steps through one transfer matrix built from the node values (once
  for a static run). The work is O(n (log B + B + S^2 + jcut/B)) and the
  memory O(n). The driven finite chain (chain.py) runs on the same helper.

* "ode" (solve_lorentzian_ode): the equivalent second-order ODE for the
  Lorentzian kernel,

      i b0'' = [E0(t) - i s L + i w'/w] b0'
               + [E0'(t) + (s L - w'/w) E0(t) - i L w^2 / 2] b0,

  with s = sgn(t) constant on each side of zero, integrated by the
  classical fixed-step Runge-Kutta scheme (fourth order). The ODE is
  linear, so each step is a 2x2 matrix built from the coefficients on the
  step's node and half-node times. The second initial condition is
  b0'(0) = -i E0(0): the memory integral vanishes at t = 0.

* "closed": closedform.b0_markovian_driven for the wide band (solve_wideband,
  either drive or both) and closedform.b0_lorentzian_static for a static
  Lorentzian, evaluated on the grid. Both obey the resolution rule and carry
  a tolerance of at most 1e-12.

* "exact": chain.evolve_chain for a FiniteChain, which also returns the
  reservoir amplitudes at the last sample.

Every route reads E0(t) and w(t) from its SystemParams.

Grids always contain t = 0 as a node and satisfy the resolution rule
dt * max(1, band, |E0| + u, omega) <= 0.05, 1 being the level width Gamma
(the unit) and the band 0 for the wide band, L, W, or W + |E0| + u for the
finite chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closedform import b0_lorentzian_static, b0_markovian_driven
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
_BLOCK = 256  # memory history block: earlier blocks enter by FFT
_SUB = 16  # sub-block: earlier ones in the block by a dense product; divides _BLOCK
_CHUNK_BLOCKS = 8  # blocks whose transfer matrices are built at once


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

    br holds the N reservoir amplitudes at the last sample and norm_drift
    the largest |<psi|psi> - 1| seen, for routes that evolve the reservoir
    exactly; both stay None elsewhere.
    """

    times: np.ndarray
    b0: np.ndarray
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
        if not peak <= bound:  # NaN fails too
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
    steps = abs(cfg.t_end) / cfg.dt
    if not steps < 2.0**60:  # inf too: no float64 array has that many entries
        raise ModelError(f"|t_end| / dt = {steps:.3g} steps, more than a time grid can hold")
    n = max(1, int(round(steps)))
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
    scale = max(1.0, abs(params.e0) + params.u, _band(params, reservoir))
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


def routes_for(reservoir: SpectralDensity) -> tuple:
    """The ROUTES of the reservoir's class. A subclass of a listed class keeps the
    routes of its nearest listed base that call the instance's own kernel or
    couplings, "volterra" and "exact"; "ode" and "closed" read only lam."""
    cls = type(reservoir)
    if cls in ROUTES:
        return ROUTES[cls]
    base = next((ROUTES[c] for c in cls.__mro__ if c in ROUTES), ())
    return tuple(r for r in base if r in ("volterra", "exact"))


def solve(
    params: SystemParams, reservoir: SpectralDensity, cfg: SolverConfig, method: str = "auto"
) -> AmplitudeTrajectory:
    """b0 on the grid of cfg by one of the reservoir's ROUTES.

    The Lorentzian "closed" route is the static closed form; a FiniteChain
    evolves exactly and carries its reservoir amplitudes at cfg.t_end in br,
    which chain.lineshape_exact reads.
    """
    routes = routes_for(reservoir)
    if method == "auto" and routes:
        method = routes[0]
    if method not in routes:
        raise ModelError(f"{reservoir!r} is solved by one of {routes}, not {method!r}")
    if method == "exact":
        from .chain import evolve_chain  # chain imports this module
        return evolve_chain(params, reservoir, cfg)
    if isinstance(reservoir, WideBand):
        return solve_wideband(params, cfg)
    if method == "ode":
        return solve_lorentzian_ode(params, reservoir, cfg)
    if method == "volterra":
        return solve_volterra(params, reservoir, cfg)
    if not params.static:
        raise ModelError("the closed-form method covers the static Hamiltonian only")
    return _closed_form(
        params, reservoir, cfg, lambda t: b0_lorentzian_static(params, reservoir.lam, t),
        LORENTZIAN_CLOSED,
    )


def _closed_form(params, reservoir, cfg, amplitude, method) -> AmplitudeTrajectory:
    """A closed-form amplitude on the grid of cfg: the resolution rule holds as for
    the integrators, and the tolerance is at most 1e-12, the closed forms' own error."""
    _check_resolution(cfg, params, reservoir)
    times = _grid(cfg)
    exact = SolverConfig(cfg.dt, cfg.t_end, min(cfg.tolerance, 1.0e-12))
    return AmplitudeTrajectory(times, amplitude(times), params, reservoir, exact, method)


def solve_volterra(
    params: SystemParams, sd: SpectralDensity, cfg: SolverConfig
) -> AmplitudeTrajectory:
    """Integrate the memory-integral equation for a finite-band reservoir."""
    if isinstance(sd, (WideBand, FiniteChain)):
        raise ModelError("solve_volterra needs a Lorentzian or Semicircle reservoir")
    _check_resolution(cfg, params, sd)

    times = _grid(cfg)
    n = times.size - 1
    h = float(times[1] - times[0])  # signed
    dt = abs(h)
    cutoff = sd.kernel_cutoff(KERNEL_TRUNCATION)
    jcut = n if cutoff is None else min(n, int(math.ceil(cutoff / dt)))

    # K[m] = K(m dt) up to the truncation; the kernel is even, the |tau| grid suffices
    kern = sd.kernel(dt, jcut)
    k0 = float(kern[0])
    hh, c0, c1 = 0.5 * h, 0.5 * k0, 0.5 * h * k0  # Heun and trapezoid weights at K(0)

    def heun(x, base, v):  # step k reaches node k + 1, where w = v[0] and -i E0 = v[1]
        (bk, fk), (wk, ie) = x, v
        bp = bk + h * fk
        integral = h * (base + c0 * wk * bp)
        fp = ie * bp - wk * integral
        bnew = bk + hh * (fk + fp)
        integral = integral + c1 * wk * (bnew - bp)
        return (bnew, ie * bnew - wk * integral), wk * bnew

    w = params.w_at(times)
    e0 = params.e0_at(times)
    # the trapezoid gives node 0 half weight: g_0 = w_0 b_0 / 2 enters every step as forcing
    forcing = np.zeros(n)
    forcing[:jcut] = 0.5 * float(w[0]) * kern[1:]
    b = np.empty(n + 1, dtype=complex)
    b[0] = 1.0
    b[1:] = _memory_recurrence(
        heun, (w[1:], -1j * e0[1:]), (1.0, -1j * float(e0[0])), kern, forcing,
        DIVERGENCE_LIMIT, times[1:],
    )[0]

    return AmplitudeTrajectory(times, b, params, sd, cfg, VOLTERRA_PC)


def _memory_recurrence(step, values, x0, kern, forcing=None, limit=None, ends=None):
    """Run the linear recurrence x_{k+1}, g_k = step(x_k, base_k, v_k), k < n, with
    the Toeplitz memory base_k = forcing_k + sum_{m<k} kern[k - m] g_m.

    step must be linear in (x, base): it is called on coefficient arrays
    to build each sub-block's transfer matrix. values holds the n node
    values v_k, one array per value; x0 is the initial state and kern the
    kernel on lags 0 .. jcut (kern[0] is not used, zero beyond jcut);
    forcing defaults to zero.
    Returns y (the first state component of x_1 .. x_n) and g. With a
    limit, |y_k| > limit raises SolverError naming ends[k].

    The history sum takes three routes (Hairer, Lubich & Schlichte, SIAM J.
    Sci. Stat. Comput. 6:532, 1985): earlier blocks of _BLOCK steps by a
    uniformly partitioned FFT convolution over the spectra of the blocks in
    the kernel's reach (the only ones kept), earlier sub-blocks of _SUB steps
    in the block by a dense Toeplitz product, and the sub-block's own steps
    through its transfer matrix, which maps the incoming state and the
    sub-block's history sums to all of its outputs at once. Transfer
    matrices are built _CHUNK_BLOCKS blocks at a time, or once when no node
    value varies.
    """
    B, S, dim = _BLOCK, _SUB, len(x0)
    n = values[0].size
    nblocks = -(-n // B)
    jcut = kern.size - 1
    ndist = min(jcut // B + 1, nblocks - 1)  # kernel partitions [jB, (j+2)B) in reach
    kc = np.zeros((max(ndist, 1) + 1) * B, dtype=kern.dtype)  # zero at lag 0 and beyond jcut
    nk = min(kern.size, kc.size)
    kc[1:nk] = kern[1:nk]
    kspec = np.fft.fft(sliding_window_view(kc, 2 * B)[::B][:ndist], axis=1)
    near = sliding_window_view(kc[1 : B + S], B)[:, ::-1].astype(complex)  # K[B + r - c]

    # the steps run in whole blocks; padded steps repeat the last node values
    size = nblocks * B

    def padded(v, lo, hi):  # v[lo:hi] padded to whole sub-blocks, as (sub-blocks, S)
        return np.pad(v[lo:hi], (0, max(0, hi - n)), mode="edge").reshape(-1, S)

    forcing = np.zeros(size) if forcing is None else np.pad(forcing, (0, size - n))
    if all(np.all(v == v[0]) for v in values):
        one = _transfers(step, [padded(v, 0, S) for v in values], kc[:S], dim)
    else:
        one = None
    g = np.zeros(size, dtype=complex)
    y = np.empty(size, dtype=complex)
    inp = np.empty(dim + S, dtype=complex)  # incoming state, then the sub-block's history sums
    inp[:dim] = x0
    z = np.empty(2 * S + dim, dtype=complex)  # the sub-block's g, y and outgoing state
    # FFTs of the zero-padded blocks base, base + 1, .. of g: the ndist in the kernel's reach,
    # in up to twice as many rows, moved to the front when the rows run out
    cap = min(nblocks, 2 * ndist)
    specs = np.empty((max(cap, 1), 2 * B), dtype=complex)
    base = 0
    block = np.zeros(2 * B, dtype=complex)
    span = _CHUNK_BLOCKS * B
    for clo in range(0, size, span):
        chi = min(clo + span, size)
        if one is None:
            mats = _transfers(step, [padded(v, clo, chi) for v in values], kc[:S], dim)
        else:
            mats = np.broadcast_to(one, ((chi - clo) // S,) + one.shape[1:])
        for lo in range(clo, chi, B):
            i = lo // B
            far = forcing[lo : lo + B]
            if i:
                if i - 1 - base == cap:
                    base = i - ndist
                    specs[: ndist - 1] = specs[cap - ndist + 1 :]
                block[:B] = g[lo - B : lo]
                specs[i - 1 - base] = np.fft.fft(block)
                m = min(ndist, i)  # partition j meets the block j + 1 back
                spec = np.einsum("jk,jk->k", specs[i - base - m : i - base], kspec[m - 1 :: -1])
                far = far + np.fft.ifft(spec)[B:]
            for c in range(0, B, S):
                s0 = lo + c
                inp[dim:] = far[c : c + S] + near[:, B - c :] @ g[lo:s0]
                np.matmul(mats[(s0 - clo) // S], inp, out=z)
                g[s0 : s0 + S] = z[:S]
                y[s0 : s0 + S] = z[S : 2 * S]
                inp[:dim] = z[2 * S :]
            if limit is not None:
                bad = np.flatnonzero(np.abs(y[lo : min(lo + B, n)]) > limit)
                if bad.size:
                    raise SolverError(f"|b0| exceeded {limit} at t = {ends[lo + bad[0]]:.4g}")
    return y[:n], g[:n]


def _transfers(step, values, kr, dim: int) -> np.ndarray:
    """Transfer matrices of m sub-blocks, shape (m, 2 _SUB + dim, dim + _SUB).

    values holds (m, _SUB) arrays of node values and kr the kernel on lags
    0 .. _SUB - 1. Row r < _SUB of each matrix gives g of step r, row
    _SUB + r the first state component after it, and the last dim rows the
    outgoing state; the columns take the incoming state, then the
    sub-block's history sums.
    """
    S = _SUB
    m, cols = values[0].shape[0], dim + _SUB
    eye = np.eye(cols, dtype=complex)
    x = tuple(np.broadcast_to(eye[j], (m, cols)) for j in range(dim))
    rows = np.empty((2 * S + dim, m, cols), dtype=complex)  # g rows, then y rows, then x
    for r in range(S):
        base = eye[dim + r] + (kr[r:0:-1] @ rows[:r].reshape(r, m * cols)).reshape(m, cols)
        x, rows[r] = step(x, base, tuple(v[:, r, None] for v in values))
        rows[S + r] = x[0]
    rows[2 * S :] = x
    return rows.transpose(1, 0, 2)


def solve_lorentzian_ode(
    params: SystemParams, sd: Lorentzian, cfg: SolverConfig
) -> AmplitudeTrajectory:
    """Integrate the second-order Lorentzian-reservoir ODE by fixed-step RK4."""
    _check_resolution(cfg, params, sd)

    times = _grid(cfg)
    n = times.size - 1
    h = times[1] - times[0]
    s = 1.0 if h > 0 else -1.0  # sgn(t), constant on this side of zero
    lam = sd.lam

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
    a = -1j * (params.e0_rate(stages) + (s * lam - wdw) * e0v - 0.5j * lam * wv * wv)

    b = np.empty(n + 1, dtype=complex)
    y0, y1 = 1.0 + 0.0j, -1j * float(e0v[0])
    b[0] = y0
    for lo in range(0, n, _RK4_CHUNK):  # chunks bound the memory of the step matrices
        hi = min(lo + _RK4_CHUNK, n)
        prop = _rk4_propagators(a[2 * lo : 2 * hi + 1], bc[2 * lo : 2 * hi + 1], h)
        for k, (p11, p12, p21, p22) in enumerate(zip(*(p.tolist() for p in prop)), lo + 1):
            y0, y1 = p11 * y0 + p12 * y1, p21 * y0 + p22 * y1
            b[k] = y0
            if abs(y0) > DIVERGENCE_LIMIT:
                raise SolverError(f"|b0| exceeded {DIVERGENCE_LIMIT} at t = {times[k]:.4g}")

    return AmplitudeTrajectory(times, b, params, sd, cfg, LORENTZIAN_ODE)


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
    """The wide-band amplitude closedform.b0_markovian_driven on the grid."""
    return _closed_form(
        params, WideBand(), cfg, lambda t: b0_markovian_driven(params, t), WIDEBAND_CLOSED
    )


def combine_signed(neg: AmplitudeTrajectory, pos: AmplitudeTrajectory) -> AmplitudeTrajectory:
    """Join a negative- and a positive-side run into one ascending grid; br is pos's."""
    if neg.times[-1] > 0 or pos.times[-1] < 0:
        raise MismatchError("expected one negative-side and one positive-side trajectory")
    if neg.params != pos.params or neg.sd != pos.sd or neg.method != pos.method:
        raise MismatchError("cannot join trajectories with different physics")

    def join(a, b):
        return np.concatenate([a[::-1][:-1], b])

    drift = None
    if neg.norm_drift is not None and pos.norm_drift is not None:
        drift = max(neg.norm_drift, pos.norm_drift)
    return AmplitudeTrajectory(
        join(neg.times, pos.times), join(neg.b0, pos.b0),
        pos.params, pos.sd, pos.cfg, pos.method, pos.br, drift,
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
