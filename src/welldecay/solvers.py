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
  The kernel comes as its R modes, K(j dt) = sum_r a_r e^{-i theta_r j}
  (model.py). The Heun step is linear in the state (b0, db0/dt) and in its
  history sum sum_{j<k} K((k-j) dt) w_j b_j, so the solve is one call of
  _memory_recurrence, which advances a linear recurrence with a Toeplitz
  memory a block of B steps at a time; earlier blocks enter through the
  modes' amplitudes, carried across the block ends (Lubich & Schaedle,
  SIAM J. Sci. Comput. 24:161, 2002). A driven run takes B = 256 and steps
  through sub-blocks of S = 16 steps: earlier sub-blocks of the block enter
  by a dense Toeplitz product and the sub-block's own steps through a
  transfer matrix built from its node values, at O(S^2) per step. A static
  run takes B ~ sqrt(32 n), between 32 and 1024, halved while its B x R
  phase table exceeds 2^16 entries but not below 256: its recurrence
  within a block is time-invariant, so each block is one causal FFT
  product of its history sums with the block's impulse responses, computed
  once, plus their responses to its incoming state. The work is O(n (log B
  + R)), plus O(n S) when driven. The memory is b0 plus fixed blocks,
  O(n + B R): one row of carried modes, one block of the recurrence, and
  node values as constants when static, else evaluated a chunk of blocks
  at a time. The driven finite chain (chain.py) runs on the same helper,
  its kernel given as its N reservoir modes.

* "ode" (solve_lorentzian_ode): the equivalent second-order ODE for the
  Lorentzian kernel,

      i b0'' = [E0(t) - i s L + i w'/w] b0'
               + [E0'(t) + (s L - w'/w) E0(t) - i L w^2 / 2] b0,

  with s = sgn(t) constant on each side of zero, integrated by the
  classical fixed-step Runge-Kutta scheme (fourth order). The ODE is
  linear, so each step is a 2x2 matrix P_k built from the coefficients on
  the step's node and half-node times, and the steps run as a blocked
  prefix product: in rows of 32 steps, log2 32 = 5 doubling passes form
  every running product P_j .. P_0 of a row, one short loop carries the
  state across the row ends, and b0 at every step is one vectorised
  product. The second initial condition is
  b0'(0) = -i E0(0): the memory integral vanishes at t = 0.

* "closed": closedform.b0_markovian_driven for the wide band (solve_wideband,
  either drive or both) and closedform.b0_lorentzian_static for a static
  Lorentzian, evaluated on the grid. Both obey the resolution rule and carry
  a tolerance of at most 1e-12.

* "exact": chain.evolve_chain for a FiniteChain, which also returns the
  reservoir amplitudes at the last sample.

Every route reads E0(t) and w(t) from its SystemParams.

A cfg with t_start != 0 spans both sides of t = 0: solve runs the route once
per side from t = 0 and joins them on the grid t_start -> 0 -> t_end; the
routes themselves run one side and refuse such a cfg.

Every route but "ode", which holds its coefficients on every node and
half-node, keeps its output plus fixed-size working blocks, so the step
count is the one size admitted: _step_count refuses more than STEP_BUDGET
steps, 2 GiB of times, b0 and P0.

Grids always contain t = 0 as a node and satisfy the resolution rule
dt * max(1, band, |E0| + u, omega) <= 0.05, 1 being the level width Gamma
(the unit) and the band 0 for the wide band, L, W, or W + |E0| + u for the
finite chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
STEP_BUDGET = 1 << 26  # steps a run may take: 2 GiB of output at 32 bytes (t, b0, P0) a step
DIVERGENCE_LIMIT = 2.0
_RK4_CHUNK = 1024  # RK4 steps whose step matrices are held at once
_RK4_ROW = 32  # RK4 steps per row of running products; a power of 2 dividing _RK4_CHUNK
_BLOCK = 256  # memory history block of a driven run; _TABLE lowers a static one no further
_TABLE = 1 << 16  # entries of a lags x modes phase table, kept to by fewer lags per block
_SUB = 16  # sub-block of a run whose node values vary: one transfer matrix each
_CHUNK_BLOCKS = 8  # blocks whose transfer matrices are built at once


class SolverError(RuntimeError):
    """Numerical failure during a solve (divergence, singular drive...)."""


class ResolutionError(ValueError):
    """Step size too coarse for the fastest scale in the problem."""


@dataclass(frozen=True)
class SolverConfig:
    """Step size, signed end time, the error budget used for sanity bounds, and
    the start time: 0, or on the other side of t = 0 from t_end."""

    dt: float
    t_end: float
    tolerance: float = 1.0e-6
    t_start: float = 0.0

    def __post_init__(self):
        _check_finite(self, "dt", "t_end", "tolerance", "t_start")
        if not self.dt > 0.0:
            raise ModelError(f"SolverConfig.dt must be positive and finite, got {self.dt}")
        if self.t_end == 0.0:
            raise ModelError(f"SolverConfig.t_end must be nonzero and finite, got {self.t_end}")
        if self.t_start * self.t_end > 0.0:
            raise ModelError(f"SolverConfig.t_start must be 0 or on the other side of t = 0 "
                             f"from t_end = {self.t_end}, got {self.t_start}")
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
        gap = self.times - t
        i = int(np.argmin(np.abs(gap, out=gap)))
        if not math.isclose(self.times[i], t, rel_tol=0.0, abs_tol=1.0e-9 * max(1.0, abs(t))):
            raise KeyError(f"t = {t} is not a grid node")
        return i


def _step_count(t_end: float, dt: float) -> float:
    """|t_end| / dt, unrounded; a count past STEP_BUDGET raises ModelError."""
    steps = abs(t_end) / dt
    if not steps <= STEP_BUDGET:  # inf and NaN too
        raise ModelError(f"|t_end| / dt = {steps:.3g} steps, more than the budget of "
                         f"{STEP_BUDGET} steps (2 GiB of times, b0 and P0)")
    return steps


def _grid(cfg: SolverConfig) -> np.ndarray:
    if cfg.t_start != 0.0:
        raise ModelError(f"a route runs from t = 0, not t_start = {cfg.t_start}; call solve")
    n = max(1, int(round(_step_count(cfg.t_end, cfg.dt))))
    return math.copysign(cfg.dt, cfg.t_end) * np.arange(n + 1)


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
    which chain.lineshape_exact reads. A nonzero cfg.t_start runs the route
    on each side of t = 0 and joins them on the grid t_start -> 0 -> t_end.
    """
    if cfg.t_start != 0.0:  # br from the t_end side, the larger norm_drift
        end = solve(params, reservoir, replace(cfg, t_start=0.0), method)
        start = solve(params, reservoir, replace(cfg, t_end=cfg.t_start, t_start=0.0), method)
        times, b0 = (np.concatenate([a[::-1][:-1], b])
                     for a, b in ((start.times, end.times), (start.b0, end.b0)))
        drift = None if end.norm_drift is None else max(start.norm_drift, end.norm_drift)
        cfg = replace(cfg, tolerance=end.cfg.tolerance)  # as tightened by a closed form
        return AmplitudeTrajectory(times, b0, params, reservoir, cfg, end.method, end.br, drift)
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
    exact = replace(cfg, tolerance=min(cfg.tolerance, 1.0e-12))
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

    modes = _kernel_modes(sd, abs(h), n)  # K is even, so |tau| suffices
    k0 = np.sum(modes[0])
    hh, c0, c1 = 0.5 * h, 0.5 * k0, 0.5 * h * k0  # Heun and trapezoid weights at K(0)

    def heun(x, base, v):  # step k reaches node k + 1, where w = v[0] and -i E0 = v[1]
        (bk, fk), (wk, ie) = x, v
        bp = bk + h * fk
        integral = h * (base + c0 * wk * bp)
        fp = ie * bp - wk * integral
        bnew = bk + hh * (fk + fp)
        integral = integral + c1 * wk * (bnew - bp)
        return (bnew, ie * bnew - wk * integral), wk * bnew

    w0, ie0 = float(params.w_at(times[0])), -1j * float(params.e0_at(times[0]))
    if params.static:
        values = (w0, ie0)
    else:
        def values(lo, hi):  # steps lo .. hi - 1, which reach nodes lo + 1 .. hi
            t = times[lo + 1 : hi + 1]
            return params.w_at(t), -1j * params.e0_at(t)

    # the trapezoid gives node 0 half weight: g_{-1} = w_0 b_0 / 2 enters every step's memory
    b = _memory_recurrence(heun, values, n, (1.0, ie0), modes, 0.5 * w0, times[1:])[0]

    return AmplitudeTrajectory(times, b, params, sd, cfg, VOLTERRA_PC)


def _kernel_modes(sd: SpectralDensity, dt: float, n: int) -> tuple:
    """sd.kernel(dt, n), checked to be modes (a, theta): K(j dt) = sum_r a_r e^{-i theta_r j}."""
    modes = sd.kernel(dt, n)
    try:
        a, theta = (np.asarray(part) for part in modes)
    except (TypeError, ValueError):  # not a pair
        a = theta = None
    if a is None or a.ndim != 1 or theta.shape != a.shape:
        raise ModelError(f"{type(sd).__name__}.kernel(dt, n) must return modes (a, theta), two "
                         f"1-D arrays of one length with K(j dt) = sum_r a_r e^{{-i theta_r j}}")
    return a, theta


def _check_divergence(b: np.ndarray, times: np.ndarray) -> None:
    """Raise SolverError at the first |b[k]| > DIVERGENCE_LIMIT or NaN, naming times[k]."""
    bad = np.flatnonzero(~(np.abs(b) <= DIVERGENCE_LIMIT))
    if bad.size:
        raise SolverError(f"|b0| exceeded {DIVERGENCE_LIMIT} at t = {times[bad[0]]:.4g}")


def _memory_recurrence(step, values, n, x0, modes, m0=0.0, ends=None):
    """Run the linear recurrence x_{k+1}, g_k = step(x_k, base_k, v_k), k < n, with
    the memory base_k = sum_{-1 <= m < k} K_{k-m} g_m of the kernel given by its
    modes (a, theta), K_j = sum_r a_r e^{-i theta_r j}, and g_{-1} = m0.

    step must be linear in (x, base) and elementwise: it is called on
    coefficient arrays. values gives the node values v_k: a tuple of
    constants when none varies, else a function values(lo, hi) that returns
    those of steps lo .. hi - 1, one array per value, called once per chunk
    of _CHUNK_BLOCKS blocks in step order; no n-long array of them is formed.
    x0 is the initial state. Returns y (the first state component of x_0 ..
    x_n), the step counts k at every block end (the last n), sum_r a_r
    |M_r(k)|^2 there and M(n), for the mode amplitudes M_r(k) = sum_{-1 <=
    m < k} e^{-i theta_r (k - m)} g_m. Given the step end times ends,
    _check_divergence reads y after each block.

    The steps run in blocks of B steps. Earlier blocks enter a block's
    history sums as its far field, through the carried amplitudes M, O(R)
    state for R modes (Lubich & Schaedle, SIAM J. Sci. Comput. 24:161,
    2002): a block starting at step l has the far field sum_r e^{-i theta_r
    t} a_r M_r(l) at its step l + t, and M_r(l + B) = e^{-i theta_r B}
    M_r(l) + sum_{t<B} e^{-i theta_r (B - t)} g_{l+t}, both products with
    the table e^{-i theta_r t}, t < B, and the block phase formed directly.
    So the run keeps one block of g and one row of M beside y.

    When node values vary, B is _BLOCK and each sub-block of _SUB steps
    builds its own transfer matrix (_transfers, one chunk at a time);
    earlier sub-blocks of the block enter by a dense Toeplitz product. When
    none varies, B is _static_block(n), halved while the phase table
    exceeds _TABLE entries but not below _BLOCK; a block is the causal FFT
    product of length 2 B of its history sums with the impulse responses of
    _block_responses, plus their responses to its incoming state (for g
    alone when its responses equal y's: y is then g); a block past the
    limit runs again by sub-blocks, free of FFT rounding.
    """
    static = not callable(values)
    S, dim = _SUB, len(x0)
    amp, theta = modes
    B = _within_table(_static_block(n) if static else _BLOCK, theta.size, _BLOCK)
    nblocks = -(-n // B)
    turn = np.exp(-1j * np.outer(np.arange(B), theta))  # e^{-i theta_r t}, t < B
    kc = np.zeros(B + S, dtype=complex)  # the lags below B, all a block reaches
    kc[1:B] = turn[1:] @ amp
    if static:  # first, so that its temporaries do not add to the run's arrays
        resp = _block_responses(step, values, kc, dim, B)

    # the steps run in whole blocks; padded steps repeat the last node values
    size = nblocks * B

    def chunk(lo, hi):  # node values of steps lo .. hi - 1 as (sub-blocks, S), padded
        if static:
            return [np.full(((hi - lo) // S, S), v) for v in values]
        return [np.pad(v, (0, hi - lo - v.size), mode="edge").reshape(-1, S)
                for v in values(lo, min(hi, n))]

    rows = 1 if static and np.array_equal(resp[0], resp[1]) else 2  # g, then y unless y is g
    x = np.array(x0, dtype=complex)
    y_out = np.zeros(size + 1, dtype=complex)  # x_0, then the steps' y; the caller's b0
    y_out[0] = x[0]
    y = y_out[1:]
    g = np.zeros(B, dtype=complex)  # g of the block, as far back as the far field reads it
    spec = np.empty(2 * B, dtype=complex)  # FFT buffer, reused so that the run allocates less
    carried = turn[1] * m0  # M at the start of the block
    mass = np.empty(nblocks, dtype=np.result_type(amp, 1.0))  # sum_r a_r |M_r|^2 at block ends
    # M at the block ends not yet in mass, summed 8 at a time and the last 9 to 16 at once
    # (or all, when fewer): each sum then rounds as in one product over every block end
    held = np.empty((16, theta.size), dtype=complex)
    summed = 0
    block_phase = np.exp(-1j * B * theta)  # e^{-i theta_r B} formed directly: powers drift

    def carry(i, hi, phase):  # M at step hi from M at the start of block i
        nonlocal carried, summed
        gb = g[: hi - i * B][::-1].copy()  # contiguous: a reversed view takes matmul off BLAS
        carried = phase * carried + turn[1] * (gb @ turn[: gb.size])
        if i - summed == 16:
            mass[summed : summed + 8] = np.abs(held[:8]) ** 2 @ amp
            held[:8] = held[8:]
            summed += 8
        held[i - summed] = carried
        if hi == n:
            mass[summed:] = np.abs(held[: i - summed + 1]) ** 2 @ amp

    def far_field(lo):  # the history sums over g_{-1} and earlier blocks, block lo // B
        if lo:
            carry(lo // B - 1, lo, block_phase)
        return turn @ (amp * carried)

    near = sliding_window_view(kc[1 : B + S], B)[:, ::-1]  # K[B + r - c]
    inp = np.empty(dim + S, dtype=complex)  # incoming state, then the sub-block's history sums
    z = np.empty(2 * S + dim, dtype=complex)  # the sub-block's g, y and outgoing state

    def sub_blocks(mats, lo, far, x):  # block lo // B, S steps per transfer matrix
        inp[:dim] = x
        for c in range(0, B, S):
            inp[dim:] = far[c : c + S] + near[:, B - c :] @ g[:c]
            np.matmul(mats[c // S], inp, out=z)
            g[c : c + S] = z[:S]
            y[lo + c : lo + c + S] = z[S : 2 * S]
            inp[:dim] = z[2 * S :]
        return inp[:dim].copy()

    with np.errstate(over="ignore", invalid="ignore"):  # _check_divergence names a blow-up
        if not static:
            span = _CHUNK_BLOCKS * B
            for clo in range(0, size, span):
                chi = min(clo + span, size)
                mats = _transfers(step, chunk(clo, chi), kc[:S], dim)
                for lo in range(clo, chi, B):
                    x = sub_blocks(mats[(lo - clo) // S :], lo, far_field(lo), x)
                    if ends is not None:
                        _check_divergence(y[lo : min(lo + B, n)], ends[lo : lo + B])
                del mats  # before the next chunk's matrices are built beside them
        else:
            hspec = np.fft.fft(resp[:rows, :, dim], 2 * B)  # g (and y) from a unit history sum
            free = resp[:rows, :, :dim].copy()  # g (and y) from the incoming state
            xfar = resp[1:, ::-1, dim].copy()  # outgoing state from a unit history sum at each step
            xfree = resp[1:, -1, :dim].copy()  # outgoing state from the incoming state
            del resp
            gy = np.empty((rows, 2 * B), dtype=complex)
            for lo in range(0, size, B):
                far = far_field(lo)
                np.multiply(np.fft.fft(far, 2 * B, out=spec), hspec, out=gy)
                np.fft.ifft(gy, out=gy)
                gy[:, :B] += free @ x
                g[:] = gy[0, :B]
                y[lo : lo + B] = gy[-1, :B]  # the g row when y is g
                xo = xfar @ far + xfree @ x
                if ends is not None:
                    try:
                        _check_divergence(y[lo : min(lo + B, n)], ends[lo : lo + B])
                    except SolverError:  # FFT rounding alone may cross the limit: rerun the block
                        mats = np.broadcast_to(_transfers(step, chunk(0, S), kc[:S], dim),
                                               (B // S, 2 * S + dim, dim + S))
                        xo = sub_blocks(mats, lo, far, x)
                        _check_divergence(y[lo : min(lo + B, n)], ends[lo : lo + B])
                x = xo
    carry(nblocks - 1, n, np.exp(-1j * (n - size + B) * theta))  # to n, not over padded steps
    return y_out[: n + 1], np.minimum(B * np.arange(1, nblocks + 1), n), mass, carried


def _within_table(B: int, modes: int, floor: int) -> int:
    """B halved until a B x modes phase table keeps to _TABLE entries, not below floor."""
    while B > floor and B * modes > _TABLE:
        B //= 2
    return B


def _static_block(n: int) -> int:
    """History block of a static run of n steps: the power of two nearest sqrt(32 n)
    (B for n in [B^2 / 64, B^2 / 16)), kept within 32 .. 1024."""
    return min(max(1 << ((n.bit_length() + 5) // 2), 32), 1024)


def _block_responses(step, v, kc, dim: int, B: int) -> np.ndarray:
    """Responses over B steps of a recurrence whose node values v never vary,
    shape (1 + dim, B, dim + 1): g (row 0) and state component c (row 1 + c)
    after each step, from a unit incoming state c (column c < dim) and from
    a unit history sum at the first step (column dim).

    The first _SUB steps run one at a time in extended precision, and the
    responses over 2 L steps follow from those over L by FFT. A doubling
    repeats the earlier rounding error twice, so it grows like B / _SUB;
    the extended precision keeps the static run, which reuses the
    responses in every block, as close to the direct sum as a driven run.
    """
    S = _SUB
    with np.errstate(over="ignore", invalid="ignore"):  # the guard of the run names a blow-up
        resp = np.zeros((1 + dim, S, dim + 1), dtype=np.clongdouble)
        x = tuple(np.eye(dim, dim + 1, dtype=np.clongdouble))
        base = np.eye(1, dim + 1, dim, dtype=np.clongdouble)[0]
        for r in range(S):
            x, resp[0, r] = step(x, base, v)
            resp[1:, r] = x
            base = kc[r + 1 : 0 : -1] @ resp[0, : r + 1]
        resp = resp.astype(complex)
        L = S
        while L < B:
            hist = np.fft.ifft(np.fft.fft(resp[0].T, 2 * L) * np.fft.fft(kc[: 2 * L]))[:, L:]
            spec = np.fft.fft(resp[:, :, dim], 2 * L)[:, None] * np.fft.fft(hist, 2 * L)
            later = np.fft.ifft(spec, out=spec)[:, :, :L].transpose(0, 2, 1)
            resp = np.concatenate([resp, later + resp[:, :, :dim] @ resp[1:, -1]], axis=1)
            L *= 2
        return resp


def _transfers(step, values, kr, dim: int) -> np.ndarray:
    """Transfer matrices of m sub-blocks of S steps, shape (m, 2 S + dim, dim + S).

    values holds (m, S) arrays of node values and kr the kernel on lags
    0 .. S - 1. Row r < S of each matrix gives g of step r, row S + r the
    first state component after it, and the last dim rows the outgoing
    state; the columns take the incoming state, then the sub-block's
    history sums.
    """
    m, S = values[0].shape
    cols = dim + S
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
    b[0] = 1.0
    y = (1.0 + 0.0j, -1j * float(e0v[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught just below
        for lo in range(0, n, _RK4_CHUNK):  # chunks bound the memory of the step matrices
            hi = min(lo + _RK4_CHUNK, n)
            prop = _rk4_propagators(a[2 * lo : 2 * hi + 1], bc[2 * lo : 2 * hi + 1], h)
            out = b[lo + 1 : hi + 1]
            y = _apply_in_turn(prop, y, out)
            _check_divergence(out, times[lo + 1 : hi + 1])

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


def _apply_in_turn(prop: tuple, y: tuple, out: np.ndarray) -> tuple:
    """Run y_{k+1} = P_k y_k over the step matrices with entries prop from the
    state y = (b0, b0'): out[k] gets b0 after step k; returns the last state.

    The steps are laid out in rows of _RK4_ROW, the last padded by identities.
    Each row's running products P_j .. P_0 come from log2(_RK4_ROW) doubling
    passes over the four entries, the state is carried across the row ends one
    row at a time, and b0 of every step is then one product of a running
    product with its row's incoming state.
    """
    m, R = out.size, _RK4_ROW
    rows = -(-m // R)
    flat = np.empty((4, rows * R), dtype=complex)
    flat[:, :m] = prop
    flat[:, m:] = ((1.0,), (0.0,), (0.0,), (1.0,))
    # q[i, j, s, r]: entry (i, j) of the running product up to step s of row r
    q = np.ascontiguousarray(flat.reshape(2, 2, rows, R).transpose(0, 1, 3, 2))
    d = 1
    while d < R:  # q[:, :, s] covers steps s - 2d + 1 .. s of its row after this pass
        left, right = q[:, :, d:], q[:, :, :-d]
        q[:, :, d:] = left[:, 0, None] * right[None, 0] + left[:, 1, None] * right[None, 1]
        d *= 2
    y0, y1 = y
    s0, s1 = [], []  # each row's incoming state
    for e11, e12, e21, e22 in zip(*q[:, :, -1].reshape(4, rows).tolist()):
        s0.append(y0)
        s1.append(y1)
        y0, y1 = e11 * y0 + e12 * y1, e21 * y0 + e22 * y1
    out[:] = (q[0, 0] * np.array(s0) + q[0, 1] * np.array(s1)).T.reshape(-1)[:m]
    return y0, y1


def solve_wideband(params: SystemParams, cfg: SolverConfig) -> AmplitudeTrajectory:
    """The wide-band amplitude closedform.b0_markovian_driven on the grid."""
    return _closed_form(
        params, WideBand(), cfg, lambda t: b0_markovian_driven(params, t), WIDEBAND_CLOSED
    )
