"""Energy distribution of the tunneled particle.

Two routes to P_r:

* from a trajectory, the windowed oscillatory integral

      P_r(t) = S(E_r) | int_0^t w(t') b0(t') e^{i E_r t'} dt' |^2

  evaluated by the trapezoid rule on the trajectory's uniform grid
  t_k = k dt from t = 0 to t_end (the t >= 0 half of a two-sided run). The
  sum over k for every energy of the requested grid is one Gaussian-gridding
  non-uniform FFT, accurate to ~1e-15 of the peak at cost O(N_t log N_t + N_E).
  The trajectory step must resolve the fastest phase: dt * max|E_r| <= 0.2.
  trajectory_dt is the one rule for that step: 0.98 of the limit, no coarser
  than the wide band's default_dt, landing on t_end.

* asymptotically (t -> infinity, wide band), from closedform.floquet_spectrum
  under the drive of the params.

Energy grids combine a uniformly sampled core with extra refinement around
every predicted peak E0 + n omega of the active drive (closedform's one
sideband rule) and, optionally, logarithmic tails. The tails matter for
conservation checks: the line wings carry mass ~ P0(t) Gamma/(pi L) beyond
|E| = L, so the window has to grow as 1/P0 to push the truncated mass below
5e-4 (conservation_window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import closedform
from .model import ModelError, SystemParams, WideBand
from .solvers import AmplitudeTrajectory, _step_count, default_dt

TRAJECTORY_PHASE_LIMIT = 0.2  # max tolerated dt * |E|
TRAJECTORY_SAFETY = 0.98  # trajectory_dt keeps dt * max|E| at this share of the limit
_GRID_POINTS, _GRID_REFINE = 4001, 5  # energy_grid's core points, refinement at sidebands
_WING_BUDGET = 5.0e-4  # line-wing mass conservation_window leaves outside
_OVERSAMPLE = 2  # the FFT grid has at least this many points per time sample
_SPREAD = 16  # FFT grid points on each side of a target in the Gaussian interpolation
_CHECK_BLOCK = 1 << 14  # energies per chunk of EnergySpectrum.build's checks and norm


@dataclass
class EnergySpectrum:
    """Sampled density over an energy grid; time = inf marks the long-time limit."""

    energies: np.ndarray
    values: np.ndarray
    time: float
    norm: float

    @classmethod
    def build(cls, energies: np.ndarray, values: np.ndarray, time: float) -> "EnergySpectrum":
        energies = np.asarray(energies, dtype=float)
        values = np.asarray(values, dtype=float)
        if energies.ndim != 1 or energies.shape != values.shape:
            raise ValueError("energies and values must be matching 1-d arrays")
        norm = 0.0
        # chunks overlapping by one node, so that no check or trapezoid needs a whole-grid copy
        for lo in range(0, max(energies.size - 1, 1), _CHECK_BLOCK):
            e, v = energies[lo : lo + _CHECK_BLOCK + 1], values[lo : lo + _CHECK_BLOCK + 1]
            if np.any(np.diff(e) <= 0.0):
                raise ValueError("energy grid must be strictly increasing")
            if np.any(v < -1.0e-12):
                raise ValueError("spectral values must be nonnegative")
            norm += float(np.trapezoid(v, e))
        return cls(energies, values, time, norm)

    def value_at(self, e: float) -> float:
        """The value at the grid energy nearest e, the lower one on a tie."""
        if not math.isfinite(e):
            raise ModelError(f"value_at needs a finite energy, got {e}")
        i = int(np.searchsorted(self.energies, e))
        if i == self.energies.size or (i and e - self.energies[i - 1] <= self.energies[i] - e):
            i -= 1
        return float(self.values[i])


def energy_grid(
    params: SystemParams,
    core_halfwidth: Optional[float] = None,
    tail_halfwidth: Optional[float] = 2000.0,
    tail_points: int = 800,
) -> np.ndarray:
    """Symmetric grid around E0: uniform core, peak refinement, optional log tails.

    The core of _GRID_POINTS points spans E0 +/- (8 Gamma + n_max omega) by
    default and is refined _GRID_REFINE-fold within one Gamma of every
    sideband E0 + n omega of the active drive. Tails extend the window logarithmically (default
    to 2000 Gamma, leaving ~1.6e-4 of a Lorentzian line outside).
    """
    sidebands = closedform._sidebands(params)
    omega, n_max = (0.0, 0) if sidebands is None else sidebands[1:]
    if core_halfwidth is None:
        core_halfwidth = 8.0 + n_max * omega
    core = np.linspace(params.e0 - core_halfwidth, params.e0 + core_halfwidth, _GRID_POINTS)
    step = core[1] - core[0]
    if not step > 0.0:
        raise ModelError(f"E0 = {params.e0:g} leaves no room for an energy grid of half-width "
                         f"{core_halfwidth:g}: its points coincide")
    segments = [core]
    for p in [params.e0 + n * omega for n in range(-n_max, n_max + 1)]:
        end = p + 1.0 + 0.5 * step / _GRID_REFINE
        segments.append(np.arange(p - 1.0, end, step / _GRID_REFINE))
    if tail_halfwidth is not None and tail_halfwidth > core_halfwidth:
        t = np.exp(np.linspace(math.log(core_halfwidth), math.log(tail_halfwidth), tail_points))
        segments.append(params.e0 + t)
        segments.append(params.e0 - t)
    # sort in place and drop repeats by hand: np.unique gives the same array but imports
    # numpy.ma, and each whole-grid copy adds to the peak memory
    grid = np.concatenate(segments)
    del segments
    grid.sort()
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def conservation_window(params: SystemParams, p0_final: float) -> float:
    """Half-width needed so the line wings outside carry less than _WING_BUDGET mass.

    The sudden switch-on at t = 0 gives P_r the permanent large-|E| envelope
    (Gamma/2 pi)(1 + P0(t))/E^2, so both wings together hold
    (Gamma/pi)(1 + P0)/L beyond |E - E0| = L.
    """
    return max(8.0, (1.0 + p0_final) / (math.pi * _WING_BUDGET))


def trajectory_dt(params: SystemParams, energies, t_end: float) -> float:
    """Wide-band step for a trajectory spectrum over `energies` at t_end > 0.

    TRAJECTORY_SAFETY of the phase limit over max|E| (no limit when every
    energy is 0), no coarser than solvers.default_dt, then shortened so that
    a whole number of steps lands on t_end.
    """
    dt = default_dt(params, WideBand())
    emax = float(np.max(np.abs(energies)))
    if emax > 0.0:
        dt = min(dt, TRAJECTORY_SAFETY * TRAJECTORY_PHASE_LIMIT / emax)
    return t_end / math.ceil(_step_count(t_end, dt))


def spectrum_from_trajectory(traj: AmplitudeTrajectory, energies: np.ndarray) -> EnergySpectrum:
    """P_r at the trajectory's end time, by trapezoidal quadrature of the
    windowed integral on the trajectory's uniform grid from t = 0 for every
    grid energy, with the trajectory's own barrier profile w(t) and weighted
    by its own spectral density."""
    i0 = traj.index_of(0.0)
    times, b0 = traj.times[i0:], traj.b0[i0:]
    if times[-1] <= 0.0:
        raise ModelError("trajectory spectra need an ascending grid starting at t = 0")
    energies, _ = closedform._finite_energies(energies)
    dt = times[1] - times[0]
    if np.max(np.abs(np.diff(times) - dt)) > 1.0e-9 * dt:
        raise ModelError("trajectory spectra need a uniform time grid t_k = k dt")
    worst = dt * float(np.max(np.abs(energies)))
    if worst > TRAJECTORY_PHASE_LIMIT:
        raise ModelError(
            f"trajectory step cannot resolve the grid: dt * max|E| = {worst:.3g} "
            f"> {TRAJECTORY_PHASE_LIMIT}; refine dt or shrink the energy window"
        )
    g = dt * traj.params.w_at(times)  # the trapezoid weights times w
    g[0] *= 0.5
    g[-1] *= 0.5
    g = g * b0
    values = np.abs(_uniform_sum(g, energies * dt))
    values *= values
    values *= np.asarray(traj.sd.density(energies), dtype=float)
    return EnergySpectrum.build(energies, values, time=float(times[-1]))


def _uniform_sum(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A(x_j) = sum_k g_k e^{i k x_j} for arbitrary real x_j (type-2 NUFFT).

    Gaussian gridding (Dutt & Rokhlin 1993; Greengard & Lee, SIAM Rev. 46:443,
    2004): the centred modes m = k - N//2 are deconvolved by e^{tau m^2} and
    taken to a zero-padded FFT grid of size 2^ceil(log2(2 N)) = R N, then each
    x_j is read off by convolving with the periodic Gaussian e^{-x^2 / 4 tau}
    over its 2 _SPREAD nearest grid points. With tau = pi _SPREAD / (N^2 R (R - 1/2))
    the truncated Gaussian tail and the FFT aliasing both stay below
    e^{-pi _SPREAD (R - 1) / (R - 1/2)} ~ 3e-15 of sum |g_k|.

    The weights come by fast Gaussian gridding (Greengard & Lee, section 3):
    with h = 2 pi / (R N) and delta = x - floor(x/h) h, the weight of node
    floor(x/h) + s is e^{-delta^2/4 tau} (e^{delta h/2 tau})^s e^{-s^2 h^2/4 tau}.
    A target costs two exponentials and a reciprocal, then per node one
    gather, two real products and a complex multiply-add. The weights
    recurse outward from s = 0, each one the last times e^{+-delta h/2 tau} and
    a scalar from a table of the _SPREAD ratios e^{-(2|s| - 1) h^2/4 tau}, so
    rounding grows by about 2 _SPREAD ulp. Node indices wrap modulo the grid,
    also where the grid is smaller than the stencil.
    The grid is formed once and read off closedform._CHUNK targets at a time.
    Measured against a long-double direct sum: within 5e-14 of sum |g_k| for
    |x| <= 10 and N = 1..1000, within 1e-14 for |x| <= 0.2. Cost
    O(N log N + _SPREAD len(x)), memory O(N) beside the len(x) results.
    """
    n = g.size
    centre = n // 2
    m = np.arange(n) - centre
    size = 1 << math.ceil(math.log2(_OVERSAMPLE * n))
    r = size / n
    tau = math.pi * _SPREAD / (n * n * r * (r - 0.5))
    fine = np.zeros(size, dtype=complex)
    fine[m % size] = g * np.exp(tau * m * m)
    del m
    np.fft.ifft(fine, out=fine)  # 1/size cancels the grid sum's quadrature weight
    out = np.empty(x.size, dtype=complex)
    for lo in range(0, x.size, closedform._CHUNK):
        part = slice(lo, lo + closedform._CHUNK)
        _read_off(fine, x[part], tau, centre, out[part])
    return out


def _read_off(fine: np.ndarray, x: np.ndarray, tau: float, centre: int, out: np.ndarray) -> None:
    """out = A(x) from the deconvolved grid fine of _uniform_sum, by fast Gaussian
    gridding over the 2 _SPREAD grid points nearest each x; its per-target arrays
    live for one call."""
    h = 2.0 * math.pi / fine.size
    # node s's e^{-s^2 h^2/4 tau} over node s-1's, for s = 1 .. _SPREAD
    table = np.exp((1.0 - 2.0 * np.arange(1, _SPREAD + 1)) * (h * h / (4.0 * tau)))
    idx = np.floor(x / h).astype(np.int64)
    delta = x - idx * h
    ratio = np.exp(delta * (h / (2.0 * tau)))
    weight = np.exp(delta * delta / (-4.0 * tau))
    del delta  # each per-target array still alive adds to the peak memory
    amp = fine.take(idx, mode="wrap") * weight
    near = np.empty_like(amp)
    for step, reach in ((1, _SPREAD), (-1, _SPREAD - 1)):
        power = weight.copy()
        for factor in table[:reach]:
            idx += step
            power *= ratio
            power *= factor
            fine.take(idx, mode="wrap", out=near)
            near *= power
            amp += near
        idx -= step * reach
        np.reciprocal(ratio, out=ratio)
    del power, ratio, weight, idx
    phase = np.exp(1j * centre * x)
    phase *= math.sqrt(math.pi / tau)
    np.multiply(phase, amp, out=out)


def spectrum_asymptotic(params: SystemParams, energies: np.ndarray) -> EnergySpectrum:
    """Long-time wide-band spectrum over the grid under the active drive of params."""
    energies = np.asarray(energies, dtype=float)
    values = closedform.floquet_spectrum(params, energies)
    return EnergySpectrum.build(energies, values, time=math.inf)
