"""Energy distribution of the tunneled particle.

Two routes to P_r:

* from a trajectory, the windowed oscillatory integral

      P_r(t) = S(E_r) | int_0^t w(t') b0(t') e^{i E_r t'} dt' |^2

  evaluated by trapezoidal quadrature on the trajectory grid for every
  energy of the requested grid. The trajectory step must resolve the
  fastest phase: dt * max|E_r| <= 0.2.

* asymptotically (t -> infinity, wide band), dispatching to the closed-form
  sideband sums.

Energy grids combine a uniformly sampled core with extra refinement around
every predicted peak E0 + n omega and, optionally, logarithmic tails. The
tails matter for conservation checks: the line wings carry mass
~ P0(t) Gamma/(pi L) beyond |E| = L, so the window has to grow as 1/P0
to push the truncated mass below a given budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import closedform
from .bessel import truncation_order
from .model import ModelError, SystemParams
from .solvers import AmplitudeTrajectory

TRAJECTORY_PHASE_LIMIT = 0.2  # max tolerated dt * |E|
_ENERGY_CHUNK = 2048


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
        if np.any(np.diff(energies) <= 0.0):
            raise ValueError("energy grid must be strictly increasing")
        if np.any(values < -1.0e-12):
            raise ValueError("spectral values must be nonnegative")
        norm = float(np.trapezoid(values, energies))
        return cls(energies, values, time, norm)

    def value_at(self, e: float) -> float:
        i = int(np.argmin(np.abs(self.energies - e)))
        return float(self.values[i])


def sideband_count(params: SystemParams, tail_tol: float = closedform.FLOQUET_TAIL_TOL) -> int:
    """Number of sidebands carrying weight above tail_tol, 0 when undriven."""
    if params.level_drive is not None and params.level_drive.u != 0.0:
        return truncation_order(abs(params.level_drive.u / params.level_drive.omega), tail_tol)
    if params.barrier_drive is not None and params.barrier_drive.alpha != 0.0:
        return truncation_order(
            params.barrier_drive.alpha * params.gamma / params.barrier_drive.omega, tail_tol
        )
    return 0


def energy_grid(
    params: SystemParams,
    core_halfwidth: Optional[float] = None,
    points: int = 4001,
    refine: int = 5,
    tail_halfwidth: Optional[float] = 2000.0,
    tail_points: int = 800,
) -> np.ndarray:
    """Symmetric grid around E0: uniform core, peak refinement, optional log tails.

    The core spans E0 +/- (8 Gamma + n_max omega) by default and is refined
    five-fold within one Gamma of every sideband E0 + n omega. Tails extend
    the window logarithmically (default to 2000 Gamma, leaving ~1.6e-4 of a
    Lorentzian line outside).
    """
    g = params.gamma
    n_max = sideband_count(params)
    omega = 0.0
    if params.level_drive is not None:
        omega = params.level_drive.omega
    elif params.barrier_drive is not None:
        omega = params.barrier_drive.omega
    if core_halfwidth is None:
        core_halfwidth = 8.0 * g + n_max * omega
    core = np.linspace(params.e0 - core_halfwidth, params.e0 + core_halfwidth, points)
    step = core[1] - core[0]
    segments = [core]
    peaks = [params.e0 + n * omega for n in range(-n_max, n_max + 1)] if omega else [params.e0]
    for p in peaks:
        segments.append(np.arange(p - g, p + g + 0.5 * step / refine, step / refine))
    if tail_halfwidth is not None and tail_halfwidth > core_halfwidth:
        t = np.exp(np.linspace(math.log(core_halfwidth), math.log(tail_halfwidth), tail_points))
        segments.append(params.e0 + t)
        segments.append(params.e0 - t)
    return np.unique(np.concatenate(segments))


def conservation_window(params: SystemParams, p0_final: float, budget: float = 5.0e-4) -> float:
    """Half-width needed so the line wings outside carry less than `budget` mass.

    The sudden switch-on at t = 0 gives P_r the permanent large-|E| envelope
    (Gamma/2 pi)(1 + P0(t))/E^2, so both wings together hold
    (Gamma/pi)(1 + P0)/L beyond |E - E0| = L.
    """
    return max(8.0 * params.gamma, (1.0 + p0_final) * params.gamma / (math.pi * budget))


def spectrum_from_trajectory(
    traj: AmplitudeTrajectory,
    drive,
    energies: np.ndarray,
) -> EnergySpectrum:
    """P_r at the trajectory's end time, by trapezoidal quadrature of the
    windowed integral for every grid energy, weighted by the trajectory's
    own spectral density."""
    times = traj.times
    if times[0] != 0.0 or times[-1] <= 0.0:
        raise ModelError("trajectory spectra need an ascending grid starting at t = 0")
    energies = np.asarray(energies, dtype=float)
    dt = times[1] - times[0]
    worst = dt * float(np.max(np.abs(energies)))
    if worst > TRAJECTORY_PHASE_LIMIT:
        raise ModelError(
            f"trajectory step cannot resolve the grid: dt * max|E| = {worst:.3g} "
            f"> {TRAJECTORY_PHASE_LIMIT}; refine dt or shrink the energy window"
        )
    w = np.asarray(drive.w_of_t(times), dtype=float) if drive is not None else np.ones_like(times)
    weights = np.full_like(times, dt)
    weights[0] = weights[-1] = 0.5 * dt
    g = weights * w * traj.b0
    dens = np.asarray(traj.sd.density(energies), dtype=float)
    values = np.empty_like(energies)
    for i in range(0, energies.size, _ENERGY_CHUNK):
        sl = energies[i : i + _ENERGY_CHUNK]
        amp = np.exp(1j * np.outer(sl, times)) @ g
        values[i : i + _ENERGY_CHUNK] = np.abs(amp) ** 2
    values *= dens
    return EnergySpectrum.build(energies, values, time=float(times[-1]))


def spectrum_asymptotic(params: SystemParams, kind: str, energies: np.ndarray) -> EnergySpectrum:
    """Long-time wide-band spectrum over the grid: 'level', 'barrier' or 'static'."""
    energies = np.asarray(energies, dtype=float)
    if kind == "level":
        values = closedform.floquet_spectrum_level(params, energies)
    elif kind == "barrier":
        values = closedform.floquet_spectrum_barrier(params, energies)
    elif kind == "static":
        values = closedform.lineshape_markovian(params, energies, math.inf)
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    return EnergySpectrum.build(energies, values, time=math.inf)
