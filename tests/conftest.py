"""Shared helpers for the spectra-heavy tests."""

import math

import numpy as np

from welldecay import spectra
from welldecay.solvers import SolverConfig, solve_wideband
from welldecay.spectra import EnergySpectrum, spectrum_from_trajectory


def tail_points_for(t_end: float, window: float, p0_final: float) -> int:
    """Tail sampling that resolves the cos(E t) window-edge oscillation.

    The large-|E| spectrum oscillates with period 2 pi / t and amplitude
    proportional to sqrt(P0(t)); once that amplitude is negligible the
    oscillation can alias freely and the default density suffices.
    """
    if math.sqrt(p0_final) < 5e-3:
        return 1000
    log_span = math.log(window / 8.0)
    return min(9000, max(1000, int(5.0 * log_span * window * t_end / (2.0 * math.pi))))


def banded_trajectory_spectrum(params, drv, t_end, grid, split_at):
    """Trajectory spectrum where each energy band gets a matched time step.

    The step must resolve the fastest phase e^{i E t} of the band it serves;
    computing the slow core with the tail-resolved step would waste almost
    all of the work. Returns (spectrum over the full grid, final P0).
    """
    e0 = params.e0
    # the core carries the mass, so resolve it well past the aliasing limit;
    # tail values are 1/E^2-small and tolerate running at the limit
    parts = [
        (np.abs(grid - e0) <= split_at, 0.35),
        (np.abs(grid - e0) > split_at, 0.98),
    ]
    values = np.empty_like(grid)
    p0_final = None
    for mask, phase_frac in parts:
        sub = grid[mask]
        if sub.size == 0:
            continue
        dt = phase_frac * spectra.TRAJECTORY_PHASE_LIMIT / float(np.max(np.abs(sub)))
        dt = t_end / math.ceil(t_end / dt)  # both bands must end at exactly t_end
        traj = solve_wideband(params, drv, SolverConfig(dt=dt, t_end=t_end))
        values[mask] = spectrum_from_trajectory(traj, drv, sub).values
        p0_final = float(traj.p0[-1])
    return EnergySpectrum.build(grid, values, time=t_end), p0_final
