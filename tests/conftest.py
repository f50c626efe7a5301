"""Shared helpers for the spectra-heavy tests."""

import math

from welldecay import spectra
from welldecay.model import WideBand
from welldecay.solvers import SolverConfig, solve
from welldecay.spectra import spectrum_from_trajectory


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


def conservation_gap(params, t_end):
    """|P0(t) + integral of P_r - 1| from one wide-band run at t = t_end.

    The energy window leaves under 5e-4 of mass in the 1/E^2 wings; one time
    step, spectra.trajectory_dt, serves the whole grid and lands exactly on
    t_end.
    """
    p0_final = math.exp(-t_end)  # >= the barrier-driven P0: a wider window
    window = spectra.conservation_window(params, p0_final)
    n_tail = tail_points_for(t_end, window, p0_final)
    grid = spectra.energy_grid(params, tail_halfwidth=window, tail_points=n_tail)
    dt = spectra.trajectory_dt(params, grid, t_end)
    traj = solve(params, WideBand(), SolverConfig(dt=dt, t_end=t_end))
    spec = spectrum_from_trajectory(traj, grid)
    return abs(float(traj.p0[-1]) + spec.norm - 1.0)
