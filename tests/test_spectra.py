"""Tunneled-particle spectra: quadrature route vs closed forms, conservation."""

import math

import numpy as np
import pytest

from welldecay import closedform, spectra
from welldecay.model import (
    BarrierDrive,
    DriveProfile,
    LevelDrive,
    ModelError,
    SystemParams,
)
from welldecay.solvers import AmplitudeTrajectory, SolverConfig, solve_wideband
from welldecay.spectra import (
    EnergySpectrum,
    conservation_window,
    energy_grid,
    spectrum_asymptotic,
    spectrum_from_trajectory,
)


def wideband_run(params, t_end, grid):
    """Trajectory with a step fine enough for the grid's fastest phase."""
    dt = 0.98 * spectra.TRAJECTORY_PHASE_LIMIT / float(np.max(np.abs(grid)))
    drv = DriveProfile.from_params(params)
    traj = solve_wideband(params, drv, SolverConfig(dt=dt, t_end=t_end))
    return traj, drv


def test_spectrum_vanishes_at_short_time():
    p = SystemParams(e0=0.0)
    grid = np.linspace(-8.0, 8.0, 201)
    drv = DriveProfile.from_params(p)
    traj = solve_wideband(p, drv, SolverConfig(dt=1e-7, t_end=1e-6))
    spec = spectrum_from_trajectory(traj, drv, grid)
    assert np.max(spec.values) < 1e-10


def test_static_spectrum_matches_lineshape_pointwise():
    p = SystemParams(e0=0.0)
    grid = np.linspace(-8.0, 8.0, 401)
    drv = DriveProfile.from_params(p)
    traj = solve_wideband(p, drv, SolverConfig(dt=2e-3, t_end=3.0))
    spec = spectrum_from_trajectory(traj, drv, grid)
    ref = closedform.lineshape_markovian(p, grid, 3.0)
    assert np.max(np.abs(spec.values - ref)) < 1e-4


def significant_sidebands(params, spec_fn, omega, n_max, cut=0.01):
    """Sideband indices whose asymptotic peak is above `cut` of the tallest."""
    vals = {n: float(spec_fn(params, params.e0 + n * omega)) for n in range(-n_max, n_max + 1)}
    top = max(vals.values())
    return [n for n, v in vals.items() if v >= cut * top]


def test_level_drive_spectrum_matches_floquet_sum_at_peaks():
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    grid = energy_grid(p, tail_halfwidth=None)
    traj, drv = wideband_run(p, 12.0, grid)
    spec = spectrum_from_trajectory(traj, drv, grid)
    for n in significant_sidebands(p, closedform.floquet_spectrum_level, 2.0, 8):
        e_peak = n * 2.0
        ref = float(closedform.floquet_spectrum_level(p, e_peak))
        got = spec.value_at(e_peak)
        assert abs(got - ref) / ref < 0.01, f"sideband n={n}"


def test_barrier_drive_spectrum_matches_floquet_sum_at_peaks():
    # the sideband sum resums the linear-alpha amplitude, so feed the
    # quadrature the matching variant
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    grid = energy_grid(p, tail_halfwidth=None)
    drv = DriveProfile.from_params(p)
    dt = 0.98 * spectra.TRAJECTORY_PHASE_LIMIT / float(np.max(np.abs(grid)))
    base = solve_wideband(p, drv, SolverConfig(dt=dt, t_end=12.0))
    lin = AmplitudeTrajectory(
        base.times,
        closedform.b0_markovian_driven(p, base.times, linear_alpha=True),
        None,
        p,
        base.sd,
        base.cfg,
        base.method,
    )
    spec = spectrum_from_trajectory(lin, drv, grid)
    for n in significant_sidebands(p, closedform.floquet_spectrum_barrier, 2.0, 6):
        e_peak = n * 2.0
        ref = float(closedform.floquet_spectrum_barrier(p, e_peak))
        got = spec.value_at(e_peak)
        assert abs(got - ref) / ref < 0.01, f"sideband n={n}"


def test_exact_barrier_trajectory_vs_floquet_sum_gap_is_order_alpha_squared():
    # with the full w^2 phase the central peak moves by ~alpha^2 effects;
    # freeze the measured size so the linearization gap stays documented
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    grid = energy_grid(p, tail_halfwidth=None)
    traj, drv = wideband_run(p, 12.0, grid)
    spec = spectrum_from_trajectory(traj, drv, grid)
    ref = float(closedform.floquet_spectrum_barrier(p, 0.0))
    rel = abs(spec.value_at(0.0) - ref) / ref
    assert 0.005 < rel < 0.03


@pytest.mark.parametrize("kind,params,t_end", [
    ("static", SystemParams(e0=0.0), 1.0),
    ("static", SystemParams(e0=0.0), 3.0),
    ("level", SystemParams(e0=0.0, level_drive=LevelDrive(u=3.0, omega=2.0)), 12.0),
    ("barrier", SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0)), 1.0),
])
def test_conservation_probability_reaches_reservoir(kind, params, t_end):
    # P0(t) + integral of the spectrum = 1; the full 3 x 3 sweep runs in the
    # acceptance suite, these are the representative corners
    from conftest import banded_trajectory_spectrum, tail_points_for

    p0_final = math.exp(-params.gamma * t_end)
    window = conservation_window(params, p0_final)
    n_tail = tail_points_for(t_end, window, p0_final)
    grid = energy_grid(params, tail_halfwidth=window, tail_points=n_tail)
    core = 8.0 + spectra.sideband_count(params) * (
        params.level_drive.omega if params.level_drive
        else params.barrier_drive.omega if params.barrier_drive else 0.0
    )
    drv = DriveProfile.from_params(params)
    spec, p0_end = banded_trajectory_spectrum(params, drv, t_end, grid, core)
    conservation = p0_end + spec.norm
    assert abs(conservation - 1.0) < 1e-3, f"{kind} at t={t_end}: {conservation}"


def test_asymptotic_static_is_normalized_lorentzian():
    p = SystemParams(e0=0.0)
    grid = energy_grid(p)
    spec = spectrum_asymptotic(p, "static", grid)
    assert math.isinf(spec.time)
    assert abs(spec.norm - 1.0) < 1e-3
    ref = closedform.lineshape_markovian(p, grid, math.inf)
    assert np.max(np.abs(spec.values - ref)) < 1e-14


def test_asymptotic_level_norm():
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    spec = spectrum_asymptotic(p, "level", energy_grid(p))
    assert abs(spec.norm - 1.0) < 1e-3


def test_peak_locations_sit_on_sidebands():
    # every resolved local maximum of the driven spectrum sits on a sideband
    # E0 + n omega. Weak sidebands can hide under neighboring flanks (only
    # shoulders), coherent interference between pole terms shifts maxima by
    # a fraction of the linewidth (hence the Gamma/4 location tolerance),
    # and near-cancelled channels leave broad few-percent humps between
    # slots, so the scan keeps maxima above 5% of the tallest peak.
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    grid = energy_grid(p, tail_halfwidth=None)
    spec = spectrum_asymptotic(p, "level", grid)
    v = spec.values
    interior = np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] > 0.05 * v.max()))[0] + 1
    assert interior.size >= 4
    found_n = set()
    for i in interior:
        n_near = round(float(grid[i]) / 2.0)
        assert abs(grid[i] - 2.0 * n_near) < 0.25
        found_n.add(n_near)
    assert {-2, -1, 0, 1} <= found_n


def test_barrier_spectrum_is_symmetric_at_band_center():
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.2, omega=0.2))
    e = np.linspace(0.05, 3.0, 37)
    plus = closedform.floquet_spectrum_barrier(p, e)
    minus = closedform.floquet_spectrum_barrier(p, -e)
    assert np.max(np.abs(plus - minus) / plus) < 1e-6


def test_level_spectrum_mirror_maps_to_opposite_drive_sign():
    # P(-E; u) = P(E; -u): the spectrum is asymmetric for fixed u because
    # the t = 0 initial condition picks out the drive phase; flipping the
    # drive sign mirrors it
    plus = SystemParams(e0=0.0, level_drive=LevelDrive(u=0.2, omega=0.2))
    minus = SystemParams(e0=0.0, level_drive=LevelDrive(u=-0.2, omega=0.2))
    e = np.linspace(-2.0, 2.0, 41)
    left = closedform.floquet_spectrum_level(plus, -e)
    right = closedform.floquet_spectrum_level(minus, e)
    assert np.max(np.abs(left - right) / right) < 1e-10
    # and the asymmetry itself is real: emission wins over absorption
    assert closedform.floquet_spectrum_level(plus, -0.2) > 1.2 * closedform.floquet_spectrum_level(
        plus, 0.2
    )


def test_fig5_preset_comparison_values():
    level = SystemParams(e0=0.0, level_drive=LevelDrive(u=0.2, omega=0.2))
    barrier = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.2, omega=0.2))
    lv_p = float(closedform.floquet_spectrum_level(level, 0.2))
    lv_m = float(closedform.floquet_spectrum_level(level, -0.2))
    br = float(closedform.floquet_spectrum_barrier(barrier, 0.2))
    # frozen from the trajectory-quadrature oracle (see test_closedform)
    assert abs(lv_p - 0.465299) < 1e-4
    assert abs(lv_m - 0.617045) < 1e-4
    assert abs(br - 0.515771) < 1e-4
    assert br > lv_p  # barrier sideband beats the level one on the + side
    assert br < lv_m  # but not on the emission-enhanced - side


def test_grid_resolution_guard():
    p = SystemParams(e0=0.0)
    drv = DriveProfile.from_params(p)
    traj = solve_wideband(p, drv, SolverConfig(dt=4e-2, t_end=3.0))
    grid = np.linspace(-30.0, 30.0, 101)
    with pytest.raises(ModelError):
        spectrum_from_trajectory(traj, drv, grid)


def test_energy_spectrum_validation():
    with pytest.raises(ValueError):
        EnergySpectrum.build(np.array([0.0, 0.0, 1.0]), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        EnergySpectrum.build(np.array([0.0, 1.0]), np.array([-1.0, 0.0]), 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        spectrum_asymptotic(SystemParams(e0=0.0), "nope", np.linspace(-1, 1, 11))
