"""Tunneled-particle spectra: quadrature route vs closed forms, conservation."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import b0_linear_alpha
from hypothesis import example, given, settings
from hypothesis import strategies as st

from welldecay import closedform, solvers, spectra
from welldecay.model import (
    BarrierDrive,
    LevelDrive,
    ModelError,
    SystemParams,
    WideBand,
)
from welldecay.solvers import RESOLUTION_LIMIT, AmplitudeTrajectory, SolverConfig, solve_wideband
from welldecay.spectra import (
    EnergySpectrum,
    energy_grid,
    spectrum_asymptotic,
    spectrum_from_trajectory,
)


def wideband_run(params, t_end, grid):
    """Trajectory with a step fine enough for the grid's fastest phase."""
    dt = spectra.trajectory_dt(params, grid, t_end)
    return solve_wideband(params, SolverConfig(dt=dt, t_end=t_end))


def test_spectrum_vanishes_at_short_time():
    p = SystemParams(e0=0.0)
    grid = np.linspace(-8.0, 8.0, 201)
    traj = solve_wideband(p, SolverConfig(dt=1e-7, t_end=1e-6))
    spec = spectrum_from_trajectory(traj, grid)
    assert np.max(spec.values) < 1e-10


def test_static_spectrum_matches_lineshape_pointwise():
    p = SystemParams(e0=0.0)
    grid = np.linspace(-8.0, 8.0, 401)
    traj = solve_wideband(p, SolverConfig(dt=2e-3, t_end=3.0))
    spec = spectrum_from_trajectory(traj, grid)
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
    traj = wideband_run(p, 12.0, grid)
    spec = spectrum_from_trajectory(traj, grid)
    for n in significant_sidebands(p, closedform.floquet_spectrum, 2.0, 8):
        e_peak = n * 2.0
        ref = float(closedform.floquet_spectrum(p, e_peak))
        got = spec.value_at(e_peak)
        assert abs(got - ref) / ref < 0.01, f"sideband n={n}"


def test_barrier_drive_spectrum_matches_floquet_sum_at_peaks():
    # the sideband sum resums the linear-alpha amplitude, so feed the
    # quadrature the matching variant
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    grid = energy_grid(p, tail_halfwidth=None)
    base = wideband_run(p, 12.0, grid)
    lin = AmplitudeTrajectory(
        base.times,
        b0_linear_alpha(p, base.times),
        p,
        base.sd,
        base.cfg,
        base.method,
    )
    spec = spectrum_from_trajectory(lin, grid)
    for n in significant_sidebands(p, closedform.floquet_spectrum, 2.0, 6):
        e_peak = n * 2.0
        ref = float(closedform.floquet_spectrum(p, e_peak))
        got = spec.value_at(e_peak)
        assert abs(got - ref) / ref < 0.01, f"sideband n={n}"


def test_exact_barrier_trajectory_vs_floquet_sum_gap_is_order_alpha_squared():
    # with the full w^2 phase the central peak moves by ~alpha^2 effects;
    # freeze the measured size so the linearization gap stays documented
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    grid = energy_grid(p, tail_halfwidth=None)
    traj = wideband_run(p, 12.0, grid)
    spec = spectrum_from_trajectory(traj, grid)
    ref = float(closedform.floquet_spectrum(p, 0.0))
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
    from conftest import conservation_gap

    gap = conservation_gap(params, t_end)
    assert gap < 1e-3, f"{kind} at t={t_end}: {gap}"


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["static", "level", "barrier"]),
    e0=st.floats(-1.0, 1.0),
    t_end=st.floats(0.5, 6.0),
    u=st.floats(-3.0, 3.0),
    alpha=st.floats(0.0, 0.5),
    omega=st.floats(1.0, 3.0),
)
def test_conservation_property(kind, e0, t_end, u, alpha, omega):
    from conftest import conservation_gap

    drive = {
        "static": {},
        "level": {"level_drive": LevelDrive(u, omega)},
        "barrier": {"barrier_drive": BarrierDrive(alpha, omega)},
    }[kind]
    gap = conservation_gap(SystemParams(e0=e0, **drive), t_end)
    assert gap < 1e-3, f"{kind} drive, E0 = {e0}, t = {t_end}: {gap}"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    e0=st.floats(-5.0, 5.0),
    u=st.floats(0.0, 20.0),
    omega=st.floats(0.05, 10.0),
    barrier=st.booleans(),
    emax=st.floats(1.0e-2, 1.0e5),
    t_end=st.floats(1.0e-3, 500.0),
)
@example(e0=0.0, u=0.0, omega=1.0, barrier=False, emax=0.98, t_end=1.0)
@example(e0=0.0, u=3.0, omega=2.0, barrier=False, emax=33.0, t_end=12.0)
@example(e0=0.0, u=0.0, omega=1.0, barrier=False, emax=0.0, t_end=1.0)  # no phase limit
def test_trajectory_dt_lands_on_t_end_within_both_limits(e0, u, omega, barrier, emax, t_end):
    drive = {"barrier_drive": BarrierDrive(0.5, omega)} if barrier else {
        "level_drive": LevelDrive(u, omega)}
    p = SystemParams(e0=e0, **drive)
    energies = np.array([-0.5 * emax, e0, emax])
    dt = spectra.trajectory_dt(p, energies, t_end)
    n = round(t_end / dt)
    assert n >= 1 and abs(n * dt - t_end) <= math.ulp(t_end)
    assert dt * emax <= spectra.TRAJECTORY_SAFETY * spectra.TRAJECTORY_PHASE_LIMIT
    assert dt * solvers._resolution_scale(p, WideBand()) <= RESOLUTION_LIMIT


def test_asymptotic_static_is_normalized_lorentzian():
    p = SystemParams(e0=0.0)
    grid = energy_grid(p)
    spec = spectrum_asymptotic(p, grid)
    assert math.isinf(spec.time)
    assert abs(spec.norm - 1.0) < 1e-3
    ref = closedform.lineshape_markovian(p, grid, math.inf)
    assert np.max(np.abs(spec.values - ref)) < 1e-14


def test_asymptotic_level_norm():
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    spec = spectrum_asymptotic(p, energy_grid(p))
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
    spec = spectrum_asymptotic(p, grid)
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
    plus = closedform.floquet_spectrum(p, e)
    minus = closedform.floquet_spectrum(p, -e)
    assert np.max(np.abs(plus - minus) / plus) < 1e-6


def test_level_spectrum_mirror_maps_to_opposite_drive_sign():
    # P(-E; u) = P(E; -u): the spectrum is asymmetric for fixed u because
    # the t = 0 initial condition picks out the drive phase; flipping the
    # drive sign mirrors it
    plus = SystemParams(e0=0.0, level_drive=LevelDrive(u=0.2, omega=0.2))
    minus = SystemParams(e0=0.0, level_drive=LevelDrive(u=-0.2, omega=0.2))
    e = np.linspace(-2.0, 2.0, 41)
    left = closedform.floquet_spectrum(plus, -e)
    right = closedform.floquet_spectrum(minus, e)
    assert np.max(np.abs(left - right) / right) < 1e-10
    # and the asymmetry itself is real: emission wins over absorption
    assert closedform.floquet_spectrum(plus, -0.2) > 1.2 * closedform.floquet_spectrum(
        plus, 0.2
    )


def test_fig5_preset_comparison_values():
    level = SystemParams(e0=0.0, level_drive=LevelDrive(u=0.2, omega=0.2))
    barrier = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.2, omega=0.2))
    lv_p = float(closedform.floquet_spectrum(level, 0.2))
    lv_m = float(closedform.floquet_spectrum(level, -0.2))
    br = float(closedform.floquet_spectrum(barrier, 0.2))
    # frozen from the trajectory-quadrature oracle (see test_closedform)
    assert abs(lv_p - 0.465299) < 1e-4
    assert abs(lv_m - 0.617045) < 1e-4
    assert abs(br - 0.515771) < 1e-4
    assert br > lv_p  # barrier sideband beats the level one on the + side
    assert br < lv_m  # but not on the emission-enhanced - side


def test_grid_resolution_guard():
    p = SystemParams(e0=0.0)
    traj = solve_wideband(p, SolverConfig(dt=4e-2, t_end=3.0))
    grid = np.linspace(-30.0, 30.0, 101)
    with pytest.raises(ModelError):
        spectrum_from_trajectory(traj, grid)


def test_nonuniform_grid_rejected():
    p = SystemParams(e0=0.0)
    times = np.array([0.0, 0.1, 0.25, 0.3])
    traj = AmplitudeTrajectory(
        times, np.exp(-0.5 * times) + 0j, p, WideBand(), SolverConfig(0.1, 0.3), "hand-built"
    )
    with pytest.raises(ModelError, match="uniform"):
        spectrum_from_trajectory(traj, np.linspace(-1.0, 1.0, 11))


def test_negative_side_trajectory_rejected():
    traj = solve_wideband(SystemParams(e0=0.0), SolverConfig(dt=0.01, t_end=-1.0))
    with pytest.raises(ModelError, match="ascending grid starting at t = 0"):
        spectrum_from_trajectory(traj, np.linspace(-1.0, 1.0, 11))


def direct_spectrum(traj, energies):
    """The trapezoid sum term by term, the reference for the fast sum."""
    t = traj.times
    weights = np.full_like(t, t[1] - t[0])
    weights[[0, -1]] *= 0.5
    amp = np.exp(1j * np.outer(energies, t)) @ (weights * traj.params.w_at(t) * traj.b0)
    return np.abs(amp) ** 2 * traj.sd.density(energies)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n_t=st.integers(2, 1100),
    dt=st.floats(1e-3, 0.1),
    seed=st.integers(0, 2**32 - 1),
    barrier=st.booleans(),
)
@example(n_t=2, dt=0.05, seed=0, barrier=False)
@example(n_t=7, dt=0.01, seed=1, barrier=True)
@example(n_t=1025, dt=2e-3, seed=2, barrier=False)
def test_fast_sum_matches_direct_sum(n_t, dt, seed, barrier):
    # random |b0| <= 1 and phases on N_t samples, energies out to the phase
    # limit on both sides and at 0
    rng = np.random.default_rng(seed)
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(0.3, 2.0) if barrier else None)
    times = dt * np.arange(n_t)
    b0 = rng.uniform(0.0, 1.0, n_t) * np.exp(2j * np.pi * rng.uniform(size=n_t))
    b0[0] = 1.0
    traj = AmplitudeTrajectory(
        times, b0, p, WideBand(), SolverConfig(dt, times[-1]), "hand-built"
    )
    limit = spectra.TRAJECTORY_PHASE_LIMIT
    edge = np.nextafter(limit / dt, 0.0)  # dt * edge <= the limit
    grid = np.unique(np.concatenate([[-edge, 0.0, edge], rng.uniform(-edge, edge, 200)]))
    got = spectrum_from_trajectory(traj, grid).values
    ref = direct_spectrum(traj, grid)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=2, seed=1)
@example(n=9, seed=2)
def test_uniform_sum_matches_direct_sum_for_any_phase(n, seed):
    # |x| up to 3 pi wraps the stencil around FFT grids of 2..128 points,
    # smaller than its 2 _SPREAD nodes
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    edge = 3.0 * np.pi
    x = np.concatenate([[-edge, -np.pi, 0.0, np.pi, edge], rng.uniform(-edge, edge, 200)])
    ref = np.exp(1j * np.outer(x, np.arange(n))) @ g
    got = spectra._uniform_sum(g, x)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.sum(np.abs(g))


def grid_segments(params, core_halfwidth=None, tail_halfwidth=2000.0, tail_points=800):
    """energy_grid's segments: the core, the sideband windows and the tails."""
    sidebands = closedform._sidebands(params)
    omega, n_max = (0.0, 0) if sidebands is None else sidebands[1:]
    if core_halfwidth is None:
        core_halfwidth = 8.0 + n_max * omega
    core = np.linspace(params.e0 - core_halfwidth, params.e0 + core_halfwidth, 4001)
    step = core[1] - core[0]
    segments = [core]
    for n in range(-n_max, n_max + 1):
        p = params.e0 + n * omega
        segments.append(np.arange(p - 1.0, p + 1.0 + 0.5 * step / 5, step / 5))
    if tail_halfwidth is not None and tail_halfwidth > core_halfwidth:
        t = np.exp(np.linspace(math.log(core_halfwidth), math.log(tail_halfwidth), tail_points))
        segments += [params.e0 + t, params.e0 - t]
    return segments


@pytest.mark.parametrize("e0", [0.0, 0.3, 0.9])
@pytest.mark.parametrize(
    "drive,kwargs",
    [
        ({"level_drive": LevelDrive(u=20.0, omega=0.1)}, {}),  # benchmark spectrum-level
        ({"barrier_drive": BarrierDrive(alpha=0.5, omega=0.05)}, {}),  # spectrum-barrier
        ({"level_drive": LevelDrive(u=0.2, omega=0.2)}, {"core_halfwidth": 12.0}),  # fig5
        ({"level_drive": LevelDrive(u=3.0, omega=2.0)}, {"tail_halfwidth": None}),  # selftest
    ],
)
def test_energy_grid_is_the_np_unique_grid_bit_for_bit(e0, drive, kwargs):
    # np.unique of the segments, and the copying sort with its repeat drop that the
    # in-place sort replaced
    p = SystemParams(e0=e0, **drive)
    got = energy_grid(p, **kwargs)
    merged = np.sort(np.concatenate(grid_segments(p, **kwargs)))
    for ref in (np.unique(merged), merged[np.concatenate(([True], merged[1:] != merged[:-1]))]):
        assert got.dtype == ref.dtype and np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_level_spectrum_pipeline_memory_holds_no_spare_grid_copy():
    # spectrum --drive level --u 20 --omega 0.1: 302,315 energies, 2.42 MB per array.
    # Measured peak 6.67 MB: the grid and the detuning buffer, which takes the pole
    # sum, plus one block of the sum; energy_grid's own peak is its segments and their
    # concatenation (5.18 MB), and build's chunks add 0.4 MB. The whole-grid copies of
    # the copying sort, the separate pole-sum output and the whole-grid checks of
    # build held 9.69 MB
    p = SystemParams(e0=0.4, level_drive=LevelDrive(u=20.0, omega=0.1))
    tracemalloc.start()
    try:
        spec = spectrum_asymptotic(p, energy_grid(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.energies.size == 302_315
    assert peak <= 7.6e6


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    e0=st.floats(-3.0, 3.0),
    barrier=st.booleans(),
    amplitude=st.floats(0.0, 0.9),
    omega=st.floats(0.02, 4.0),
    tails=st.booleans(),
)
@example(e0=0.0, barrier=False, amplitude=0.9, omega=0.02, tails=True)
def test_energy_grid_strictly_increasing(e0, barrier, amplitude, omega, tails):
    # overlapping sideband windows (omega < 2) put near-duplicates side by side
    drive = (
        {"barrier_drive": BarrierDrive(amplitude, omega)}
        if barrier
        else {"level_drive": LevelDrive(5.0 * amplitude, omega)}
    )
    grid = energy_grid(SystemParams(e0=e0, **drive), tail_halfwidth=2000.0 if tails else None)
    assert grid.ndim == 1 and np.all(np.isfinite(grid))
    assert np.all(np.diff(grid) > 0.0)


def test_energy_spectrum_validation():
    with pytest.raises(ValueError):
        EnergySpectrum.build(np.array([0.0, 0.0, 1.0]), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        EnergySpectrum.build(np.array([0.0, 1.0]), np.array([-1.0, 0.0]), 1.0)
    for energies, values in ((np.linspace(0.0, 1.0, 5), np.ones(4)),
                             (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            EnergySpectrum.build(energies, values, 1.0)


@pytest.mark.parametrize("size", [2, 3, spectra._CHECK_BLOCK, spectra._CHECK_BLOCK + 1,
                                  spectra._CHECK_BLOCK + 2, 3 * spectra._CHECK_BLOCK + 7])
def test_build_norm_is_the_whole_grid_trapezoid(size):
    # the chunks overlap by one node, so every interval enters once, as in np.trapezoid
    rng = np.random.default_rng(size)
    energies = np.cumsum(rng.uniform(1e-3, 1.0, size))
    values = rng.uniform(0.0, 2.0, size)
    ref = np.trapezoid(values, energies)
    assert abs(EnergySpectrum.build(energies, values, 1.0).norm - ref) <= 1e-15 * ref


def test_build_norm_on_the_level_benchmark_grid():
    p = SystemParams(e0=0.4, level_drive=LevelDrive(u=20.0, omega=0.1))
    grid = energy_grid(p)
    values = closedform.floquet_spectrum(p, grid)
    ref = np.trapezoid(values, grid)
    assert abs(EnergySpectrum.build(grid, values, math.inf).norm - ref) <= 1e-15 * ref


@pytest.mark.parametrize("at", [-1, 0, 1])
def test_build_checks_reach_across_chunk_seams(at):
    # the node the first two chunks share, and its neighbours: a repeated energy on
    # either side of it and a negative value on it are each still rejected
    i, size = spectra._CHECK_BLOCK + at, 5 * spectra._CHECK_BLOCK // 2
    energies, values = np.arange(size, dtype=float), np.ones(size)
    repeated = energies.copy()
    repeated[i] = repeated[i - 1]
    with pytest.raises(ValueError, match="strictly increasing"):
        EnergySpectrum.build(repeated, values, 1.0)
    negative = values.copy()
    negative[i] = -1e-9
    with pytest.raises(ValueError, match="nonnegative"):
        EnergySpectrum.build(energies, negative, 1.0)
    EnergySpectrum.build(energies, values, 1.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    size=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
@example(size=1, seed=0, ties=False)
@example(size=2, seed=1, ties=True)
def test_value_at_is_the_argmin_node(size, seed, ties):
    # targets at every node, at every midpoint, and outside the grid on both sides;
    # on a lattice of step 1/4 the midpoints are exact ties, which go to the lower node
    rng = np.random.default_rng(seed)
    if ties:
        energies = 0.25 * np.arange(size) - 3.0
    else:
        energies = np.cumsum(rng.uniform(1e-6, 1.0, size)) - 0.5 * size
    spec = EnergySpectrum.build(energies, np.arange(size, dtype=float), 1.0)
    span = energies[-1] - energies[0] + 1.0
    targets = np.concatenate([
        energies,
        0.5 * (energies[1:] + energies[:-1]),
        energies[0] - span * rng.uniform(0.0, 2.0, 4),
        energies[-1] + span * rng.uniform(0.0, 2.0, 4),
        rng.uniform(energies[0] - 1.0, energies[-1] + 1.0, 20),
    ])
    for e in targets:
        assert spec.value_at(e) == float(np.argmin(np.abs(energies - e))), e


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_value_at_rejects_a_non_finite_energy(e):
    # the bisection would place nan and inf past the last node and -inf before the first
    spec = EnergySpectrum.build(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]), 1.0)
    with pytest.raises(ModelError, match=f"finite energy, got {e}$"):
        spec.value_at(e)


def test_asymptotic_spectrum_follows_the_drive_of_params():
    # a barrier drive gives the barrier sideband sum, not the undriven line 2/pi
    p = SystemParams(e0=0.3, barrier_drive=BarrierDrive(alpha=0.5, omega=0.5))
    grid = energy_grid(p, tail_halfwidth=None)
    spec = spectrum_asymptotic(p, grid)
    assert np.array_equal(spec.values, closedform.floquet_spectrum(p, grid))
    assert abs(spec.value_at(0.3) - 0.457474) < 1e-6


def test_two_active_drives_are_rejected():
    p = SystemParams(
        e0=0.0, level_drive=LevelDrive(u=0.2, omega=0.2), barrier_drive=BarrierDrive(0.2, 0.2)
    )
    e = np.linspace(-1.0, 1.0, 11)
    for call in (
        lambda: closedform.floquet_spectrum(p, e),
        lambda: spectrum_asymptotic(p, e),
        lambda: energy_grid(p),
    ):
        with pytest.raises(ModelError, match="one drive"):
            call()


def test_zero_amplitude_drive_leaves_the_grid_to_the_active_one():
    # the idle level drive's omega = 5 must not space the barrier's sidebands
    barrier = BarrierDrive(alpha=0.5, omega=0.05)
    alone = SystemParams(e0=0.5, barrier_drive=barrier)
    both = SystemParams(e0=0.5, level_drive=LevelDrive(u=0.0, omega=5.0), barrier_drive=barrier)
    assert np.array_equal(energy_grid(both), energy_grid(alone))
    assert closedform._sidebands(both)[2] == closedform._sidebands(alone)[2] == 23


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trajectory_spectrum_rejects_non_finite_energies(bad):
    traj = solve_wideband(SystemParams(e0=0.0), SolverConfig(dt=1e-2, t_end=1.0))
    with pytest.raises(ModelError, match="finite"):
        spectrum_from_trajectory(traj, [0.0, bad])
