"""Exact finite-reservoir evolution: limits, revival, unitarity, lineshape."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from welldecay import closedform
from welldecay.chain import _phase_sums, _star_modes, evolve_chain, lineshape_exact, revival_time
from welldecay.spectra import spectrum_from_trajectory
from welldecay.model import (
    BarrierDrive,
    FiniteChain,
    LevelDrive,
    Lorentzian,
    ModelError,
    Semicircle,
    SystemParams,
)
from welldecay.solvers import (
    _BLOCK,
    _CHUNK_BLOCKS,
    _SUB,
    RESOLUTION_LIMIT,
    AmplitudeTrajectory,
    ResolutionError,
    SolverConfig,
    SolverError,
    _grid,
    default_dt,
    solve,
    solve_volterra,
)


def run(e0, chain, t_end, dt, level_drive=None):
    params = SystemParams(e0=e0, level_drive=level_drive)
    return solve(params, chain, SolverConfig(dt=dt, t_end=t_end))


def end_norm(traj):
    """|<psi|psi>| at the last sample, from b0 and the end-state reservoir."""
    return abs(traj.b0[-1]) ** 2 + float(np.sum(np.abs(traj.br) ** 2))


def synthetic(times, b0):
    """Trajectory with a prescribed amplitude, for the revival detector."""
    cfg = SolverConfig(dt=times[1] - times[0], t_end=times[-1])
    return AmplitudeTrajectory(
        times, b0, SystemParams(e0=0.0), FiniteChain(10, 6.0), cfg, "synthetic"
    )


def strang_reference(params, chain, cfg):
    """The Strang splitting stepped one step at a time on the full state.

    Each step is the phase e^{-i int E0} over the first half step on b and
    e^{-i E_r h/2} on br, the star-coupling rotation of (b, vhat.br) by the
    angle |v| w(t_mid) h, then the second half step's phases. Returns b0,
    br at the last node and the largest |<psi|psi> - 1| over the nodes.
    """
    times = _grid(cfg)
    h = times[1] - times[0]
    er = chain.level_energies()
    om = chain.couplings()
    vnorm = float(np.linalg.norm(om))
    vhat = om / vnorm
    half = np.exp(-1j * er * (h / 2.0))
    b0 = np.empty(times.size, dtype=complex)
    norms = np.ones(times.size)
    b, state = 1.0 + 0.0j, np.zeros(chain.n_levels, dtype=complex)
    b0[0] = b
    for k, t in enumerate(times[:-1]):
        mid = t + 0.5 * h
        theta = vnorm * float(params.w_at(mid)) * h
        c, s = np.cos(theta), np.sin(theta)
        b *= np.exp(-1j * (params.e0_integral(mid) - params.e0_integral(t)))
        state = state * half
        proj = complex(vhat @ state)
        b, state = c * b - 1j * s * proj, state + (-1j * s * b + (c - 1.0) * proj) * vhat
        b *= np.exp(-1j * (params.e0_integral(t + h) - params.e0_integral(mid)))
        state = state * half
        b0[k + 1], norms[k + 1] = b, abs(b) ** 2 + np.sum(np.abs(state) ** 2)
    return b0, state, float(np.max(np.abs(norms - 1.0)))


def check_against_strang_reference(params, chain, dt, t_end):
    cfg = SolverConfig(dt=dt, t_end=t_end)
    b0, br, drift = strang_reference(params, chain, cfg)
    traj = solve(params, chain, cfg)
    assert traj.method == "strang-splitting"
    assert np.max(np.abs(traj.b0 - b0)) <= 1e-12
    assert traj.br.shape == (chain.n_levels,)
    assert np.max(np.abs(traj.br - br)) <= 1e-12
    assert traj.norm_drift <= 1e-12 and drift <= 1e-12


def star_eigh(e0, chain):
    """LAPACK's eigh of the dense (N+1)-square star Hamiltonian: the reference of the
    static path, which never forms that matrix."""
    h = np.diag(np.concatenate([[e0], chain.level_energies()]))
    h[0, 1:] = h[1:, 0] = chain.couplings()
    return np.linalg.eigh(h)


class DecoupledChain(FiniteChain):
    """Chain levels with every coupling switched off."""

    def couplings(self):
        return np.zeros(self.n_levels)


class AlternateChain(FiniteChain):
    """Chain levels with every other coupling switched off: a partial deflation."""

    def couplings(self):
        om = super().couplings()
        om[::2] = 0.0
        return om


class PairedChain(FiniteChain):
    """Each level of the first half of the chain twice over: coinciding levels."""

    def level_energies(self):
        e = super().level_energies()
        return np.repeat(e[: (e.size + 1) // 2], 2)[: e.size]


def test_decoupled_chain_is_free_evolution():
    # solve routes the subclass as a FiniteChain, to the exact evolution
    chain, cfg = DecoupledChain(n_levels=40, w_band=6.0), SolverConfig(dt=5e-3, t_end=3.0)
    traj = solve(SystemParams(e0=1.3), chain, cfg)
    assert traj.method == evolve_chain(SystemParams(e0=1.3), chain, cfg).method
    ref = np.exp(-1j * 1.3 * traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 1e-12
    assert np.max(np.abs(traj.br)) < 1e-14


@pytest.mark.parametrize(
    "drive",
    [{"level_drive": LevelDrive(u=1.0, omega=1.0)}, {"barrier_drive": BarrierDrive(0.5, 1.5)}],
    ids=["level", "barrier"],
)
def test_driven_decoupled_chain_is_free_evolution(drive):
    # no coupling leaves the Strang run a zero kernel: b0 only turns by its level
    params = SystemParams(e0=0.3, **drive)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = solve(params, DecoupledChain(10, 4.0), SolverConfig(dt=0.005, t_end=1.0))
    assert traj.method == "strang-splitting"
    assert np.max(np.abs(traj.b0 - np.exp(-1j * params.e0_integral(traj.times)))) <= 1e-12
    assert np.all(traj.br == 0.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from([FiniteChain, DecoupledChain, AlternateChain, PairedChain]),
    n=st.integers(1, 400),
    w=st.floats(1.0, 10.0),
    place=st.sampled_from(["in", "edge", "out"]),
    side=st.sampled_from([1.0, -1.0]),
    frac=st.floats(0.0, 1.0),
)
@example(kind=FiniteChain, n=400, w=6.0, place="out", side=-1.0, frac=0.0)
@example(kind=AlternateChain, n=1, w=2.0, place="in", side=1.0, frac=0.0)
@example(kind=PairedChain, n=2, w=3.0, place="edge", side=1.0, frac=0.5)
def test_static_modes_match_eigh(kind, n, w, place, side, frac):
    # E0 in the band, within 0.3 of an edge, or 1 to 4 beyond it, where a bound state
    # splits off; DecoupledChain and AlternateChain deflate all or half of the levels,
    # PairedChain merges coinciding ones. Measured over 300 random draws against eigh:
    # |dlam| <= 9.8e-15, |dc0^2| <= 1.9e-14, |db0| <= 5.2e-14 to t = 5 (eigh's eigenvalues
    # are the less accurate: up to 3.5e-14 from 40-digit roots at N = 250, the secular
    # ones 1.4e-16), |dbr| <= 8.7e-15 and a drift of at most 2.3e-15
    offset = {"in": 0.9 * frac * w, "edge": w + 0.6 * frac - 0.3, "out": w + 1.0 + 3.0 * frac}
    e0 = side * offset[place]
    chain = kind(n, w)
    lam_ref, vec = star_eigh(e0, chain)
    overlap = vec[0] ** 2 > 1e-20  # a deflated level's eigenvector misses the well
    lam, c0sq, _, _ = _star_modes(e0, chain.level_energies(), chain.couplings(), np.zeros(1))
    assert lam.size == np.count_nonzero(overlap)
    assert np.max(np.abs(lam - lam_ref[overlap])) <= 2e-14
    assert np.max(np.abs(c0sq - vec[0, overlap] ** 2)) <= 5e-14
    params = SystemParams(e0=e0)
    traj = solve(params, chain, SolverConfig(dt=default_dt(params, chain), t_end=5.0))
    ref = np.exp(-1j * np.outer(traj.times, lam_ref)) @ vec[0] ** 2
    assert np.max(np.abs(traj.b0 - ref)) <= 1e-13
    ref_br = vec[1:] @ (np.exp(-1j * lam_ref * traj.times[-1]) * vec[0])
    assert np.max(np.abs(traj.br - ref_br)) <= 3e-14
    assert traj.norm_drift <= 1e-14


@pytest.mark.parametrize("field", ["level_energies", "couplings"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_static_chain_rejects_a_non_finite_level_or_coupling(field, bad):
    # a NaN coupling would otherwise fall below the deflation bound and drop out unseen
    class Broken(FiniteChain):
        def level_energies(self):
            e = super().level_energies()
            if field == "level_energies":
                e[3] = bad
            return e

        def couplings(self):  # FiniteChain's couplings read the levels: take the sound ones
            om = FiniteChain(self.n_levels, self.w_band).couplings()
            if field == "couplings":
                om[3] = bad
            return om

    with pytest.raises(ModelError, match="must be finite"):
        run(0.5, Broken(10, 4.0), 1.0, 5e-3)


def test_static_chain_runs_without_a_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the static chain called a dense eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    traj = run(0.5, FiniteChain(250, 6.0), 10.0, 5e-3)
    assert traj.method == "eigendecomposition" and traj.norm_drift <= 1e-14


def test_static_chain_memory_holds_no_square_matrix():
    # N = 4,000, where one (N+1)-square matrix of floats is 128 MB. Measured peaks
    # 3.70 MB over 300 steps and 4.87 MB over 6,668: _phase_sums keeps its table of
    # 16 lags by N + 1 modes and each chunk of its shift rows to 2^16 entries, and the
    # secular solver's root x level arrays are 2^15 elements a chunk. A table of 256
    # lags read 33.4 MB at either length, and 16 lags with every shift row at once
    # 55 MB over 6,668 steps
    for steps, bound in ((300, 8e6), (6_668, 10e6)):
        tracemalloc.start()
        try:
            traj = run(0.5, FiniteChain(4000, 6.0), steps * 3e-3, 3e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == steps + 1 and traj.norm_drift <= 1e-14
        assert peak <= bound


def test_chain_trajectory_spectrum_is_weighted_by_the_semicircle_envelope():
    # FiniteChain.density is the continuum envelope: the same run weighted by
    # Semicircle.density gives the same spectrum
    traj = run(0.3, FiniteChain(40, 6.0), 2.0, 5e-3)
    e = np.linspace(-8.0, 8.0, 81)
    got = spectrum_from_trajectory(traj, e)
    ref = spectrum_from_trajectory(dataclasses.replace(traj, sd=Semicircle(6.0)), e)
    assert np.array_equal(got.values, ref.values)
    assert np.all(got.values[np.abs(e) >= 6.0] == 0.0) and got.norm > 0.0


def test_two_level_rabi_oscillation():
    # N = 1: the single reservoir level sits at E = 0 and the coupling is
    # Omega = sqrt(Gamma W) / 2; for e0 = 0 this is a textbook Rabi problem
    w_band = 4.0
    chain = FiniteChain(n_levels=1, w_band=w_band)
    omega_r = float(chain.couplings()[0])
    assert abs(omega_r - math.sqrt(w_band) / 2.0) < 1e-14
    traj = run(0.0, chain, 3.0 * math.pi / omega_r, 1e-3)
    ref = np.cos(omega_r * traj.times) ** 2
    assert np.max(np.abs(traj.p0 - ref)) < 1e-10
    # a full period returns the particle to the well
    period = math.pi / omega_r
    assert abs(traj.p0[traj.times.searchsorted(period)] - 1.0) < 1e-6


def test_chain_tracks_exponential_in_decay_regime_then_revives():
    traj = run(1.0, FiniteChain(250, 6.0), 100.0, 7e-3)
    window = (traj.times >= 1.0) & (traj.times <= 10.0)
    dev = np.max(np.abs(traj.p0[window] - np.exp(-traj.times[window])))
    assert dev < 0.05
    assert revival_time(traj) is not None


def test_revival_time_grows_with_reservoir_size():
    revs = {}
    for n in (150, 250):
        traj = run(1.0, FiniteChain(n, 6.0), 110.0, 7e-3)
        revs[n] = revival_time(traj)
    assert revs[150] is not None and revs[250] is not None
    assert revs[250] > revs[150]
    # the leading edge of the reflected wave travels at the band-edge group
    # velocity: t_rev is a little beyond 2(N+1)/W
    assert revs[150] > 2.0 * 151 / 6.0
    assert revs[250] > 2.0 * 251 / 6.0


def test_revival_none_for_synthetic_pure_decay():
    times = np.linspace(0.0, 12.0, 1201)
    traj = synthetic(times, np.exp(-0.5 * times).astype(complex))
    assert revival_time(traj) is None


def test_revival_series_too_short():
    times = np.linspace(0.0, 1.0, 101)
    traj = synthetic(times, np.exp(-0.5 * times).astype(complex))
    with pytest.raises(SolverError):
        revival_time(traj)


def test_unitarity_static_and_driven():
    chain = FiniteChain(120, 6.0)
    for t_end in (10.0, -10.0):
        static = run(1.0, chain, t_end, 5e-3)
        assert static.norm_drift < 1e-8 * 10.0
        assert abs(end_norm(static) - 1.0) < 1e-12
        driven = run(1.0, chain, t_end, 5e-3, level_drive=LevelDrive(u=2.0, omega=2.0))
        assert driven.method == "strang-splitting"
        assert driven.norm_drift < 1e-8 * 10.0
        assert abs(end_norm(driven) - 1.0) < 1e-8 * 10.0


@pytest.mark.parametrize("level_drive", [None, LevelDrive(u=2.0, omega=2.0)])
def test_norm_drift_past_the_limit_raises(monkeypatch, level_drive):
    # the limit halved below the drift a run measures turns that same run into a failure
    chain = FiniteChain(40, 6.0)
    drift = run(1.0, chain, 3.0, 5e-3, level_drive).norm_drift
    assert drift > 0.0
    monkeypatch.setattr("welldecay.chain.NORM_DRIFT_LIMIT", 0.5 * drift / 3.0)
    with pytest.raises(SolverError, match="norm drifted by"):
        run(1.0, chain, 3.0, 5e-3, level_drive)


def test_continuum_limit_against_semicircle_solution():
    # finite-N deviations from the continuum memory solution shrink with N,
    # and are already below discretization noise on the pre-revival window
    p = SystemParams(e0=1.0)
    cont = solve_volterra(p, Semicircle(6.0), SolverConfig(dt=5e-3, t_end=5.0))
    devs = {}
    exp_devs = {}
    for n in (50, 150, 250):
        traj = run(1.0, FiniteChain(n, 6.0), 5.0, 5e-3)
        devs[n] = float(np.max(np.abs(traj.p0 - cont.p0)))
        exp_devs[n] = float(np.max(np.abs(traj.p0 - np.exp(-traj.times))))
    # measured 8.76e-6 for every N: the Volterra discretization error at dt = 5e-3
    assert devs[50] < 2e-5 and devs[150] < 2e-5 and devs[250] < 2e-5
    # measured deviation from pure exponential decay is transient-dominated
    # (quadratic onset of the finite band) and identical across N here
    assert exp_devs[150] <= exp_devs[50] + 1e-6
    assert exp_devs[250] <= exp_devs[150] + 1e-6


def test_negative_time_chain_is_conjugate():
    chain = FiniteChain(80, 6.0)
    fwd = run(1.0, chain, 4.0, 5e-3)
    bwd = run(1.0, chain, -4.0, 5e-3)
    assert np.max(np.abs(bwd.b0 - np.conj(fwd.b0))) < 1e-12
    # the real Hamiltonian reverses the whole state, reservoir included
    assert np.max(np.abs(bwd.br - np.conj(fwd.br))) < 1e-12
    # the two-sided run keeps the positive side's end state and the worse drift
    both = solve(SystemParams(e0=1.0), chain, SolverConfig(dt=5e-3, t_end=4.0, t_start=-4.0))
    assert np.array_equal(both.br, fwd.br)
    assert both.norm_drift == max(fwd.norm_drift, bwd.norm_drift)


def test_lineshape_is_unitarity_complement():
    traj = run(1.0, FiniteChain(250, 6.0), 8.0, 5e-3)
    spec = lineshape_exact(traj)
    assert spec.time == traj.times[-1]
    reservoir_weight = float(np.sum(np.abs(traj.br) ** 2))
    assert abs(traj.p0[-1] + reservoir_weight - 1.0) < 1e-12
    # P_r rho(E_r) over rho(E_r), on the ascending energies, sums to the reservoir weight
    assert abs(np.sum(spec.values / traj.sd.level_density()[::-1]) - reservoir_weight) < 1e-12


@pytest.mark.parametrize("t_end", [6.0, -6.0])
@pytest.mark.parametrize(
    "drive",
    [{}, {"level_drive": LevelDrive(u=1.5, omega=2.0)}, {"barrier_drive": BarrierDrive(0.6, 1.5)}],
    ids=["static", "level", "barrier"],
)
def test_lineshape_of_solved_chain(drive, t_end):
    # solve is the way in: its chain run carries the end state lineshape_exact reads
    params = SystemParams(e0=0.4, **drive)
    chain = FiniteChain(60, 5.0)
    traj = solve(params, chain, SolverConfig(dt=default_dt(params, chain), t_end=t_end))
    spec = lineshape_exact(traj)
    assert spec.time == traj.times[-1]
    assert np.all(np.diff(spec.energies) > 0.0) and np.all(spec.values >= 0.0)
    assert abs(end_norm(traj) - 1.0) < 1e-8 * abs(t_end)


def test_lineshape_matches_markovian_line_at_late_time():
    traj = run(1.0, FiniteChain(250, 6.0), 8.0, 5e-3)
    spec = lineshape_exact(traj)  # at the final time
    p = SystemParams(e0=1.0)
    ref_peak = closedform.lineshape_markovian(p, 1.0, 8.0)
    i_peak = int(np.argmin(np.abs(spec.energies - 1.0)))
    assert abs(spec.values[i_peak] - ref_peak) / ref_peak < 0.05
    # half width at half maximum close to Gamma / 2
    half = 0.5 * spec.values[i_peak]
    above = spec.energies[spec.values >= half]
    hwhm = 0.5 * (above.max() - above.min())
    assert abs(hwhm - 0.5) < 0.15


def test_driven_chain_matches_wideband_spectrum():
    # level-driven chain vs the wide-band sideband picture: an end-to-end
    # validation of the splitting stepper against independent analytics
    u, om = 3.0, 2.0
    traj = run(0.0, FiniteChain(600, 16.0), 14.0, 2e-3, level_drive=LevelDrive(u, om))
    spec = lineshape_exact(traj)
    params = SystemParams(e0=0.0, level_drive=LevelDrive(u, om))
    # finite-time trajectory oracle at the two first sidebands
    t = np.arange(0.0, 14.0 + 1e-9, 2e-3)
    b0 = closedform.b0_markovian_driven(params, t)
    for e_test in (2.0, -2.0):
        i = int(np.argmin(np.abs(spec.energies - e_test)))
        ref = 1.0 / (2 * math.pi) * abs(
            np.trapezoid(b0 * np.exp(1j * spec.energies[i] * t), t)
        ) ** 2
        assert abs(spec.values[i] - ref) / ref < 0.06
    # the asymmetry between emission and absorption sidebands is physical
    i_plus = int(np.argmin(np.abs(spec.energies - om)))
    i_minus = int(np.argmin(np.abs(spec.energies + om)))
    assert spec.values[i_minus] > 2.0 * spec.values[i_plus]


def test_resolution_guard():
    with pytest.raises(ResolutionError):
        run(1.0, FiniteChain(50, 6.0), 5.0, 0.05)


@pytest.mark.parametrize(
    "e0,drive,t_end,dt",
    [
        # dt (W + |E0| + u) = 0.188: the drive amplitude counts in full even
        # when the window is too short for the profile to reach it
        (1.0, LevelDrive(u=40.0, omega=1.0), 0.05, 0.004),
        # dt omega = 0.28: the drive frequency is a rate of its own
        (0.0, LevelDrive(u=0.5, omega=40.0), 1.0, 0.007),
    ],
)
def test_resolution_counts_drive_amplitude_and_frequency(e0, drive, t_end, dt):
    with pytest.raises(ResolutionError):
        run(e0, FiniteChain(50, 6.0), t_end, dt, level_drive=drive)


def test_state_access_requires_stored_reservoir():
    # a continuum solver evolves no reservoir amplitudes
    traj = solve(SystemParams(e0=1.0), Lorentzian(4.0), SolverConfig(dt=5e-3, t_end=2.0))
    assert traj.br is None
    with pytest.raises(ModelError, match="no reservoir amplitudes"):
        lineshape_exact(traj)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=40,
    ),
    dt=st.floats(1e-3, 0.1),
)
def test_phase_sums_match_direct_sum(terms, dt):
    # s_j = sum_r c_r e^{-i j lam_r dt} with |lam_r| dt up to the resolution limit
    frac, re, im = (np.array(v) for v in zip(*terms))
    c = re + 1j * im
    lam = frac * RESOLUTION_LIMIT / dt
    for n in (0, 1, 6, 255, 256, 257, 1024):
        for h in (dt, -dt):
            got = _phase_sums(c, lam * h, n)
            ref = np.exp(-1j * np.outer(h * np.arange(n + 1), lam)) @ c
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.sum(np.abs(c))


@pytest.mark.parametrize("modes", [257, 4001])
def test_phase_sums_of_many_modes_match_direct_sum(modes):
    # more modes than a table of 256 lags keeps within its budget: 128 lags per block
    # for 257 modes; 16 for 4,001, whose shift rows come in chunks of 16 (five at n = 1024)
    rng = np.random.default_rng(modes)
    c = rng.uniform(-1.0, 1.0, modes) + 1j * rng.uniform(-1.0, 1.0, modes)
    theta = rng.uniform(-1.0, 1.0, modes) * RESOLUTION_LIMIT
    for n in (0, 15, 16, 17, 127, 128, 129, 1024):
        got = _phase_sums(c, theta, n)
        ref = np.concatenate([np.exp(-1j * np.outer(np.arange(lo, min(lo + 16, n + 1)), theta)) @ c
                              for lo in range(0, n + 1, 16)])
        assert got.shape == (n + 1,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.sum(np.abs(c))


@pytest.mark.parametrize("backward", [False, True])
def test_static_b0_matches_eigenbasis_sum(backward):
    chain, e0 = FiniteChain(30, 5.0), 0.4
    lam, vec = star_eigh(e0, chain)
    traj = run(e0, chain, -25.0 if backward else 25.0, 0.008)
    ref = np.exp(-1j * np.outer(traj.times, lam)) @ vec[0] ** 2
    assert np.max(np.abs(traj.b0 - ref)) < 1e-13
    assert traj.b0[0] == 1.0
    ref_br = vec[1:] @ (np.exp(-1j * lam * traj.times[-1]) * vec[0])
    assert np.max(np.abs(traj.br - ref_br)) <= 1e-12
    assert traj.norm_drift < 1e-13


@pytest.mark.parametrize("t_end, first_bad", [(6.0, 1.9357), (-6.0, -0.3649)])
def test_chain_barrier_with_nonpositive_w_raises_at_first_midpoint(t_end, first_bad):
    # w = 1 + 1.5 sin 2t <= 0 once sin 2t <= -2/3: first at (pi + asin(2/3))/2
    # going forward and at -asin(2/3)/2 going back
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=1.5, omega=2.0))
    cfg = SolverConfig(dt=2e-3, t_end=t_end)
    with pytest.raises(SolverError, match="barrier profile") as err:
        solve(p, FiniteChain(20, 4.0), cfg)
    named = float(str(err.value).rsplit("t = ", 1)[1])
    assert abs(named - first_bad) <= cfg.dt


@pytest.mark.parametrize("t_end, dt", [(45.0, 5e-3), (-10.0, 2e-3)])
def test_chain_barrier_guard_names_the_first_bad_midpoint_in_a_later_chunk(t_end, dt):
    # w = 1 + 1.5 sin(t / 10) first reaches 0 at t = 38.7 going forward, on step 7,742
    # (the fourth chunk of node values), and at t = -7.30 going back, on step 3,649
    # (the second); the steps before it run, and the error names the same t as a
    # check over every midpoint at once
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=1.5, omega=0.1))
    cfg = SolverConfig(dt=dt, t_end=t_end)
    times = _grid(cfg)
    mids = times[:-1] + 0.5 * (times[1] - times[0])
    first = int(np.flatnonzero(p.w_at(mids) <= 0.0)[0])
    assert first >= _CHUNK_BLOCKS * _BLOCK
    with pytest.raises(SolverError, match=f"at t = {mids[first]:.4g}$"):
        solve(p, FiniteChain(20, 4.0), cfg)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 40),
    w=st.floats(2.0, 8.0),
    e0=st.floats(-2.0, 2.0),
    u=st.floats(0.0, 3.0),
    omega=st.floats(0.5, 4.0),
)
def test_reversal_and_unitarity_over_small_chains(n, w, e0, u, omega):
    chain = FiniteChain(n, w)
    t_end = 2.0
    static = SystemParams(e0=e0)
    dt = default_dt(static, chain)
    fwd = run(e0, chain, t_end, dt)
    bwd = run(e0, chain, -t_end, dt)
    assert np.max(np.abs(bwd.b0 - np.conj(fwd.b0))) < 1e-12
    drive = LevelDrive(u, omega)
    dt = default_dt(SystemParams(e0=e0, level_drive=drive), chain)
    for sign in (1.0, -1.0):
        traj = run(e0, chain, sign * t_end, dt, level_drive=drive)
        assert abs(end_norm(traj) - 1.0) <= 1e-8 * t_end
        assert traj.norm_drift <= 1e-8 * t_end


@pytest.mark.parametrize("t_end", [3.0, -3.0])
@pytest.mark.parametrize(
    "drive",
    [{"level_drive": LevelDrive(u=1.5, omega=2.0)}, {"barrier_drive": BarrierDrive(0.6, 1.5)}],
    ids=["level", "barrier"],
)
def test_driven_chain_matches_step_by_step_strang(drive, t_end):
    check_against_strang_reference(SystemParams(e0=0.4, **drive), FiniteChain(40, 5.0), 4e-3, t_end)


@pytest.mark.parametrize(
    "steps",
    [1, _SUB - 1, _SUB, _SUB + 1, _BLOCK + _SUB + 3, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1,
     _CHUNK_BLOCKS * _BLOCK + 5],
)
def test_driven_chain_sub_block_edges(steps):
    # fewer steps than one sub-block, a partial last sub-block, one past a
    # block, a last block one short of full, full and of one step (the carried
    # modes end on step n, not on a padded step), and one past the first chunk
    # of node values and transfer matrices
    params = SystemParams(e0=-0.3, level_drive=LevelDrive(u=1.0, omega=3.0))
    check_against_strang_reference(params, FiniteChain(12, 4.0), 2e-3, steps * 2e-3)


def test_benchmark_driven_chain_memory_holds_no_whole_run_table():
    # the benchmark's survival-chain-level run, N = 250 and 33,333 steps. Measured
    # peak 3.46 MB: y, which is the returned b0 (0.53 MB), the phase table of B = 256
    # lags (1.02 MB) and one chunk of transfer matrices (1.15 MB) with its node values. The
    # step values of the whole run (1.6 MB) and the modes at the 131 block ends
    # (0.52 MB) held 5.52 MB; g of the whole run and a copy of y into b0 6.12 MB; the
    # n-lag kernel table with its block spectra and their ring, which the modes
    # replace, 12.34 MB. The drift reads 2.4e-14; a block phase taken as the B-th power
    # of e^{-i E_r h} reads 3.6e-13
    params = SystemParams(e0=0.758, level_drive=LevelDrive(u=1.0, omega=1.0))
    tracemalloc.start()
    try:
        traj = solve(params, FiniteChain(250, 6.0), SolverConfig(dt=0.003, t_end=100.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 33_334 and traj.norm_drift <= 1e-13
    assert peak <= 4.5e6


def test_long_driven_chain_memory_is_its_output_and_fixed_blocks():
    # N = 250 over 100,000 steps. Measured peak 5.11 MB: b0 (1.6 MB) beside the fixed
    # blocks of the run above. The node values of every step (4.8 MB) or the modes at
    # its 391 block ends (1.56 MB) would take it past the bound; both held 11.4 MB
    params = SystemParams(e0=0.5, level_drive=LevelDrive(u=1.0, omega=1.0))
    tracemalloc.start()
    try:
        traj = solve(params, FiniteChain(250, 6.0), SolverConfig(dt=0.003, t_end=300.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 100_001 and traj.norm_drift <= 1e-13
    assert peak <= 6.0e6


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    e0=st.floats(-2.0, 2.0),
    u=st.floats(0.0, 3.0),
    omega=st.floats(0.5, 4.0),
    alpha=st.floats(0.0, 0.9),
    level=st.booleans(),
    sign=st.sampled_from([1.0, -1.0]),
)
# an idle drive is no drive: the run is the static one, by the secular equation
@example(e0=0.0, u=0.0, omega=2.0, alpha=0.5, level=True, sign=1.0)
@example(e0=0.0, u=1.0, omega=1.5, alpha=0.0, level=False, sign=-1.0)
def test_driven_chain_matches_strang_reference_random(e0, u, omega, alpha, level, sign):
    if level:
        params = SystemParams(e0=e0, level_drive=LevelDrive(u, omega))
    else:
        params = SystemParams(e0=e0, barrier_drive=BarrierDrive(alpha, omega))
    chain = FiniteChain(20, 4.0)
    dt = default_dt(params, chain)
    if (u if level else alpha) == 0.0:
        traj = solve(params, chain, SolverConfig(dt=dt, t_end=sign * 1.5))
        static = solve(SystemParams(e0=e0), chain, SolverConfig(dt=dt, t_end=sign * 1.5))
        assert params.static and traj.method == "eigendecomposition"
        assert np.array_equal(traj.b0, static.b0) and np.array_equal(traj.br, static.br)
    else:
        check_against_strang_reference(params, chain, dt, sign * 1.5)
