"""Numerical solvers against closed-form oracles, symmetry, and order checks."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from welldecay import closedform
from welldecay.chain import evolve_chain
from welldecay.model import (
    BarrierDrive,
    FiniteChain,
    LevelDrive,
    Lorentzian,
    ModelError,
    Semicircle,
    SystemParams,
    WideBand,
)
from welldecay.solvers import (
    _BLOCK,
    _CHUNK_BLOCKS,
    _SUB,
    DIVERGENCE_LIMIT,
    KERNEL_TRUNCATION,
    AmplitudeTrajectory,
    MismatchError,
    ResolutionError,
    SolverConfig,
    SolverError,
    combine_signed,
    convergence_order,
    default_dt,
    solve,
    solve_lorentzian_ode,
    solve_volterra,
    solve_wideband,
)


@dataclass(frozen=True)
class WeightedLorentzian(Lorentzian):
    """Lorentzian whose kernel carries weight * Gamma: 0 decouples the level,
    a negative weight makes the memory feed the amplitude."""

    weight: float = 1.0

    def kernel(self, dt, n, gamma):
        return super().kernel(dt, n, self.weight * gamma)


def lorentzian_oracle(params, lam):
    return lambda t: closedform.b0_lorentzian_static(params, lam, t)


def volterra_reference(params, sd, cfg):
    """The direct trapezoid + Heun scheme, one O(k) history sum per step.

    Returns the times and b0 up to the first step with |b0| beyond
    DIVERGENCE_LIMIT, or up to t_end.
    """
    n = max(1, int(round(abs(cfg.t_end) / cfg.dt)))
    times = math.copysign(1.0, cfg.t_end) * cfg.dt * np.arange(n + 1)
    h = times[1] - times[0]
    kern = sd.kernel(cfg.dt, n, params.gamma)
    cutoff = sd.kernel_cutoff(KERNEL_TRUNCATION)
    jcut = n if cutoff is None else min(n, int(math.ceil(cutoff / cfg.dt)))
    w, e0 = params.w_at(times), params.e0_at(times)
    b = np.zeros(n + 1, dtype=complex)
    f = np.empty(n + 1, dtype=complex)
    b[0], f[0] = 1.0, -1j * e0[0]
    g = w * b
    for k in range(1, n + 1):
        lo = max(0, k - jcut)
        kw = kern[k - lo : 0 : -1]  # K[(k-j) dt] for j = lo .. k-1
        base = np.dot(kw, g[lo:k])
        if lo == 0:
            base -= 0.5 * kw[0] * g[0]
        bp = b[k - 1] + h * f[k - 1]
        integral = h * (base + 0.5 * kern[0] * w[k] * bp)
        fp = -1j * e0[k] * bp - w[k] * integral
        b[k] = b[k - 1] + 0.5 * h * (f[k - 1] + fp)
        integral += 0.5 * h * kern[0] * w[k] * (b[k] - bp)
        f[k] = -1j * e0[k] * b[k] - w[k] * integral
        g[k] = w[k] * b[k]
        if abs(b[k]) > DIVERGENCE_LIMIT:
            return times[: k + 1], b[: k + 1]
    return times, b


# --------------------------------------------------------------------------
# memory-integral solver


def test_volterra_free_evolution():
    # a zero-weight kernel decouples the level: pure phase rotation
    p = SystemParams(e0=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=2.0)
    traj = solve_volterra(p, WeightedLorentzian(lam=4.0, weight=0.0), cfg)
    ref = np.exp(-1j * p.e0 * traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 1e-5


def test_volterra_matches_lorentzian_closed_form():
    p = SystemParams(e0=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=10.0)
    traj = solve_volterra(p, Lorentzian(4.0), cfg)
    ref = closedform.b0_lorentzian_static(p, 4.0, traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 1e-6


def test_volterra_negative_time_is_conjugate():
    p = SystemParams(e0=1.0)
    fwd = solve_volterra(p, Lorentzian(4.0), SolverConfig(dt=1e-3, t_end=3.0))
    bwd = solve_volterra(p, Lorentzian(4.0), SolverConfig(dt=1e-3, t_end=-3.0))
    i3 = fwd.index_of(3.0)
    j3 = bwd.index_of(-3.0)
    assert abs(bwd.b0[j3] - np.conj(fwd.b0[i3])) < 1e-6
    ref = closedform.b0_lorentzian_static(p, 4.0, bwd.times)
    assert np.max(np.abs(bwd.b0 - ref)) < 1e-6


def test_volterra_semicircle_against_chain():
    # the exact finite reservoir is the from-first-principles reference
    p = SystemParams(e0=1.0)
    cfg = SolverConfig(dt=5e-3, t_end=5.0)
    traj = solve_volterra(p, Semicircle(6.0), cfg)
    chain = solve(p, FiniteChain(250, 6.0), cfg)
    # measured 8.76e-6, the Volterra discretization error at dt = 5e-3
    assert np.max(np.abs(traj.p0 - chain.p0)) < 2e-5


def test_volterra_rejects_wideband_and_too_coarse_steps():
    p = SystemParams(e0=0.0)
    for sd in (WideBand(), FiniteChain(10, 6.0)):
        with pytest.raises(ModelError, match="Lorentzian or Semicircle"):
            solve_volterra(p, sd, SolverConfig(dt=1e-3, t_end=1.0))
    with pytest.raises(ResolutionError):
        solve_volterra(p, Lorentzian(4.0), SolverConfig(dt=0.1, t_end=1.0))


def test_volterra_divergence_guard():
    # a negative-weight kernel is unphysical and feeds the amplitude: the
    # solver must detect the blow-up instead of returning garbage, at the
    # first such step and not at the end of a history block (step 33, in
    # the first block, for weight = -40; step 634, in the third, for -0.5)
    p = SystemParams(e0=0.0)
    for weight in (-40.0, -0.5):
        for t_end in (8.0, -8.0):
            sd = WeightedLorentzian(lam=4.0, weight=weight)
            cfg = SolverConfig(dt=5e-3, t_end=t_end)
            times, b = volterra_reference(p, sd, cfg)
            assert abs(b[-1]) > DIVERGENCE_LIMIT
            with pytest.raises(SolverError, match=f"at t = {times[-1]:.4g}$"):
                solve_volterra(p, sd, cfg)


@settings(max_examples=18, derandomize=True, deadline=None)  # 22 with the four below
@given(
    semicircle=st.booleans(),
    width=st.floats(5.0, 20.0),
    n=st.sampled_from([1, 5, _SUB, _SUB + 1, 256, 257, 1600]),
    e0=st.floats(-2.0, 2.0),
    drive=st.sampled_from([None, "level", "barrier"]),
    sign=st.sampled_from([1.0, -1.0]),
    frac=st.floats(0.6, 0.99),
)
@example(semicircle=False, width=20.0, n=1600, e0=0.5, drive=None, sign=1.0, frac=0.99)
@example(semicircle=True, width=6.0, n=1600, e0=-1.0, drive="level", sign=-1.0, frac=0.8)
@example(semicircle=False, width=8.0, n=_CHUNK_BLOCKS * _BLOCK + 5, e0=0.3, drive="barrier",
         sign=1.0, frac=0.9)
@example(semicircle=True, width=5.0, n=_CHUNK_BLOCKS * _BLOCK + 5, e0=1.2, drive="level",
         sign=-1.0, frac=0.7)
def test_volterra_matches_direct_history_sum(semicircle, width, n, e0, drive, sign, frac):
    # the blocked history (FFT blocks, dense sub-blocks, transfer matrices) against
    # the direct sum: below one sub-block, at one and one past one sub-block and
    # block, over several blocks, and one past the first batch of driven transfer
    # matrices, with the Lorentzian's jcut < n when lam dt ~ 0.05
    sd = Semicircle(width) if semicircle else Lorentzian(width)
    level = LevelDrive(u=1.5, omega=3.0) if drive == "level" else None
    barrier = BarrierDrive(alpha=0.5, omega=3.0) if drive == "barrier" else None
    p = SystemParams(e0=e0, level_drive=level, barrier_drive=barrier)
    dt = 2.0 * frac * default_dt(p, sd)
    cfg = SolverConfig(dt=dt, t_end=sign * n * dt)
    traj = solve_volterra(p, sd, cfg)
    times, ref = volterra_reference(p, sd, cfg)
    assert traj.times.size == n + 1 and np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.b0 - ref)) <= 1e-13
    if p.static:
        mirror = solve_volterra(p, sd, SolverConfig(dt=dt, t_end=-cfg.t_end))
        assert np.max(np.abs(mirror.b0 - np.conj(traj.b0))) <= 1e-13


@pytest.mark.parametrize(
    "steps",
    [1, 2, _SUB - 1, _SUB, _SUB + 1, 3 * _SUB + 5, _BLOCK + _SUB + 3, _CHUNK_BLOCKS * _BLOCK + 5],
)
@pytest.mark.parametrize("driven", [False, True])
def test_volterra_sub_block_edges(steps, driven):
    # node 0 enters with half weight as forcing of every step; a run shorter
    # than one sub-block, partial last sub-blocks, one past a block and one
    # past the first batch of transfer matrices all match the direct sum
    drive = LevelDrive(u=1.0, omega=2.0) if driven else None
    p = SystemParams(e0=0.7, level_drive=drive)
    cfg = SolverConfig(dt=4e-3, t_end=steps * 4e-3)
    traj = solve_volterra(p, Semicircle(6.0), cfg)
    times, ref = volterra_reference(p, Semicircle(6.0), cfg)
    assert traj.times.size == steps + 1 and traj.b0[0] == 1.0
    assert np.max(np.abs(traj.b0 - ref)) <= 1e-13


def test_volterra_norm_bound_holds():
    p = SystemParams(e0=3.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    cfg = SolverConfig(dt=2e-3, t_end=6.0)
    traj = solve_volterra(p, Lorentzian(4.0), cfg)
    assert np.max(np.abs(traj.b0)) <= 1.0 + 10.0 * cfg.tolerance


# --------------------------------------------------------------------------
# second-order ODE route


def test_ode_matches_closed_form_tightly():
    p = SystemParams(e0=0.0)
    cfg = SolverConfig(dt=2e-3, t_end=6.0, tolerance=1e-9)
    traj = solve_lorentzian_ode(p, Lorentzian(4.0), cfg)
    ref = np.abs(closedform.b0_lorentzian_static(p, 4.0, traj.times)) ** 2
    assert np.max(np.abs(traj.p0 - ref)) < 1e-8


@pytest.mark.parametrize("e0", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ode_oracle_both_signs(e0, sign):
    p = SystemParams(e0=e0)
    cfg = SolverConfig(dt=2e-3, t_end=sign * 6.0, tolerance=1e-9)
    traj = solve_lorentzian_ode(p, Lorentzian(4.0), cfg)
    ref = closedform.b0_lorentzian_static(p, 4.0, traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 1e-9


def test_ode_level_drive_orderings():
    # detuned level: oscillations speed the decay up; aligned: slow it down
    lam, u, om = 4.0, 3.0, 2.0
    cfg = SolverConfig(dt=2e-3, t_end=6.0)
    for e0, faster in ((3.0, True), (0.0, False)):
        static = solve_lorentzian_ode(SystemParams(e0=e0), Lorentzian(lam), cfg)
        driven = solve_lorentzian_ode(
            SystemParams(e0=e0, level_drive=LevelDrive(u, om)), Lorentzian(lam), cfg
        )
        i4 = static.index_of(4.0)
        if faster:
            assert driven.p0[i4] < static.p0[i4]
        else:
            assert driven.p0[i4] > static.p0[i4]


def test_ode_barrier_drive_always_speeds_decay():
    lam, alpha, om = 4.0, 0.1, 2.0
    cfg = SolverConfig(dt=2e-3, t_end=6.0)
    for e0 in (3.0, 0.0):
        static = solve_lorentzian_ode(SystemParams(e0=e0), Lorentzian(lam), cfg)
        driven = solve_lorentzian_ode(
            SystemParams(e0=e0, barrier_drive=BarrierDrive(alpha, om)), Lorentzian(lam), cfg
        )
        i4 = static.index_of(4.0)
        assert driven.p0[i4] < static.p0[i4]


def test_ode_monotone_decay_static():
    cfg = SolverConfig(dt=2e-3, t_end=6.0)
    for e0 in (0.0, 3.0):
        traj = solve_lorentzian_ode(SystemParams(e0=e0), Lorentzian(4.0), cfg)
        assert np.all(np.diff(traj.p0) < 0.0)


def test_ode_singular_barrier_profile_raises():
    # w = 1 + sin 2t first vanishes at 3 pi/4 going forward and at -pi/4 going back
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=1.0, omega=2.0))
    for t_end, first_zero in ((6.0, 0.75 * math.pi), (-6.0, -0.25 * math.pi)):
        cfg = SolverConfig(dt=2e-3, t_end=t_end)
        with pytest.raises(SolverError, match="barrier profile") as err:
            solve_lorentzian_ode(p, Lorentzian(4.0), cfg)
        named = float(str(err.value).rsplit("t = ", 1)[1])
        assert abs(named - first_zero) <= cfg.dt


def test_short_time_fit_recovers_expansion_coefficients():
    # fit 1 - c2 t^2 + c3 t^3 (+ a quartic nuisance term soaking up the
    # next order) on Gamma t in (0, 0.02]
    for lam in (2.0, 4.0):
        p = SystemParams(e0=1.0)
        cfg = SolverConfig(dt=1e-4, t_end=0.02, tolerance=1e-10)
        traj = solve_lorentzian_ode(p, Lorentzian(lam), cfg)
        t = traj.times[1:]
        y = 1.0 - traj.p0[1:]
        basis = np.vstack([t**2, -(t**3), t**4]).T
        c2, c3, _ = np.linalg.lstsq(basis, y, rcond=None)[0]
        c2_ref, c3_ref = closedform.short_time_coefficients(p, lam)
        assert abs(c2 - c2_ref) < 0.01 * c2_ref
        assert abs(c3 - c3_ref) < 0.01 * c3_ref


# --------------------------------------------------------------------------
# wide-band route


def test_wideband_static_is_exact():
    p = SystemParams(e0=0.7)
    for t_end in (5.0, -5.0):
        traj = solve_wideband(p, SolverConfig(dt=5e-3, t_end=t_end))
        assert np.max(np.abs(traj.p0 - np.exp(-np.abs(traj.times)))) < 1e-12


def test_wideband_level_drive_leaves_survival_unchanged():
    p = SystemParams(e0=2.0, level_drive=LevelDrive(u=5.0, omega=1.5))
    for t_end in (6.0, -6.0):
        traj = solve_wideband(p, SolverConfig(dt=5e-3, t_end=t_end))
        assert np.max(np.abs(traj.p0 - np.exp(-np.abs(traj.times)))) < 1e-12


def test_wideband_barrier_drive_decays_faster_and_monotonically():
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    traj = solve_wideband(p, SolverConfig(dt=2e-3, t_end=8.0))
    assert np.all(np.diff(traj.p0) < 0.0)  # w(t)^2 > 0 keeps the loss rate positive
    # on average the oscillating barrier leaks faster than the static one
    i8 = traj.index_of(8.0)
    assert traj.p0[i8] < math.exp(-8.0)


class TanhRamp(LevelDrive):
    """Level ramp E0(t) = E0 + u tanh(t), a non-sinusoidal profile."""

    def shift(self, t):
        return self.u * np.tanh(t)

    def rate(self, t):
        return self.u / np.cosh(t) ** 2

    def integral(self, t):
        return self.u * np.log(np.cosh(t))


def test_wideband_numeric_quadrature_fallback():
    # a custom profile is a drive subclass; its closed-form integral sets the phase
    p = SystemParams(e0=0.0, level_drive=TanhRamp(u=0.3, omega=1.0))
    traj = solve_wideband(p, SolverConfig(dt=1e-3, t_end=3.0))
    # survival is drive-independent for pure level motion
    assert np.max(np.abs(traj.p0 - np.exp(-traj.times))) < 1e-10
    ref = np.exp(-0.3j * np.log(np.cosh(traj.times)) - 0.5 * traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 1e-10


def test_wideband_cusp_slope_vs_ode_smoothness():
    h = 2e-3
    p = SystemParams(e0=1.0)
    wb = solve_wideband(p, SolverConfig(dt=h, t_end=1.0))
    slope_wb = (wb.p0[1] - wb.p0[0]) / h
    assert abs(slope_wb + 1.0) < 5e-3  # -Gamma out of the cusp
    ode = solve_lorentzian_ode(p, Lorentzian(4.0), SolverConfig(dt=h, t_end=1.0))
    slope_ode = (ode.p0[1] - ode.p0[0]) / h
    assert abs(slope_ode) < 0.02  # quadratic onset: no linear term


# --------------------------------------------------------------------------
# trajectory plumbing


def test_grid_contains_zero_and_unit_initial_value():
    p = SystemParams(e0=0.0)
    traj = solve_wideband(p, SolverConfig(dt=1e-2, t_end=-2.0))
    assert traj.times[0] == 0.0
    assert traj.b0[0] == 1.0
    assert traj.times[-1] == -2.0


def test_nan_amplitude_is_rejected():
    # NaN compares false with the norm bound, so the check must not read it as in bounds
    times = np.array([0.0, 0.1, 0.2])
    cfg = SolverConfig(dt=0.1, t_end=0.2)
    with pytest.raises(SolverError, match="nan"):
        AmplitudeTrajectory(times, np.array([1.0, np.nan, 0.5]), SystemParams(e0=0.0),
                            WideBand(), cfg, "synthetic")


def test_combine_signed_grids():
    p = SystemParams(e0=1.0)
    pos = solve_wideband(p, SolverConfig(dt=1e-2, t_end=2.0))
    neg = solve_wideband(p, SolverConfig(dt=1e-2, t_end=-2.0))
    both = combine_signed(neg, pos)
    assert both.times[0] == -2.0 and both.times[-1] == 2.0
    assert np.all(np.diff(both.times) > 0)
    assert both.b0[both.index_of(0.0)] == 1.0
    with pytest.raises(MismatchError):
        combine_signed(pos, pos)


def check_time_reversal_across_solvers(e0, lam, w_band):
    # every (reservoir, method) route of solve, each against its direct call
    p = SystemParams(e0=e0)
    tol = 1e-6
    lor, semi, chain = Lorentzian(lam), Semicircle(w_band), FiniteChain(80, w_band)
    routes = (
        (WideBand(), "auto", lambda cfg, t: solve_wideband(p, cfg).b0),
        (lor, "auto", lambda cfg, t: solve_lorentzian_ode(p, lor, cfg).b0),
        (lor, "volterra", lambda cfg, t: solve_volterra(p, lor, cfg).b0),
        (lor, "closed", lambda cfg, t: closedform.b0_lorentzian_static(p, lam, t)),
        (semi, "auto", lambda cfg, t: solve_volterra(p, semi, cfg).b0),
        (chain, "auto", lambda cfg, t: evolve_chain(p, chain, cfg).b0),
    )
    for reservoir, method, direct in routes:
        runs = []
        for t_end in (4.0, -4.0):
            cfg = SolverConfig(dt=2e-3, t_end=t_end, tolerance=tol)
            traj = solve(p, reservoir, cfg, method)
            assert np.array_equal(traj.b0, direct(cfg, traj.times)), (reservoir, method)
            runs.append(traj)
        fwd, bwd = runs
        assert np.max(np.abs(bwd.b0 - np.conj(fwd.b0))) < 10.0 * tol, (reservoir, method)
    driven = SystemParams(e0=e0, level_drive=LevelDrive(1.0, 2.0))
    with pytest.raises(ModelError):
        solve(driven, lor, SolverConfig(dt=2e-3, t_end=4.0), "closed")


@pytest.mark.parametrize("reservoir", [WideBand(), Lorentzian(4.0)])
def test_closed_routes_share_one_rule(reservoir):
    # both closed forms keep the resolution rule and a tolerance of at most 1e-12
    p = SystemParams(e0=1.0)
    with pytest.raises(ResolutionError):
        solve(p, reservoir, SolverConfig(dt=0.1, t_end=1.0), "closed")
    for tol, kept in ((1e-6, 1e-12), (1e-14, 1e-14)):
        traj = solve(p, reservoir, SolverConfig(dt=2e-3, t_end=1.0, tolerance=tol), "closed")
        assert traj.cfg.tolerance == kept


@pytest.mark.parametrize("e0", [0.0, 1.0, 3.0])
def test_time_reversal_across_solvers(e0):
    check_time_reversal_across_solvers(e0, lam=4.0, w_band=6.0)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(
    e0=st.floats(-4.0, 4.0),
    lam=st.floats(0.5, 20.0),
    w_band=st.floats(1.0, 20.0),
)
def test_time_reversal_across_solvers_random(e0, lam, w_band):
    # the draws keep dt * max(Gamma, |E0|, L, W + |E0|) <= 0.05 at dt = 2e-3
    check_time_reversal_across_solvers(e0, lam, w_band)


@settings(max_examples=6, derandomize=True, deadline=None)  # 8 with the two below
@given(gamma=st.floats(0.2, 5.0), e0=st.floats(-2.0, 2.0))
@example(gamma=2.0, e0=0.5)
@example(gamma=4.0, e0=0.5)
def test_every_route_reads_gamma_from_params(gamma, e0):
    # one level width for every reservoir: the routes agree at any Gamma
    p = SystemParams(e0=e0, gamma=gamma)
    cfg = SolverConfig(dt=2e-3, t_end=3.0)
    closed = solve(p, Lorentzian(4.0), cfg, "closed").b0
    # measured over Gamma in [0.2, 5], E0 in [-2, 2]: 3.2e-11 and 1.3e-5
    assert np.max(np.abs(solve(p, Lorentzian(4.0), cfg, "ode").b0 - closed)) < 1e-10
    assert np.max(np.abs(solve(p, Lorentzian(4.0), cfg, "volterra").b0 - closed)) < 2e-5
    for t_end in (3.0, -3.0):
        wide = solve(p, WideBand(), SolverConfig(dt=2e-3, t_end=t_end))
        assert np.max(np.abs(wide.p0 - np.exp(-gamma * np.abs(wide.times)))) < 1e-14
    cfg = SolverConfig(dt=5e-3, t_end=5.0)
    semi = solve(p, Semicircle(6.0), cfg)
    chain = solve(p, FiniteChain(250, 6.0), cfg)
    # measured 2.9e-5 at Gamma = 5, the Volterra discretization error
    assert np.max(np.abs(semi.p0 - chain.p0)) < 4e-5


def test_convergence_order_ode_is_fourth():
    p = SystemParams(e0=1.0)
    runs = [
        solve_lorentzian_ode(p, Lorentzian(4.0), SolverConfig(dt=dt, t_end=5.0, tolerance=1e-5))
        for dt in (1e-2, 5e-3)
    ]
    order = convergence_order(runs[0], runs[1], lorentzian_oracle(p, 4.0))
    assert 3.5 <= order <= 4.5


def test_convergence_order_volterra_is_second():
    p = SystemParams(e0=1.0)
    runs = [
        solve_volterra(p, Lorentzian(4.0), SolverConfig(dt=dt, t_end=5.0, tolerance=1e-3))
        for dt in (1e-2, 5e-3)
    ]
    order = convergence_order(runs[0], runs[1], lorentzian_oracle(p, 4.0))
    assert 1.7 <= order <= 2.3


def test_convergence_order_from_three_runs():
    p = SystemParams(e0=1.0)
    runs = [
        solve_volterra(p, Lorentzian(4.0), SolverConfig(dt=dt, t_end=5.0, tolerance=1e-3))
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    order = convergence_order(runs[0], runs[1], runs[2])
    assert 1.7 <= order <= 2.3


def test_convergence_order_degenerate_is_infinite():
    p = SystemParams(e0=1.0)
    a = solve_wideband(p, SolverConfig(dt=1e-2, t_end=2.0))
    b = solve_wideband(p, SolverConfig(dt=5e-3, t_end=2.0))
    assert convergence_order(a, b, lambda t: closedform.b0_markovian_driven(p, t)) == math.inf


def test_convergence_order_mismatch_raises():
    p1, p2 = SystemParams(e0=1.0), SystemParams(e0=2.0)
    a = solve_wideband(p1, SolverConfig(dt=1e-2, t_end=2.0))
    b = solve_wideband(p2, SolverConfig(dt=5e-3, t_end=2.0))
    with pytest.raises(MismatchError):
        convergence_order(a, b, lambda t: closedform.b0_markovian_driven(p1, t))


def test_default_dt_obeys_resolution_rule():
    p = SystemParams(e0=3.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    dt = default_dt(p, Lorentzian(4.0))
    assert dt * max(4.0, abs(p.e0) + 3.0, 2.0) <= 0.05
