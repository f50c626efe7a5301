"""Numerical solvers against closed-form oracles, symmetry, and order checks."""

import math
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from conftest import MismatchError, convergence_order, kernel_lags
from hypothesis import example, given, settings
from hypothesis import strategies as st

from welldecay import closedform, solvers
from welldecay.chain import evolve_chain, revival_time
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
    _RK4_CHUNK,
    _RK4_ROW,
    _SUB,
    _static_block,
    DIVERGENCE_LIMIT,
    AmplitudeTrajectory,
    ResolutionError,
    SolverConfig,
    SolverError,
    default_dt,
    routes_for,
    solve,
    solve_lorentzian_ode,
    solve_volterra,
    solve_wideband,
)
from welldecay.spectra import spectrum_from_trajectory


@dataclass(frozen=True)
class WeightedLorentzian(Lorentzian):
    """Lorentzian whose kernel is scaled by weight: 0 decouples the level,
    a negative weight makes the memory feed the amplitude."""

    weight: float = 1.0

    def kernel(self, dt, n):
        a, theta = super().kernel(dt, n)
        return self.weight * a, theta


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
    kern = kernel_lags(sd, cfg.dt, n)
    w, e0 = params.w_at(times), params.e0_at(times)
    b = np.zeros(n + 1, dtype=complex)
    f = np.empty(n + 1, dtype=complex)
    b[0], f[0] = 1.0, -1j * e0[0]
    g = w * b
    for k in range(1, n + 1):
        kw = kern[k:0:-1]  # K[(k-j) dt] for j = 0 .. k-1
        base = np.dot(kw, g[:k]) - 0.5 * kw[0] * g[0]
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


def rk4_reference(params, sd, cfg):
    """The RK4 steps y_{k+1} = P_k y_k applied one at a time, with P_k from one
    solvers._rk4_propagators call over the whole run.

    Returns the times and b0 up to the first step with |b0| beyond
    DIVERGENCE_LIMIT, or up to t_end.
    """
    n = max(1, int(round(abs(cfg.t_end) / cfg.dt)))
    times = math.copysign(1.0, cfg.t_end) * cfg.dt * np.arange(n + 1)
    h = times[1] - times[0]
    s, lam = math.copysign(1.0, h), sd.lam
    stages = np.empty(2 * n + 1)
    stages[0::2] = times
    stages[1::2] = times[:-1] + 0.5 * h
    w, e0 = params.w_at(stages), params.e0_at(stages)
    wdw = params.w_rate(stages) / w
    bc = -1j * (e0 - 1j * s * lam + 1j * wdw)
    a = -1j * (params.e0_rate(stages) + (s * lam - wdw) * e0 - 0.5j * lam * w * w)
    b = np.empty(n + 1, dtype=complex)
    y0, y1 = 1.0 + 0.0j, -1j * float(e0[0])
    b[0] = y0
    prop = solvers._rk4_propagators(a, bc, h)
    for k, (p11, p12, p21, p22) in enumerate(zip(*(p.tolist() for p in prop)), 1):
        y0, y1 = p11 * y0 + p12 * y1, p21 * y0 + p22 * y1
        b[k] = y0
        if abs(y0) > DIVERGENCE_LIMIT:
            return times[: k + 1], b[: k + 1]
    return times, b


# --------------------------------------------------------------------------
# memory-integral solver


def test_volterra_free_evolution():
    # a zero-weight kernel decouples the level: pure phase rotation
    p = SystemParams(e0=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=2.0)
    traj = solve(p, WeightedLorentzian(lam=4.0, weight=0.0), cfg, "volterra")
    ref = np.exp(-1j * p.e0 * traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 1e-5


def test_solve_routes_a_reservoir_subclass_by_its_base_class():
    # a subclass keeps the routes of its nearest base class in ROUTES that call
    # its own kernel, in solve and in the CLI's --oracle check alike; a class
    # outside them has none
    sd = WeightedLorentzian(lam=4.0, weight=0.5)
    assert routes_for(sd) == ("volterra",)
    p, cfg = SystemParams(e0=1.0), SolverConfig(dt=1e-3, t_end=2.0)
    assert np.array_equal(solve(p, sd, cfg).b0, solve_volterra(p, sd, cfg).b0)
    assert routes_for(object()) == ()
    with pytest.raises(ModelError, match="solved by one of"):
        solve(p, object(), cfg)


def test_a_reservoir_subclass_is_solved_through_its_own_kernel():
    # "ode" and "closed" read only lam, so they would solve the subclass as a plain
    # Lorentzian: at weight 0 they reach |b0(2)| = 0.402 instead of free evolution
    p, cfg = SystemParams(e0=1.0), SolverConfig(dt=1e-3, t_end=2.0)
    sd = WeightedLorentzian(lam=4.0, weight=0.0)
    traj = solve(p, sd, cfg)
    assert np.max(np.abs(traj.b0 - np.exp(-1j * p.e0 * traj.times))) < 1e-5
    for method in ("ode", "closed"):
        with pytest.raises(ModelError, match="solved by one of"):
            solve(p, sd, cfg, method)


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


def lags(self, dt, n):  # the kernel's values at the lags, not its modes
    return 0.5 * self.lam * np.exp(-self.lam * dt * np.arange(n + 1))


@pytest.mark.parametrize(
    "kernel, steps",
    [(lags, 1000), (lags, 1), (lambda self, dt, n: None, 10),
     (lambda self, dt, n: (np.ones(3), np.ones(2)), 10),
     (lambda self, dt, n: (np.ones((2, 2)), np.ones((2, 2))), 10),
     (lambda self, dt, n: (np.ones(2), np.ones(2), np.ones(2)), 10)],
    ids=["lags", "two-lags", "none", "unequal", "2-d", "triple"],
)
def test_volterra_rejects_a_kernel_that_is_not_modes(kernel, steps):
    # a kernel is its modes (a, theta); lags of an older override, of any length, are
    # refused at the boundary with the contract named
    sd = type("Override", (Lorentzian,), {"kernel": kernel})(4.0)
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3)
    with pytest.raises(ModelError, match=r"must return modes \(a, theta\)"):
        solve(SystemParams(e0=0.5), sd, cfg, "volterra")


def test_volterra_divergence_guard():
    # a negative-weight kernel is unphysical and feeds the amplitude: the
    # solver must detect the blow-up instead of returning garbage, at the
    # first such step and not at the end of a history block. The 1600 steps
    # run in static blocks of _static_block(1600) = 256: step 33, in the first
    # block, for weight = -40; step 634, in the third, for -0.5; step 5 for
    # -2000, whose block ends near 1e34, so that FFT rounding alone would put
    # its first steps past the limit; and step 1 for -1e7, whose block
    # overflows to inf and NaN, with no floating-point warning on the way
    assert _static_block(1600) == 256
    p = SystemParams(e0=0.0)
    for weight in (-40.0, -0.5, -2000.0, -1e7):
        for t_end in (8.0, -8.0):
            sd = WeightedLorentzian(lam=4.0, weight=weight)
            cfg = SolverConfig(dt=5e-3, t_end=t_end)
            times, b = volterra_reference(p, sd, cfg)
            assert abs(b[-1]) > DIVERGENCE_LIMIT
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SolverError, match=f"at t = {times[-1]:.4g}$"):
                    solve(p, sd, cfg, "volterra")


def test_static_recurrence_keeps_y_and_g_in_one_array_when_they_coincide(monkeypatch):
    # the recurrence returns y, the caller's b0, with the carried modes at its block
    # ends, and keeps g one block at a time: y is the run's one n-long array. The
    # 48,000-step lambda = 200 run peaks at 3.15 MB traced, and a second g of the whole
    # run (0.77 MB) would take it past the bound. Every static run is found static, the
    # chain under an idle drive at E0 = 0 too, whose node values are constant
    runs, static = [], []
    recurrence, responses = solvers._memory_recurrence, solvers._block_responses

    def recorded(*args, **kwargs):
        runs.append(recurrence(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(solvers, "_memory_recurrence", recorded)
    monkeypatch.setattr("welldecay.chain._memory_recurrence", recorded)
    monkeypatch.setattr(solvers, "_block_responses", lambda *a: static.append(1) or responses(*a))
    cfg = SolverConfig(dt=4e-3, t_end=2.0)
    solve_volterra(SystemParams(e0=0.7), Semicircle(6.0), cfg)
    solve_volterra(SystemParams(e0=0.7), Lorentzian(4.0), replace(cfg, t_end=-2.0))
    idle, chain = SystemParams(e0=0.0, level_drive=LevelDrive(u=0.0, omega=2.0)), FiniteChain(20, 4.0)
    solve(idle, chain, SolverConfig(dt=default_dt(idle, chain), t_end=1.5))
    assert len(static) == 3
    for y, (ends, amps) in runs:
        assert y.size == ends[-1] + 1 and amps.shape[0] == ends.size
    assert [amps.shape[1] for _, (_, amps) in runs[1:]] == [1, 20]
    p, sd = SystemParams(e0=0.3), Lorentzian(200.0)
    tracemalloc.start()
    try:
        traj = solve_volterra(p, sd, SolverConfig(dt=default_dt(p, sd), t_end=6.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 48_001 and peak <= 3.5e6


@settings(max_examples=18, derandomize=True, deadline=None)  # 23 with the five below
@given(
    semicircle=st.booleans(),
    width=st.floats(5.0, 20.0),
    n=st.sampled_from([1, 5, _SUB, _SUB + 1, 31, 32, 33, 256, 257, 3 * 64 + 5, 1600]),
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
@example(semicircle=False, width=20.0, n=3 * _CHUNK_BLOCKS * _BLOCK, e0=0.4, drive="level",
         sign=-1.0, frac=0.95)
def test_volterra_matches_direct_history_sum(semicircle, width, n, e0, drive, sign, frac):
    # the blocked history (carried modes, dense sub-blocks, transfer matrices, static
    # block responses) against the direct sum: below one sub-block, at one and one
    # past one sub-block and driven block, one short of, at and one past one static
    # block of 32 steps, three static blocks of 64 and five steps, over several
    # blocks, and one past the first batch of driven transfer matrices, with the
    # Lorentzian's mode decayed to 1e-17 of K(0) within 800 lags when lam dt ~ 0.05,
    # and carried over 24 blocks
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


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65, 3 * 64 + 5, 1023, 1024, 1025,
                               12 * 256 + 5, 16 * 1024 + 5])
@settings(max_examples=2, derandomize=True, deadline=None)  # 5 with the three below
@given(
    semicircle=st.booleans(),
    width=st.floats(5.0, 20.0),
    e0=st.floats(-2.0, 2.0),
    sign=st.sampled_from([1.0, -1.0]),
    frac=st.floats(0.6, 0.99),
)
@example(semicircle=False, width=20.0, e0=0.0, sign=1.0, frac=0.99)
@example(semicircle=False, width=5.0, e0=1.5, sign=-1.0, frac=0.6)
@example(semicircle=True, width=6.0, e0=0.5, sign=-1.0, frac=0.9)
def test_static_volterra_matches_direct_history_sum(n, semicircle, width, e0, sign, frac):
    # the static block responses against the direct sum at the edges of the block
    # length rule: one short of, at and one past one block of 32 and of 64 steps,
    # three blocks of 64 and five steps, the last run of 128-step blocks and the
    # first of 256, 12 blocks of 256 and 16 of 1024 with five steps more (the
    # semicircle's modes lower the longest to 256); a Lorentzian kernel that decays
    # within one block and one that reaches over several, and a full-history
    # semicircle, both signs of t
    blocks = {31: 32, 32: 32, 33: 32, 63: 32, 64: 64, 65: 64, 197: 64, 1023: 128,
              1024: 256, 1025: 256, 3077: 256, 16389: 1024}
    assert _static_block(n) == blocks[n]
    sd = Semicircle(width) if semicircle else Lorentzian(width)
    p = SystemParams(e0=e0)
    dt = 2.0 * frac * default_dt(p, sd)
    cfg = SolverConfig(dt=dt, t_end=sign * n * dt)
    traj = solve_volterra(p, sd, cfg)
    times, ref = volterra_reference(p, sd, cfg)
    assert traj.times.size == n + 1 and np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.b0 - ref)) <= 1e-13
    mirror = solve_volterra(p, sd, SolverConfig(dt=dt, t_end=-cfg.t_end))
    assert np.max(np.abs(mirror.b0 - np.conj(traj.b0))) <= 1e-13


@pytest.mark.parametrize(
    "sd, steps, dt, driven, block, modes",
    [(Lorentzian(200.0), 48_000, 1.25e-4, False, 1024, 1),
     (Semicircle(6.0), 4096, 150.0 / (6.0 * 4096), False, 512, 116),
     (Semicircle(6.0), 20_160, 84.0 / 20_160, False, 256, 309),
     (Semicircle(6.0), 100, 4e-3, False, 64, 19),
     (Lorentzian(4.0), 4096, 1e-3, True, _BLOCK, 1)],
)
def test_block_length_keeps_the_phase_table_within_its_budget(
    monkeypatch, sd, steps, dt, driven, block, modes
):
    # one block rule: a static run takes _static_block(n), halved while its table of
    # B lags by R modes exceeds 2^16 entries but not below _BLOCK (the benchmark's
    # lambda = 200 run keeps 1024, its semicircle gets 256); a driven run takes _BLOCK
    assert _static_block(steps) == {48_000: 1024, 4096: 512, 20_160: 1024, 100: 64}[steps]
    runs, recurrence = [], solvers._memory_recurrence
    monkeypatch.setattr(solvers, "_memory_recurrence",
                        lambda *a: runs.append(recurrence(*a)) or runs[-1])
    drive = LevelDrive(u=1.0, omega=2.0) if driven else None
    solve_volterra(SystemParams(e0=0.3, level_drive=drive), sd, SolverConfig(dt, steps * dt))
    (_, (ends, amps)), = runs
    assert ends[0] == block and ends[-1] == steps and amps.shape[1] == modes


@pytest.mark.parametrize(
    "steps",
    [1, 2, _SUB - 1, _SUB, _SUB + 1, 3 * _SUB + 5, _BLOCK + _SUB + 3, _CHUNK_BLOCKS * _BLOCK + 5,
     31, 32, 33, 3 * 64 + 5, _BLOCK + 35],
)
@pytest.mark.parametrize("driven", [False, True])
def test_volterra_sub_block_edges(steps, driven):
    # node 0 enters with half weight as g_{-1} in every step's memory; a run shorter
    # than one sub-block, partial last sub-blocks, one past a block and one
    # past the first batch of transfer matrices all match the direct sum, and
    # so do a static run one short of, at and one past one block of 32 steps,
    # one of three blocks of 64 and five steps, and one of two blocks of 128
    # and 35 steps
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


@settings(max_examples=16, derandomize=True, deadline=None)  # 20 with the four below
@given(
    n=st.sampled_from([1, _RK4_ROW - 1, _RK4_ROW, _RK4_ROW + 1, _RK4_CHUNK - 1, _RK4_CHUNK,
                       _RK4_CHUNK + 1, 3 * _RK4_CHUNK + 5]),
    lam=st.floats(2.0, 20.0),
    e0=st.floats(-2.0, 2.0),
    drive=st.sampled_from([None, "level", "barrier"]),
    sign=st.sampled_from([1.0, -1.0]),
    frac=st.floats(0.6, 0.99),
)
@example(n=_RK4_CHUNK + 1, lam=4.0, e0=0.5, drive=None, sign=-1.0, frac=0.9)
@example(n=3 * _RK4_CHUNK + 5, lam=4.0, e0=-1.0, drive="level", sign=1.0, frac=0.99)
@example(n=3 * _RK4_CHUNK + 5, lam=10.0, e0=0.3, drive="barrier", sign=-1.0, frac=0.7)
@example(n=_RK4_ROW + 1, lam=20.0, e0=1.5, drive="barrier", sign=1.0, frac=0.6)
def test_ode_matches_rk4_steps_in_turn(n, lam, e0, drive, sign, frac):
    # the running products of rows of _RK4_ROW steps, carried across row and chunk
    # ends, against the steps applied one at a time: a run of one step, one short
    # of, at and one past a row and a chunk, and a partial row after three chunks
    level = LevelDrive(u=1.5, omega=3.0) if drive == "level" else None
    barrier = BarrierDrive(alpha=0.5, omega=3.0) if drive == "barrier" else None
    p = SystemParams(e0=e0, level_drive=level, barrier_drive=barrier)
    dt = 2.0 * frac * default_dt(p, Lorentzian(lam))
    cfg = SolverConfig(dt=dt, t_end=sign * n * dt)
    traj = solve_lorentzian_ode(p, Lorentzian(lam), cfg)
    times, ref = rk4_reference(p, Lorentzian(lam), cfg)
    assert traj.times.size == n + 1 and np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.b0 - ref)) <= 1e-13


@pytest.mark.parametrize("growth", [1.0015, 1.05, 1e30])
@pytest.mark.parametrize("t_end", [8.0, -8.0])
def test_ode_divergence_guard_names_the_first_step(monkeypatch, growth, t_end):
    # step matrices scaled by growth drive |b0| past the limit: in the second chunk
    # (1.0015, step 1430), in the first row (1.05), and at the first step (1e30),
    # where the running products of every row overflow to inf and nan; the first
    # step beyond the limit is named, with no floating-point warning on the way
    steps = solvers._rk4_propagators
    monkeypatch.setattr(solvers, "_rk4_propagators",
                        lambda a, b, h: tuple(growth * p for p in steps(a, b, h)))
    p, sd = SystemParams(e0=0.5), Lorentzian(4.0)
    cfg = SolverConfig(dt=2e-3, t_end=t_end)
    times, ref = rk4_reference(p, sd, cfg)
    assert abs(ref[-1]) > DIVERGENCE_LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=f"at t = {times[-1]:.4g}$"):
            solve(p, sd, cfg, "ode")


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
        c2_ref, c3_ref = closedform.short_time_coefficients(lam)
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


def test_two_sided_grid():
    p = SystemParams(e0=1.0)
    both = solve(p, WideBand(), SolverConfig(dt=1e-2, t_end=2.0, t_start=-2.0))
    assert both.times[0] == -2.0 and both.times[-1] == 2.0
    assert np.all(np.diff(both.times) > 0)
    assert both.b0[both.index_of(0.0)] == 1.0
    # t_start on the positive side runs the grid down from it through 0 to t_end
    down = solve(p, WideBand(), SolverConfig(dt=1e-2, t_end=-2.0, t_start=2.0))
    assert down.times[0] == 2.0 and down.times[-1] == -2.0
    assert np.array_equal(down.b0, both.b0[::-1])


DRIVES = {"static": {}, "level": {"level_drive": LevelDrive(1.0, 2.0)},
          "barrier": {"barrier_drive": BarrierDrive(0.3, 2.0)}}
# every route of solve under every drive it takes (the Lorentzian closed form is static)
DRIVEN_ROUTES = [
    pytest.param(sd, method, DRIVES[d], id=f"{type(sd).__name__}-{method}-{d}")
    for sd in (WideBand(), Lorentzian(4.0), Semicircle(6.0), FiniteChain(40, 6.0))
    for method in routes_for(sd)
    for d in DRIVES
    if d == "static" or not (isinstance(sd, Lorentzian) and method == "closed")
]


@pytest.mark.parametrize("reservoir,method,drive", DRIVEN_ROUTES)
def test_two_sided_run_is_the_two_one_sided_runs(reservoir, method, drive):
    p = SystemParams(e0=0.7, **drive)
    dt = default_dt(p, reservoir)
    both = solve(p, reservoir, SolverConfig(dt, 3.0, tolerance=1e-6, t_start=-2.0), method)
    pos = solve(p, reservoir, SolverConfig(dt, 3.0), method)
    neg = solve(p, reservoir, SolverConfig(dt, -2.0), method)
    i0 = both.index_of(0.0)
    assert i0 == neg.times.size - 1
    for joined, a, b in ((both.times, neg.times, pos.times), (both.b0, neg.b0, pos.b0)):
        assert np.array_equal(joined[i0:], b) and np.array_equal(joined[i0::-1], a)
    assert both.method == pos.method
    assert both.cfg == SolverConfig(dt, 3.0, tolerance=pos.cfg.tolerance, t_start=-2.0)
    if pos.br is None:
        assert both.br is None and both.norm_drift is None
    else:
        assert np.array_equal(both.br, pos.br)
        assert both.norm_drift == max(pos.norm_drift, neg.norm_drift)


def test_revival_and_spectrum_read_the_t_end_side():
    p = SystemParams(e0=0.3)
    chain = FiniteChain(40, 6.0)
    cfg = SolverConfig(5e-3, 30.0, t_start=-10.0)
    t_rev = revival_time(solve(p, chain, cfg))
    assert t_rev is not None and t_rev == revival_time(solve(p, chain, replace(cfg, t_start=0.0)))
    grid = np.linspace(-20.0, 20.0, 201)
    level = SystemParams(e0=0.3, level_drive=LevelDrive(1.0, 2.0))
    cfg = SolverConfig(5e-3, 4.0, t_start=-3.0)
    two = spectrum_from_trajectory(solve(level, WideBand(), cfg), grid)
    one = spectrum_from_trajectory(solve(level, WideBand(), replace(cfg, t_start=0.0)), grid)
    assert np.array_equal(two.values, one.values) and two.time == one.time == 4.0
    # a run that never reaches t > 0 is still refused
    neg = solve(level, WideBand(), SolverConfig(5e-3, -4.0, t_start=3.0))
    with pytest.raises(ModelError, match="ascending grid starting at t = 0"):
        spectrum_from_trajectory(neg, grid)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(e0=st.floats(-3.0, 3.0), lam=st.floats(0.5, 20.0), w_band=st.floats(1.0, 20.0),
       t=st.floats(0.5, 3.0))
def test_static_two_sided_run_is_time_symmetric(e0, lam, w_band, t):
    # b0(-t) = conj b0(t) inside one trajectory on [-t, t], for every route
    p = SystemParams(e0=e0)
    for sd in (WideBand(), Lorentzian(lam), Semicircle(w_band), FiniteChain(40, w_band)):
        for method in routes_for(sd):
            traj = solve(p, sd, SolverConfig(default_dt(p, sd), t, t_start=-t), method)
            # measured over 200 draws: at most 3.1e-16 on the Volterra route, 0 on the others
            assert np.max(np.abs(traj.b0[::-1] - np.conj(traj.b0))) < 1e-14, (sd, method)


def test_t_start_must_lie_across_t_0_and_routes_run_one_side():
    for t_start, t_end in ((1.0, 2.0), (-1.0, -2.0)):
        with pytest.raises(ModelError, match="SolverConfig.t_start must be 0 or on the other"):
            SolverConfig(dt=0.01, t_end=t_end, t_start=t_start)
    p, cfg = SystemParams(e0=0.5), SolverConfig(dt=0.01, t_end=1.0, t_start=-1.0)
    for route in (lambda: solve_wideband(p, cfg),
                  lambda: solve_volterra(p, Lorentzian(4.0), cfg),
                  lambda: solve_lorentzian_ode(p, Lorentzian(4.0), cfg),
                  lambda: evolve_chain(p, FiniteChain(20, 3.0), cfg)):
        with pytest.raises(ModelError, match="call solve"):
            route()


def test_trajectory_needs_its_t0_node_and_finds_only_grid_nodes():
    p, cfg = SystemParams(e0=0.0), SolverConfig(dt=0.1, t_end=0.2)
    for times, b0 in (([0.1, 0.2], [1.0, 0.9]), ([0.0, 0.1], [0.9, 0.8])):
        with pytest.raises(SolverError, match="must contain t = 0"):
            AmplitudeTrajectory(np.array(times), np.array(b0, dtype=complex), p, WideBand(),
                                cfg, "hand-built")
    traj = solve_wideband(p, SolverConfig(dt=0.01, t_end=1.0))
    assert traj.index_of(0.5) == 50
    with pytest.raises(KeyError, match="not a grid node"):
        traj.index_of(0.505)


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


@settings(max_examples=6, derandomize=True, deadline=None)  # 7 with the one below
@given(e0=st.floats(-2.0, 2.0))
@example(e0=0.5)
def test_every_route_agrees_over_e0(e0):
    # one level width, the unit, for every reservoir: the routes agree at any E0
    p = SystemParams(e0=e0)
    cfg = SolverConfig(dt=2e-3, t_end=3.0)
    closed = solve(p, Lorentzian(4.0), cfg, "closed").b0
    # measured over E0 in [-2, 2]: 8.0e-12 and 5.9e-6
    assert np.max(np.abs(solve(p, Lorentzian(4.0), cfg, "ode").b0 - closed)) < 1e-10
    assert np.max(np.abs(solve(p, Lorentzian(4.0), cfg, "volterra").b0 - closed)) < 2e-5
    for t_end in (3.0, -3.0):
        wide = solve(p, WideBand(), SolverConfig(dt=2e-3, t_end=t_end))
        assert np.max(np.abs(wide.p0 - np.exp(-np.abs(wide.times)))) < 1e-14
    cfg = SolverConfig(dt=5e-3, t_end=5.0)
    semi = solve(p, Semicircle(6.0), cfg)
    chain = solve(p, FiniteChain(250, 6.0), cfg)
    # measured 1.1e-5 over E0 in [-2, 2], the Volterra discretization error
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

    def run(dt, params=p1):
        return solve_lorentzian_ode(params, Lorentzian(4.0), SolverConfig(dt=dt, t_end=1.0))

    coarse, fine, ref = run(1e-2), run(5e-3), run(2.5e-3)
    with pytest.raises(MismatchError, match="fine run must halve"):
        convergence_order(coarse, run(4e-3), ref)
    with pytest.raises(MismatchError, match="reference run must halve"):
        convergence_order(coarse, fine, run(2e-3))
    with pytest.raises(MismatchError, match="reference run differs"):
        convergence_order(coarse, fine, run(2.5e-3, p2))


def test_default_dt_obeys_resolution_rule():
    p = SystemParams(e0=3.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    dt = default_dt(p, Lorentzian(4.0))
    assert dt * max(4.0, abs(p.e0) + 3.0, 2.0) <= 0.05


def test_default_dt_rejects_a_reservoir_without_a_band():
    with pytest.raises(ModelError, match="no resolution band for reservoir <object"):
        default_dt(SystemParams(e0=0.0), object())
