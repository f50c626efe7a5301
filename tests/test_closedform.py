"""Closed-form amplitudes and spectra against independent oracles."""

import cmath
import functools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import b0_linear_alpha
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from welldecay import closedform, spectra
from welldecay.bessel import bessel_ive, bessel_j, truncation_order
from welldecay.model import (
    BarrierDrive,
    LevelDrive,
    Lorentzian,
    ModelError,
    SystemParams,
)
from welldecay.solvers import SolverConfig, solve_volterra

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# wide-band amplitudes


def test_markovian_static_values():
    p = SystemParams(e0=0.0)
    assert closedform.b0_markovian_driven(p, 0.0) == 1.0
    assert abs(closedform.b0_markovian_driven(p, 1.0) - math.exp(-0.5)) < 1e-15
    p1 = SystemParams(e0=1.0)
    expected = cmath.exp(2.0j) * math.exp(-1.0)
    assert abs(closedform.b0_markovian_driven(p1, -2.0) - expected) < 1e-15


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    e0=st.floats(-50.0, 50.0),
    t=st.one_of(st.just(0.0), st.floats(-100.0, 100.0)),
)
@example(e0=0.0, t=0.0)
@example(e0=1.0, t=-2.0)
def test_markovian_driven_without_drive_is_the_static_amplitude(e0, t):
    got = closedform.b0_markovian_driven(SystemParams(e0=e0), t)
    assert abs(got - cmath.exp(-1j * e0 * t - 0.5 * abs(t))) <= 1e-15


def test_markovian_driven_level_is_undriven_survival():
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    t = np.linspace(-5.0, 5.0, 401)
    p0 = np.abs(closedform.b0_markovian_driven(p, t)) ** 2
    assert np.max(np.abs(p0 - np.exp(-np.abs(t)))) < 1e-14


def test_markovian_driven_initial_condition():
    for p in (
        SystemParams(e0=2.0, level_drive=LevelDrive(1.0, 3.0)),
        SystemParams(e0=0.0, barrier_drive=BarrierDrive(0.3, 1.0)),
    ):
        assert closedform.b0_markovian_driven(p, 0.0) == 1.0


def test_markovian_driven_barrier_phase_against_quadrature():
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    w = lambda s: 1.0 + 0.1 * math.sin(2.0 * s)
    for t in (1.0, 3.7, -2.2):
        w2 = quad(lambda s: w(s) ** 2, 0.0, t)[0]
        expected = cmath.exp(-0.5 * math.copysign(1.0, t) * w2)
        got = closedform.b0_markovian_driven(p, t)
        assert abs(got - expected) < 1e-12


def test_markovian_driven_barrier_matches_sharp_lorentzian_volterra():
    # wide-band closed form vs the memory solver pushed toward the
    # wide-band limit (lam = 1e3 Gamma)
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    cfg = SolverConfig(dt=5.0e-5, t_end=1.0, tolerance=1e-2)
    traj = solve_volterra(p, Lorentzian(lam=1.0e3), cfg)
    ref = closedform.b0_markovian_driven(p, traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 1e-3


@pytest.mark.parametrize("t_end", [1.0, -1.0])
def test_markovian_driven_double_drive_matches_sharp_lorentzian_volterra(t_end):
    # the wide-band phase is exact for a level and a barrier drive at once;
    # the memory solver at lam = 1e3 Gamma sits 5.0e-4 from it at either sign,
    # where either drive's phase alone would move b0 by ~0.1 or more
    p = SystemParams(
        e0=0.5, level_drive=LevelDrive(1.0, 1.0), barrier_drive=BarrierDrive(alpha=0.1, omega=2.0)
    )
    cfg = SolverConfig(dt=5.0e-5, t_end=t_end, tolerance=1e-2)
    traj = solve_volterra(p, Lorentzian(lam=1.0e3), cfg)
    ref = closedform.b0_markovian_driven(p, traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 6e-4


def test_linear_alpha_variant_matches_full_to_first_order():
    om = 2.0
    t = np.linspace(0.0, 6.0, 301)
    gaps = []
    for alpha in (0.08, 0.04, 0.02):
        p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha, om))
        full = closedform.b0_markovian_driven(p, t)
        lin = b0_linear_alpha(p, t)
        gaps.append(np.max(np.abs(full - lin)))
    # the variants differ at O(alpha^2): halving alpha quarters the gap
    assert gaps[1] < 0.30 * gaps[0]
    assert gaps[2] < 0.30 * gaps[1]


# --------------------------------------------------------------------------
# Lorentzian reservoir closed form


def test_lorentzian_q_branch_and_value():
    p = SystemParams(e0=0.0)
    q = closedform.lorentzian_q(p, 4.0, 1.0)
    assert abs(q - 2.0 * math.sqrt(2.0)) < 1e-14  # sqrt(16 - 8), real
    p1 = SystemParams(e0=1.0)
    for sign in (1.0, -1.0):
        q = closedform.lorentzian_q(p1, 4.0, sign)
        assert q.real >= 0.0
        assert abs(q * q - (16.0 - 8.0 - 1.0 - 2.0j * sign * 4.0)) < 1e-12


def test_lorentzian_static_rejects_a_nonpositive_width():
    for lam in (0.0, -1.0):
        with pytest.raises(ModelError, match="half-width must be positive"):
            closedform.b0_lorentzian_static(SystemParams(e0=0.0), lam, 1.0)


@pytest.mark.parametrize("e0,lam", [(2e154, 1.0), (0.0, 2e154)])
def test_lorentzian_static_rejects_an_overflowing_q(e0, lam):
    # Q^2 overflows past |E0| or lambda of about 1.3e154: ModelError, no NaN or warning
    with pytest.raises(ModelError, match=re.escape(f"E0 = {e0:g}, lambda = {lam:g}")):
        closedform.b0_lorentzian_static(SystemParams(e0=e0), lam, np.array([0.0, 1.0, -1.0]))


def test_lorentzian_static_initial_condition():
    p = SystemParams(e0=1.0)
    assert closedform.b0_lorentzian_static(p, 4.0, 0.0) == 1.0


@pytest.mark.parametrize("e0,lam,span", [(1.0, 4.0, 8.0), (-0.7, 200.0, 8.0), (0.0, 2.0, 2e-5)])
def test_lorentzian_static_negative_time_is_conjugate(e0, lam, span):
    # the static Hamiltonian is real: b0(-t) = conj b0(t) bit for bit, in either
    # form (the last case takes the |Q t|/2 < 1 form throughout), and b0(0) = 1 exactly
    p = SystemParams(e0=e0)
    t = np.random.default_rng(3).uniform(0.0, span, 200)
    mixed = np.concatenate([t, [0.0], -t])
    vals = closedform.b0_lorentzian_static(p, lam, mixed)
    assert np.array_equal(vals[201:], np.conj(vals[:200]))
    assert vals[200] == 1.0
    flipped = closedform.b0_lorentzian_static(p, lam, -mixed)
    assert np.array_equal(flipped, np.conj(vals))


def test_lorentzian_static_against_memory_solver():
    # oracle: independent fine-step integration of the memory equation
    p = SystemParams(e0=1.0)
    cfg = SolverConfig(dt=5.0e-4, t_end=2.0)
    traj = solve_volterra(p, Lorentzian(4.0), cfg)
    ref = closedform.b0_lorentzian_static(p, 4.0, traj.times)
    assert np.max(np.abs(traj.b0 - ref)) < 5e-7
    # spot value at Gamma t = 2 frozen from that oracle
    assert abs(abs(closedform.b0_lorentzian_static(p, 4.0, 2.0)) ** 2 - 0.1618992) < 1e-6


def test_lorentzian_static_far_time_does_not_overflow():
    p = SystemParams(e0=1.0)
    val = closedform.b0_lorentzian_static(p, 1000.0, 5.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) <= 1.0


def test_lorentzian_degenerate_q_is_removable():
    # lam^2 - 2 lam Gamma = 0 at E0 = 0 makes Q = 0 exactly
    p = SystemParams(e0=0.0)
    lam = 2.0
    t = np.linspace(-3.0, 3.0, 61)
    vals = closedform.b0_lorentzian_static(p, lam, t)
    # oracle: same expression evaluated at a nearby non-degenerate width
    ref = closedform.b0_lorentzian_static(p, lam * (1.0 + 1e-9), t)
    assert np.max(np.abs(vals - ref)) < 1e-7
    assert np.all(np.isfinite(vals))


def lorentzian_mpmath(e0, lam, t):
    """b0(t) of the static Lorentzian ODE, y'' = (-i E0 - L) y' + (-i L E0 - L / 2) y
    with y(0) = 1, y'(0) = -i E0, as the 50-digit matrix exponential of its
    first-order system; b0(-t) = conj b0(t)."""
    with mpmath.workdps(50):
        e0, lam = mpmath.mpf(e0), mpmath.mpf(lam)
        system = mpmath.matrix([[0, 1], [-1j * lam * e0 - 0.5 * lam, -1j * e0 - lam]])
        out = []
        for x in t:
            prop = mpmath.expm(system * abs(mpmath.mpf(x)))
            b = complex(prop[0, 0] - 1j * e0 * prop[0, 1])
            out.append(b.conjugate() if x < 0 else b)
    return np.array(out)


@pytest.mark.parametrize("e0,lam", [(4.0e-11, 2.0), (0.0, 2.0), (1.0e-6, 2.0), (1.0, 4.0), (2.0, 0.5)])
def test_lorentzian_static_against_mpmath(e0, lam):
    # lam = 2 Gamma and E0 -> 0 drive Q -> 0 (|Q| = 1.26e-5 at E0 = 4e-11), where
    # the two exponentials cancel; the array ends past |Q t| = 2e-4 in every case
    p = SystemParams(e0=e0)
    t = np.linspace(-8.0, 8.0, 33)
    got = closedform.b0_lorentzian_static(p, lam, t)
    assert np.max(np.abs(got - lorentzian_mpmath(e0, lam, t))) <= 1e-15


@pytest.mark.parametrize("e0,lam,far", [(4.0e-11, 2.0, 2.0e5), (0.3, 200.0, 0.05), (1.0, 4.0, 8.0)])
def test_lorentzian_static_is_evaluated_per_time(e0, lam, far):
    # each value depends on its own time alone, not on the others in the array:
    # the array call equals the scalar calls bit for bit on both sides of |Q t| = 2
    p = SystemParams(e0=e0)
    t = np.concatenate((np.linspace(-far, far, 41), [0.5, 7.9, 8.0]))
    got = closedform.b0_lorentzian_static(p, lam, t)
    each = np.array([closedform.b0_lorentzian_static(p, lam, float(x)) for x in t])
    assert np.array_equal(got, each)
    short = closedform.b0_lorentzian_static(p, lam, t[t <= 7.9])
    assert np.array_equal(short, got[t <= 7.9])


def test_lorentzian_to_markovian_limit():
    p = SystemParams(e0=0.0)
    t = np.concatenate([np.linspace(-5.0, -0.1, 120), np.linspace(0.1, 5.0, 120)])
    p0 = np.abs(closedform.b0_lorentzian_static(p, 1.0e3, t)) ** 2
    ref = np.exp(-np.abs(t))
    assert np.max(np.abs(p0 - ref) / ref) < 1e-2


def test_short_time_coefficients_values():
    assert closedform.short_time_coefficients(4.0) == (2.0, 8.0 / 3.0)
    assert closedform.short_time_coefficients(1.0) == (0.5, 1.0 / 6.0)


@pytest.mark.parametrize("e0", [0.0, 1.0, 3.0])
def test_time_reversal_of_closed_forms(e0):
    p = SystemParams(e0=e0)
    t = np.linspace(1e-3, 6.0, 97)
    for f in (
        lambda tt: closedform.b0_markovian_driven(p, tt),
        lambda tt: closedform.b0_lorentzian_static(p, 4.0, tt),
    ):
        assert np.max(np.abs(f(-t) - np.conj(f(t)))) < 1e-14


def test_cusp_markovian_one_sided_slopes():
    p = SystemParams(e0=0.7)
    h = 1e-7
    p0 = lambda t: abs(closedform.b0_markovian_driven(p, t)) ** 2
    right = (p0(h) - p0(0.0)) / h
    left = (p0(0.0) - p0(-h)) / h
    assert abs(right + 1.0) < 1e-6  # -Gamma
    assert abs(left - 1.0) < 1e-6  # +Gamma


def test_cusp_lorentzian_smooth_first_derivative_third_derivative_jump():
    p = SystemParams(e0=1.0)
    lam = 4.0
    p0 = lambda t: abs(closedform.b0_lorentzian_static(p, lam, t)) ** 2
    h = 1e-5
    right_slope = (p0(h) - p0(0.0)) / h
    left_slope = (p0(0.0) - p0(-h)) / h
    assert abs(right_slope) < 1e-3 and abs(left_slope) < 1e-3
    # one-sided third derivatives: +-6 c3, so the jump across zero is 2 Gamma lam^2
    h = 1e-2
    third = lambda s: (
        -2.5 * p0(0.0) + 9.0 * p0(s * h) - 12.0 * p0(2 * s * h) + 7.0 * p0(3 * s * h) - 1.5 * p0(4 * s * h)
    ) / (s * h) ** 3
    jump = third(1.0) - third(-1.0)
    assert abs(jump - 2.0 * lam * lam) / (2.0 * lam * lam) < 2e-2


# --------------------------------------------------------------------------
# line shapes and driven spectra


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_lineshape_markovian_rejects_negative_and_nan_time(t):
    with pytest.raises(ModelError, match="t >= 0"):
        closedform.lineshape_markovian(SystemParams(e0=0.0), 0.0, t)


def test_lineshape_markovian_zero_at_t0():
    p = SystemParams(e0=1.0)
    e = np.linspace(-8.0, 8.0, 101)
    assert np.max(np.abs(closedform.lineshape_markovian(p, e, 0.0))) < 1e-15


def test_lineshape_markovian_long_time_peak():
    p = SystemParams(e0=0.5)
    val = closedform.lineshape_markovian(p, 0.5, math.inf)
    assert abs(val - 2.0 / math.pi) < 1e-14  # (Gamma/2pi)/(Gamma^2/4)


def test_lineshape_markovian_long_time_normalization():
    p = SystemParams(e0=0.0)
    total = quad(lambda e: closedform.lineshape_markovian(p, e, math.inf), -np.inf, np.inf)[0]
    assert abs(total - 1.0) < 1e-9


def floquet_trajectory_oracle(
    params, e, t_max=80.0, dt=5e-4, amplitude=closedform.b0_markovian_driven
):
    """Oracle: direct quadrature of P_r(t->inf) from the wide-band amplitude."""
    t = np.arange(0.0, t_max + dt / 2, dt)
    b0 = amplitude(params, t)
    if params.barrier_drive is not None:
        w = 1.0 + params.barrier_drive.alpha * np.sin(params.barrier_drive.omega * t)
    else:
        w = np.ones_like(t)
    integral = np.trapezoid(w * b0 * np.exp(1j * e * t), t)
    return abs(integral) ** 2 / TWO_PI


def test_floquet_level_reduces_to_lorentzian_line():
    p = SystemParams(e0=0.4, level_drive=LevelDrive(u=0.0, omega=1.0))
    e = np.linspace(-6.0, 6.0, 301)
    line = closedform.lineshape_markovian(p, e, math.inf)
    assert np.max(np.abs(closedform.floquet_spectrum(p, e) - line)) < 1e-14


def test_floquet_barrier_reduces_to_lorentzian_line():
    p = SystemParams(e0=-0.3, barrier_drive=BarrierDrive(alpha=0.0, omega=1.0))
    e = np.linspace(-6.0, 6.0, 301)
    line = closedform.lineshape_markovian(p, e, math.inf)
    assert np.max(np.abs(closedform.floquet_spectrum(p, e) - line)) < 1e-14


def sideband_loops(params, e):
    """The per-sideband complex-division sums the pole sum replaced."""
    e0 = params.e0
    amp = np.zeros_like(e, dtype=complex)
    if params.level_drive is not None:
        u, om = params.level_drive.u, params.level_drive.omega
        n_max = truncation_order(abs(u / om), closedform.FLOQUET_TAIL_TOL)
        for n in range(-n_max, n_max + 1):
            amp += (-1j) ** n * bessel_j(n, u / om) / (e - e0 - n * om + 0.5j)
    else:
        al, om = params.barrier_drive.alpha, params.barrier_drive.omega
        xi = al / om
        n_max = truncation_order(xi, closedform.FLOQUET_TAIL_TOL)
        for n in range(-n_max, n_max + 1):
            d = e - e0 - n * om + 0.5j
            amp += bessel_ive(n, xi) * (1.0 / d + 1j * al * om / (d * d - om * om))
    return np.abs(amp) ** 2 / TWO_PI


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    barrier=st.booleans(),
    amp=st.floats(0.0, 1.0),
    omega=st.floats(0.05, 3.0),
    e0=st.floats(-2.0, 2.0),
)
def test_floquet_spectra_match_per_sideband_loops(barrier, amp, omega, e0):
    if barrier:
        p = SystemParams(e0=e0, barrier_drive=BarrierDrive(alpha=0.99 * amp, omega=omega))
    else:
        p = SystemParams(e0=e0, level_drive=LevelDrive(u=8.0 * amp - 4.0, omega=omega))
    spectrum = closedform.floquet_spectrum
    e = e0 + np.concatenate([np.linspace(-20.0, 20.0, 2001), [-500.0, 500.0]])
    ref = sideband_loops(p, e)
    got = spectrum(p, e)
    assert got.shape == e.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)
    for v in e[::400]:
        scalar = spectrum(p, float(v))
        assert isinstance(scalar, float)
        assert abs(scalar - sideband_loops(p, np.array([v]))[0]) <= 1e-13 * np.max(ref)


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(e0=0.3, level_drive=LevelDrive(u=80.0, omega=0.1)),  # u/omega = 800
        SystemParams(e0=0.3, barrier_drive=BarrierDrive(alpha=0.9, omega=1e-3)),  # xi = 900
    ],
)
def test_floquet_spectra_past_the_old_bessel_overflow(params):
    # both arguments lie beyond the old e^x overflow of I_n at 700
    e = params.e0 + np.linspace(-0.5, 0.5, 40)
    ref = sideband_loops(params, e)
    assert np.max(np.abs(closedform.floquet_spectrum(params, e) - ref)) <= 1e-13 * np.max(ref)


def blocked_pole_sum_sq(coef, detuning, omega):
    """The direct sum over every (energy, pole) pair, in bounded blocks, that
    the panel interpolation of closedform._pole_sum_sq replaced."""
    poles = (np.arange(coef.size) - coef.size // 2) * omega
    flat = np.atleast_1d(detuning).ravel()
    out = np.empty(flat.size)
    step = max(1, (1 << 16) // coef.size)
    for lo in range(0, flat.size, step):
        d = flat[lo : lo + step, None] - poles
        inv = 1.0 / (d * d + 0.25)
        d *= inv
        inv *= 0.5
        re, im = d @ coef.real + inv @ coef.imag, d @ coef.imag - inv @ coef.real
        out[lo : lo + step] = re * re + im * im
    return out.reshape(np.shape(detuning))


def blocked_reference(spectrum, params, e):
    """spectrum(params, e) with its pole sum done by blocked_pole_sum_sq."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closedform, "_pole_sum_sq", blocked_pole_sum_sq)
        return spectrum(params, e)


def thinned_grid(params, limit):
    """spectra.energy_grid(params), every k-th point so that at most `limit` remain."""
    grid = spectra.energy_grid(params)
    return grid[:: -(-grid.size // limit)]


@functools.lru_cache(maxsize=1)
def spectrum_level_case():
    """The level spectrum of the benchmark: u = 20, omega = 0.1, 453 poles."""
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=20.0, omega=0.1))
    return p, spectra.energy_grid(p)


@settings(max_examples=16, derandomize=True, deadline=None)
@given(
    barrier=st.booleans(),
    order=st.floats(0.5, 200.0),  # |u| / omega, or xi = alpha / omega
    omega=st.floats(0.02, 2.0),
    alpha=st.floats(0.05, 0.99),
    e0=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_floquet_panel_route_matches_blocked_pole_sum(barrier, order, omega, alpha, e0, seed):
    # with more than 36 poles the grids put >= 18 energies in many panels of
    # width 1/4, which the interpolation serves (in 12 of the 16 examples);
    # sparse panels and fewer poles take the direct sum
    if barrier:
        drive = {"barrier_drive": BarrierDrive(alpha=alpha, omega=alpha / order)}
    else:
        u = order * omega if seed % 2 else -order * omega
        drive = {"level_drive": LevelDrive(u=u, omega=omega)}
    spectrum = closedform.floquet_spectrum
    p = SystemParams(e0=e0, **drive)
    e = np.concatenate(([e0 - 1.0e4], thinned_grid(p, 60_000), [e0 + 1.0e4]))
    got = spectrum(p, e)
    assert got.shape == e.shape
    pick = np.unique(np.concatenate((np.arange(0, e.size, -(-e.size // 2000)), [e.size - 1])))
    ref = blocked_reference(spectrum, p, e[pick])
    peak = np.max(ref)
    assert np.max(np.abs(got[pick] - ref)) <= 1e-13 * peak
    rng = np.random.default_rng(seed)
    shuffle = rng.permutation(e.size)
    assert np.max(np.abs(spectrum(p, e[shuffle]) - got[shuffle])) <= 1e-13 * peak
    for i in rng.choice(pick.size, 3):
        scalar = spectrum(p, float(e[pick[i]]))
        assert isinstance(scalar, float)
        assert abs(scalar - ref[i]) <= 1e-13 * peak
    assert spectrum(p, np.empty(0)).shape == (0,)
    assert spectrum(p, e[:6].reshape(2, 3)).shape == (2, 3)


def test_floquet_far_dense_panel_matches_blocked_pole_sum():
    # 100 energies within 1/4 of E0 +- 1000, far beyond the 453 poles of
    # u = 20, omega = 0.1: one panel of width 1/4 holds at least 50 of them and
    # interpolates, and no wider panel serves energies that far out
    p = SystemParams(e0=0.3, level_drive=LevelDrive(u=20.0, omega=0.1))
    for side in (1.0, -1.0):
        e = p.e0 + side * 1000.0 + np.linspace(0.0, 0.25, 100, endpoint=False)
        got = closedform.floquet_spectrum(p, e)
        ref = blocked_reference(closedform.floquet_spectrum, p, e)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


def test_floquet_large_pole_span_falls_back_to_the_direct_sum():
    # u/omega = 30 at omega = 1e13: 89 poles spanning 8.8e14 = 2^49.6. At that
    # reach d - origin rounds to 1/16, a quarter of a panel, so panels keyed
    # from it read their interpolant outside [-1, 1] (1.7e-10 of the peak);
    # the direct sum keeps the ~1e-14 floor
    om = 1.0e13
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=30.0 * om, omega=om))
    e = np.linspace(-0.05, 0.05, 400)
    got = closedform.floquet_spectrum(p, e)
    ref = blocked_reference(closedform.floquet_spectrum, p, e)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


def test_floquet_level_panel_route_on_the_benchmark_grid():
    # every 97th energy of the 302,307: the full all-pairs sum would cost 137 M terms
    p, grid = spectrum_level_case()
    got = closedform.floquet_spectrum(p, grid)
    ref = blocked_reference(closedform.floquet_spectrum, p, grid[::97])
    assert np.max(np.abs(got[::97] - ref)) <= 1e-13 * np.max(ref)


def test_floquet_barrier_panel_route_on_the_benchmark_grid():
    # the barrier spectrum of the benchmark: alpha = 0.5, omega = 0.05, 49 poles, more
    # than the 2 p = 36 that the direct sum keeps, on all 108,387 energies
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.5, omega=0.05))
    assert 2 * closedform._sidebands(p)[2] + 3 > 2 * closedform._CHEB_POINTS
    grid = spectra.energy_grid(p)
    got = closedform.floquet_spectrum(p, grid)
    ref = blocked_reference(closedform.floquet_spectrum, p, grid)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


def test_floquet_level_memory_is_output_plus_blocks():
    # measured peak 4.25 MB: the detuning buffer (2.42 MB), which takes the output,
    # plus 1.8 MB of one block of the sum; the all-pairs matrix would be 1.1 GB
    p, grid = spectrum_level_case()
    tracemalloc.start()
    try:
        closedform.floquet_spectrum(p, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grid.nbytes + 2.5e6


@settings(max_examples=8, derandomize=True, deadline=None)
@given(u=st.floats(0.5, 12.0), omega=st.floats(0.1, 2.0), e0=st.floats(-2.0, 2.0))
def test_floquet_level_mirror_symmetry(u, omega, e0):
    # P(-E; -E0, -u) = P(E; E0, u); the panels are not placed symmetrically,
    # so the two sides agree to rounding, not bit for bit
    p = SystemParams(e0=e0, level_drive=LevelDrive(u=u, omega=omega))
    mirror = SystemParams(e0=-e0, level_drive=LevelDrive(u=-u, omega=omega))
    e = thinned_grid(p, 40_000)
    got = closedform.floquet_spectrum(p, e)
    mirrored = closedform.floquet_spectrum(mirror, -e)
    assert np.max(np.abs(mirrored - got)) <= 1e-13 * np.max(got)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(alpha=st.floats(0.05, 0.95), xi=st.floats(0.5, 60.0), e0=st.floats(-2.0, 2.0))
def test_floquet_barrier_symmetry_about_e0(alpha, xi, e0):
    # P(E0 + x) = P(E0 - x) to rounding, for up to about 130 poles
    p = SystemParams(e0=e0, barrier_drive=BarrierDrive(alpha=alpha, omega=alpha / xi))
    e = thinned_grid(p, 40_000)
    got = closedform.floquet_spectrum(p, e)
    mirrored = closedform.floquet_spectrum(p, 2.0 * e0 - e)
    assert np.max(np.abs(mirrored - got)) <= 1e-13 * np.max(got)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("barrier", [False, True])
def test_floquet_spectra_reject_non_finite_energies(barrier, driven, bad):
    amp = 0.3 if driven else 0.0
    if barrier:
        p = SystemParams(e0=0.1, barrier_drive=BarrierDrive(alpha=amp, omega=0.5))
    else:
        p = SystemParams(e0=0.1, level_drive=LevelDrive(u=amp, omega=0.5))
    with pytest.raises(ModelError, match="finite"):
        closedform.floquet_spectrum(p, [0.1, bad, 1.0])
    with pytest.raises(ModelError, match="finite"):
        closedform.floquet_spectrum(p, bad)


@pytest.mark.parametrize("e", [0.0, 0.2, -0.2, 0.4, -0.4])
def test_floquet_level_matches_trajectory_oracle(e):
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=0.2, omega=0.2))
    ref = floquet_trajectory_oracle(p, e)
    got = closedform.floquet_spectrum(p, e)
    assert abs(got - ref) < 2e-5 * max(ref, 1e-3)


@pytest.mark.parametrize("e", [0.0, 0.2, -0.2, 2.0, -2.0])
def test_floquet_barrier_matches_trajectory_oracle(e):
    # pins the sign of the prefactor-generated second term
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.2, omega=0.2))
    ref = floquet_trajectory_oracle(p, e, amplitude=b0_linear_alpha)
    got = closedform.floquet_spectrum(p, e)
    assert abs(got - ref) < 2e-5 * max(ref, 1e-3)


def test_floquet_level_normalization():
    p = SystemParams(e0=0.0, level_drive=LevelDrive(u=3.0, omega=2.0))
    total = quad(
        lambda e: float(closedform.floquet_spectrum(p, e)), -np.inf, np.inf, limit=800
    )[0]
    assert abs(total - 1.0) < 1e-3


def test_floquet_barrier_normalization_matches_its_parseval_value():
    # the resummation inherits the linear-alpha amplitude, so its exact norm
    # is Gamma int w^2 |b0_lin|^2 dt (= 1 + O(alpha^2 xi) , not 1 exactly)
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.2, omega=0.2))
    t = np.arange(0.0, 80.0, 2.5e-4)
    b0 = b0_linear_alpha(p, t)
    w2 = (1.0 + 0.2 * np.sin(0.2 * t)) ** 2
    parseval = float(np.trapezoid(w2 * np.abs(b0) ** 2, t))
    total = quad(
        lambda e: float(closedform.floquet_spectrum(p, e)), -np.inf, np.inf, limit=800
    )[0]
    assert abs(total - parseval) < 5e-4
    assert abs(parseval - 1.0019) < 5e-4  # the O(alpha^2) excess, frozen


def test_floquet_barrier_normalization_small_drive():
    # the norm again equals the Parseval value of the linear-alpha amplitude;
    # the exact dynamics would give 1, the resummed formula keeps a small
    # alpha^2-order excess (0.43% here)
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.1, omega=2.0))
    t = np.arange(0.0, 60.0, 2.5e-4)
    b0 = b0_linear_alpha(p, t)
    w2 = (1.0 + 0.1 * np.sin(2.0 * t)) ** 2
    parseval = float(np.trapezoid(w2 * np.abs(b0) ** 2, t))
    total = quad(
        lambda e: float(closedform.floquet_spectrum(p, e)), -np.inf, np.inf, limit=800
    )[0]
    assert abs(total - parseval) < 5e-4
    assert abs(total - 1.0043028) < 5e-5  # frozen measurement of the excess


def test_floquet_barrier_rejects_full_modulation():
    p = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=1.0, omega=1.0))
    with pytest.raises(ModelError):
        closedform.floquet_spectrum(p, 0.0)


def test_first_sideband_more_pronounced_for_barrier_drive():
    level = SystemParams(e0=0.0, level_drive=LevelDrive(u=0.2, omega=0.2))
    barrier = SystemParams(e0=0.0, barrier_drive=BarrierDrive(alpha=0.2, omega=0.2))
    lv = closedform.floquet_spectrum(level, 0.2)
    br = closedform.floquet_spectrum(barrier, 0.2)
    assert br > lv
