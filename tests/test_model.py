"""Spectral-density family: values, kernels, and quadrature consistency."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from welldecay.bessel import bessel_j
from welldecay.model import (
    BarrierDrive,
    FiniteChain,
    LevelDrive,
    Lorentzian,
    ModelError,
    Semicircle,
    SystemParams,
    _phase_sums,
)
from welldecay.solvers import RESOLUTION_LIMIT, SolverConfig

TWO_PI = 2.0 * math.pi


def test_density_band_center_and_half_maximum():
    lor = Lorentzian(lam=4.0)
    assert abs(lor.density(0.0, 1.0) - 1.0 / TWO_PI) < 1e-15
    assert abs(lor.density(4.0, 1.0) - 0.5 / TWO_PI) < 1e-15


def test_density_semicircle_band_edge():
    semi = Semicircle(w_band=6.0)
    assert semi.density(6.0, 1.0) == 0.0
    assert semi.density(7.5, 1.0) == 0.0
    assert abs(semi.density(0.0, 1.0) - 1.0 / TWO_PI) < 1e-15


def test_kernel_values_at_zero_lag():
    assert abs(Lorentzian(4.0).kernel(0.1, 0, 1.0)[0] - 2.0) < 1e-15  # Gamma lam / 2
    # semicircle limit Gamma W / 4, cross-checked by quadrature below
    assert abs(Semicircle(6.0).kernel(0.1, 0, 1.0)[0] - 1.5) < 1e-12


LAG_DT = 0.05  # the lag grid of the quadrature checks; each tau is a multiple


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.3, 1.1, 4.0, 10.0])
def test_kernel_matches_density_quadrature_lorentzian(tau):
    # oracle: K(tau) = int S(E) cos(E tau) dE over the real line, at the lag j dt
    lor = Lorentzian(lam=4.0)
    j = round(tau / LAG_DT)
    tau = j * LAG_DT
    if tau == 0.0:
        ref = quad(lambda e: lor.density(e, 1.0), -np.inf, np.inf)[0]
    else:
        ref = quad(lambda e: lor.density(e, 1.0), 0, np.inf, weight="cos", wvar=tau)[0] * 2.0
    assert abs(lor.kernel(LAG_DT, j, 1.0)[j] - ref) < 1e-9


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.3, 1.1, 4.0, 10.0])
def test_kernel_matches_density_quadrature_semicircle(tau):
    semi = Semicircle(w_band=6.0)
    j = round(tau / LAG_DT)
    tau = j * LAG_DT
    ref = quad(lambda e: semi.density(e, 1.0) * math.cos(e * tau), -6.0, 6.0, limit=400)[0]
    assert abs(semi.kernel(LAG_DT, j, 1.0)[j] - ref) < 1e-9


@settings(max_examples=15, derandomize=True, deadline=None)
@given(w=st.floats(0.5, 20.0), n=st.integers(0, 2000), a=st.floats(1.0e-3, 9999.0))
@example(w=6.0, n=0, a=1.0)
@example(w=6.0, n=257, a=504.0)
@example(w=20.0, n=300, a=9999.0)
def test_semicircle_kernel_matches_bessel(w, n, a):
    # the chain's coupling sum against Gamma J_1(W tau)/(2 tau) on lags up to W n dt = a
    gamma = 1.7
    dt = a / (w * max(n, 1))
    kern = Semicircle(w).kernel(dt, n, gamma)
    assert kern.shape == (n + 1,) and kern.dtype == np.float64
    for j in {0, 1, n // 2, n, 255, 256, 257} & set(range(n + 1)):
        tau = j * dt
        ref = gamma * w / 4.0 if j == 0 else gamma * bessel_j(1, w * tau) / (2.0 * tau)
        assert abs(kern[j] - ref) <= 1e-13 * gamma * w / 4.0


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
            got = _phase_sums(c, lam * h, n)[0]
            ref = np.exp(-1j * np.outer(h * np.arange(n + 1), lam)) @ c
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.sum(np.abs(c))


def test_matched_lorentzian_curvature():
    # lam = sqrt(2) W gives the same density curvature at the band center
    w = 6.0
    semi, lor = Semicircle(w), Lorentzian(math.sqrt(2.0) * w)
    h = 1e-3
    dd_semi = (semi.density(h, 1.0) - 2 * semi.density(0.0, 1.0) + semi.density(-h, 1.0)) / h**2
    dd_lor = (lor.density(h, 1.0) - 2 * lor.density(0.0, 1.0) + lor.density(-h, 1.0)) / h**2
    assert abs(dd_semi - dd_lor) < 1e-5 * abs(dd_semi)


def test_chain_levels_and_couplings():
    ch = FiniteChain(n_levels=5, w_band=6.0)
    e = ch.level_energies()
    assert np.all(np.diff(e) < 0)
    assert np.all(np.abs(e) < 6.0)
    om = ch.couplings(1.0)
    assert np.all(om >= 0.0)
    # couplings vanish toward the band edges: edge levels carry the smallest
    assert om[0] < om[2] and om[-1] < om[2]


def test_chain_density_reaches_semicircle():
    # Gaussian-broadened sum of Omega^2 over levels vs the analytic density
    n, w = 500, 6.0
    ch = FiniteChain(n, w)
    semi = Semicircle(w)
    e, om2 = ch.level_energies(), ch.couplings(1.0) ** 2
    sigma = 4.0 * np.pi * w / (n + 1)  # a few level spacings
    for e_test in (0.0, 1.8, -2.7):
        weights = np.exp(-0.5 * ((e_test - e) / sigma) ** 2) / (sigma * math.sqrt(TWO_PI))
        approx = float(np.sum(om2 * weights))
        exact = float(semi.density(e_test, 1.0))
        assert abs(approx - exact) < 0.02 * exact


def test_parameter_validation():
    with pytest.raises(ModelError):
        SystemParams(e0=0.0, gamma=0.0)
    with pytest.raises(ModelError):
        LevelDrive(u=1.0, omega=0.0)
    with pytest.raises(ModelError):
        BarrierDrive(alpha=-0.1, omega=1.0)
    with pytest.raises(ModelError):
        Lorentzian(lam=-1.0)
    with pytest.raises(ModelError):
        Semicircle(w_band=0.0)
    with pytest.raises(ModelError):
        FiniteChain(n_levels=0, w_band=6.0)
    with pytest.raises(ModelError, match="SolverConfig.t_end must be nonzero and finite"):
        SolverConfig(dt=0.01, t_end=0.0)
    with pytest.raises(ModelError, match="SolverConfig.tolerance must be positive and finite"):
        SolverConfig(dt=0.01, t_end=1.0, tolerance=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build,field",
    [
        (lambda x: SystemParams(e0=0.0, gamma=x), "SystemParams.gamma"),
        (lambda x: Lorentzian(x), "Lorentzian.lam"),
        (lambda x: Semicircle(x), "Semicircle.w_band"),
        (lambda x: FiniteChain(10, x), "FiniteChain.w_band"),
        (lambda x: BarrierDrive(alpha=0.1, omega=x), "BarrierDrive.omega"),
        (lambda x: SolverConfig(dt=0.01, t_end=1.0, tolerance=x), "SolverConfig.tolerance"),
    ],
)
def test_nonfinite_fields_rejected_by_name(build, field, value):
    with pytest.raises(ModelError, match=field):
        build(value)


def test_drive_profile_closed_form_integrals():
    params = SystemParams(
        e0=1.5,
        level_drive=LevelDrive(u=3.0, omega=2.0),
        barrier_drive=BarrierDrive(alpha=0.3, omega=1.7),
    )
    assert not params.static
    for t in (0.7, 3.3, -2.1):
        ref_e0 = quad(lambda s: float(params.e0_at(s)), 0.0, t)[0]
        ref_w2 = quad(lambda s: float(params.w_at(s)) ** 2, 0.0, t)[0]
        assert abs(float(params.e0_integral(t)) - ref_e0) < 1e-10
        assert abs(float(params.w2_integral(t)) - ref_w2) < 1e-10
    # derivative profiles match finite differences
    h = 1e-6
    for t in (0.4, -1.2):
        fd = (float(params.e0_at(t + h)) - float(params.e0_at(t - h))) / (2 * h)
        assert abs(float(params.e0_rate(t)) - fd) < 1e-6
        fd = (float(params.w_at(t + h)) - float(params.w_at(t - h))) / (2 * h)
        assert abs(float(params.w_rate(t)) - fd) < 1e-6


def test_static_profile_flags():
    params = SystemParams(e0=2.0)
    assert params.static
    t = np.linspace(-3, 3, 7)
    assert np.all(params.w_at(t) == 1.0)
    assert np.all(params.e0_at(t) == 2.0)
