"""Analytic solutions for the decaying level, valid on the whole time axis.

These closed forms serve double duty: fast evaluation paths for the CLI and
independent oracles for the numerical solvers.

Wide-band reservoir:
    b0(t) = exp(-i Phi(t)),  Phi(t) = int_0^t E0(t') dt'
                                      - i sgn(t) (Gamma/2) int_0^t w^2(t') dt'
    static case b0(t) = e^{-i E0 t - Gamma |t| / 2}, so P0 = e^{-Gamma |t|}
    with a first-derivative cusp at t = 0.

Lorentzian reservoir of half-width L (static Hamiltonian):
    b0(t) = e^{-i E0 t / 2 - L |t| / 2} [ cosh(Q|t|/2)
            + (L - i sgn(t) E0) / Q * sinh(Q|t|/2) ]
    Q = sqrt(L^2 - 2 Gamma L - E0^2 - 2 i sgn(t) E0 L),  Re Q >= 0,
    and P0(t) = 1 - (Gamma L / 2) t^2 + (Gamma L^2 / 6)|t|^3 + O(t^4):
    no linear term, the cusp moves to the third derivative.

Long-time energy distributions of the tunneled particle under periodic
driving (wide band), from resumming the drive phase into photon sidebands
at E0 + n omega:

    level drive    weights (-i)^n J_n(u/omega)
    barrier drive  weights e^{-xi} I_n(xi), xi = alpha Gamma / omega, with a
                   second term + i alpha omega / (d_n^2 - omega^2) generated
                   by the w(t) prefactor (d_n = E - E0 - n omega + i Gamma/2).

The sign of that second term is fixed by direct quadrature of the
time-domain integral, which is the authoritative reference. By partial
fractions it is (i alpha / 2)(1/d_{n+1} - 1/d_{n-1}), so both spectra are
single-pole sums sum_m c_m / d_m over one line of poles, the barrier with
c_m = a_m + (i alpha / 2)(a_{m-1} - a_{m+1}) for m = -n_max-1 .. n_max+1.

Everything is vectorized over the time / energy argument; sgn(0) = 0, which
makes b0(0) = 1 exact.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .bessel import bessel_i, bessel_j, truncation_order
from .model import ModelError, SystemParams, TWO_PI

FLOQUET_TAIL_TOL = 1.0e-10
_POLE_BLOCK = 1 << 16  # (energy, pole) pairs per block of the sideband sums


def _phase4(n: int) -> complex:
    # (-i)^n exactly, for any integer n
    return (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)[n % 4]


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(values, scalar: bool):
    return values[()] if scalar else values


def b0_markovian_static(params: SystemParams, t):
    """Amplitude e^{-i E0 t - Gamma |t|/2} of the wide-band static level."""
    t, scalar = _as_float_array(t)
    out = np.exp(-1j * params.e0 * t - 0.5 * params.gamma * np.abs(t))
    return _maybe_scalar(out, scalar)


def b0_markovian_driven(params: SystemParams, t, linear_alpha: bool = False):
    """Wide-band amplitude with one sinusoidal drive, any sign of t.

    The barrier drive keeps the full w^2 integral by default;
    linear_alpha=True drops the O(alpha^2) part of w^2, the variant used by
    the sideband resummation.
    """
    if params.level_drive is not None and params.barrier_drive is not None:
        raise ModelError("simultaneous level and barrier drives are not supported here")
    t, scalar = _as_float_array(t)
    phase = wideband_phase(params, t, linear_alpha=linear_alpha)
    return _maybe_scalar(np.exp(-1j * phase), scalar)


def wideband_phase(params: SystemParams, t, linear_alpha: bool = False):
    """Accumulated complex phase Phi(t) with b0 = exp(-i Phi(t)).

    Phi(t) = int_0^t E0(t') dt' - i sgn(t) (Gamma/2) int_0^t w^2(t') dt';
    its imaginary part is <= 0 for either sign of t, so |b0| <= 1.
    """
    w2_int = params.w2_integral(t, linear_alpha)
    return params.e0_integral(t) - 0.5j * params.gamma * np.sign(t) * w2_int


def lorentzian_q(params: SystemParams, lam: float, sign: float) -> complex:
    """Principal branch Q = sqrt(L^2 - 2 Gamma L - E0^2 - 2 i sgn E0 L), Re Q >= 0."""
    q = np.sqrt(
        complex(lam * lam - 2.0 * params.gamma * lam - params.e0 * params.e0)
        - 2.0j * sign * params.e0 * lam
    )
    return -q if q.real < 0.0 else q


def b0_lorentzian_static(params: SystemParams, lam: float, t):
    """Static Lorentzian-reservoir amplitude, both signs of t.

    Evaluated through scaled exponentials, 0.5 (1 +/- c) e^{(+/-Q - L)|t|/2}
    with c = (L - i sgn E0)/Q, so large L |t| cannot overflow (Re Q < L
    whenever Gamma > 0). The Q -> 0 degeneracy is removable and handled by
    the series of sinh(z)/z.
    """
    if not lam > 0.0:
        raise ModelError(f"Lorentzian half-width must be positive, got {lam}")
    t, scalar = _as_float_array(t)
    tt = np.atleast_1d(t)
    out = np.ones_like(tt, dtype=complex)
    for sign in (1.0, -1.0):
        mask = np.sign(tt) == sign
        if not np.any(mask):
            continue
        at = np.abs(tt[mask])
        q = lorentzian_q(params, lam, sign)
        pre = np.exp(-0.5j * params.e0 * tt[mask])
        z = 0.5 * q * at
        if abs(q) * np.max(at) < 1.0e-4:
            # cosh(z) + (L - i s E0) (|t|/2) sinh(z)/z, series-safe near Q = 0
            sinhc = 1.0 + z * z / 6.0 + z**4 / 120.0
            body = np.cosh(z) + (lam - 1j * sign * params.e0) * 0.5 * at * sinhc
            out[mask] = pre * np.exp(-0.5 * lam * at) * body
        else:
            c = (lam - 1j * sign * params.e0) / q
            ep = np.exp((z.real - 0.5 * lam * at) + 1j * z.imag)
            em = np.exp((-z.real - 0.5 * lam * at) - 1j * z.imag)
            out[mask] = pre * 0.5 * ((1.0 + c) * ep + (1.0 - c) * em)
    return out[0] if scalar else out.reshape(t.shape)


def short_time_coefficients(params: SystemParams, lam: float) -> Tuple[float, float]:
    """(c2, c3) of P0 = 1 - c2 t^2 + c3 |t|^3 + O(t^4) for the static Lorentzian.

    c2 = Gamma L / 2 and c3 = Gamma L^2 / 6; the lam -> 0 and gamma -> 0
    limits both switch the decay off.
    """
    return 0.5 * params.gamma * lam, params.gamma * lam * lam / 6.0


def lineshape_markovian(params: SystemParams, e_r, t: float):
    """Reservoir energy distribution P_r(t) of the static wide-band model, t >= 0.

    P_r(t) = Gamma/(2 pi) [1 - 2 cos((E0-E) t) e^{-Gamma t/2} + e^{-Gamma t}]
             / ((E - E0)^2 + Gamma^2/4),
    which relaxes to the Lorentzian line of width Gamma as t -> infinity.
    Pass t = math.inf for the limit directly.
    """
    if t < 0.0:
        raise ModelError("the reservoir line shape is defined for t >= 0")
    e_r, scalar = _as_float_array(e_r)
    e0, g = params.e0, params.gamma
    denom = (e_r - e0) ** 2 + 0.25 * g * g
    if math.isinf(t):
        num = 1.0
    else:
        num = 1.0 - 2.0 * np.cos((e0 - e_r) * t) * math.exp(-0.5 * g * t) + math.exp(-g * t)
    return _maybe_scalar(g / TWO_PI * num / denom, scalar)


def floquet_spectrum_level(params: SystemParams, e_r):
    """Long-time spectrum for the oscillating level (wide band).

    Pbar(E) = Gamma/(2 pi) | sum_n (-i)^n J_n(u/omega) / d_n |^2 with
    d_n = E - E0 - n omega + i Gamma/2. Without a drive this is the
    Lorentzian line. The sum is cut where the J_n(u/omega)^2 tail drops
    below 1e-10; note the sidebands at E0 + n omega and E0 - n omega are
    *not* mirror images (the n-channels interfere through the common
    initial condition).
    """
    e_r, scalar = _as_float_array(e_r)
    g = params.gamma
    if params.level_drive is None or params.level_drive.u == 0.0:
        denom = (e_r - params.e0) ** 2 + 0.25 * g * g
        return _maybe_scalar(g / TWO_PI * 1.0 / denom, scalar)
    u, om = params.level_drive.u, params.level_drive.omega
    x = u / om
    n_max = truncation_order(abs(x), FLOQUET_TAIL_TOL)
    coef = np.array([_phase4(n) * bessel_j(n, x) for n in range(-n_max, n_max + 1)])
    return _maybe_scalar(g / TWO_PI * _pole_sum_sq(coef, e_r - params.e0, om, g), scalar)


def floquet_spectrum_barrier(params: SystemParams, e_r):
    """Long-time spectrum for the oscillating barrier (wide band, alpha < 1).

    Pbar(E) = Gamma/(2 pi) | sum_n e^{-xi} I_n(xi) [ 1/d_n
              + i alpha omega / (d_n^2 - omega^2) ] |^2,  xi = alpha Gamma/omega.
    Symmetric about E0; reduces to the Lorentzian line at alpha = 0.
    """
    e_r, scalar = _as_float_array(e_r)
    g = params.gamma
    if params.barrier_drive is None or params.barrier_drive.alpha == 0.0:
        denom = (e_r - params.e0) ** 2 + 0.25 * g * g
        return _maybe_scalar(g / TWO_PI * 1.0 / denom, scalar)
    al, om = params.barrier_drive.alpha, params.barrier_drive.omega
    if al >= 1.0:
        raise ModelError(f"barrier spectrum needs alpha < 1, got {al}")
    xi = al * g / om
    n_max = truncation_order(xi, FLOQUET_TAIL_TOL)
    a = np.pad([math.exp(-xi) * bessel_i(n, xi) for n in range(-n_max, n_max + 1)], 2)
    coef = a[1:-1] + 0.5j * al * (a[:-2] - a[2:])  # partial fractions, see the module docstring
    return _maybe_scalar(g / TWO_PI * _pole_sum_sq(coef, e_r - params.e0, om, g), scalar)


def _pole_sum_sq(coef: np.ndarray, detuning: np.ndarray, omega: float, gamma: float):
    """|sum_m coef_m / (d - m omega + i gamma/2)|^2 at every detuning d, m centred
    on 0, in real arithmetic: 1/(d + i gamma/2) = (d - i gamma/2) / (d^2 + gamma^2/4)."""
    poles = (np.arange(coef.size) - coef.size // 2) * omega
    cr, ci = np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag)
    flat = np.atleast_1d(detuning).ravel()
    out = np.empty(flat.size)
    half = 0.5 * gamma
    step = max(1, _POLE_BLOCK // coef.size)
    for lo in range(0, flat.size, step):
        d = flat[lo : lo + step, None] - poles
        inv = 1.0 / (d * d + half * half)
        d *= inv
        inv *= half
        re, im = d @ cr + inv @ ci, d @ ci - inv @ cr
        out[lo : lo + step] = re * re + im * im
    return out.reshape(np.shape(detuning))
