"""Analytic solutions for the decaying level, valid on the whole time axis.

These closed forms serve double duty: fast evaluation paths for the CLI and
independent oracles for the numerical solvers. Energies are in units of the
wide-band width Gamma = 1 and times in 1/Gamma; the formulas below keep
Gamma only to show where the width enters.

Wide-band reservoir:
    b0(t) = exp(-i Phi(t)),  Phi(t) = int_0^t E0(t') dt'
                                      - i sgn(t) (Gamma/2) int_0^t w^2(t') dt'
    static case b0(t) = e^{-i E0 t - Gamma |t| / 2}, so P0 = e^{-Gamma |t|}
    with a first-derivative cusp at t = 0; b0_markovian_driven covers both.

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
    barrier drive  weights e^{-xi} I_n(xi), xi = alpha / omega, with a
                   second term + i alpha omega / (d_n^2 - omega^2) generated
                   by the w(t) prefactor (d_n = E - E0 - n omega + i Gamma/2).

floquet_spectrum takes the weights from the one drive of params (SystemParams
drops a drive of zero amplitude); _sidebands owns that choice, the Bessel
argument x (u/omega or xi) and the cutoff n_max, and spectra reads its
sideband count and grid from the same rule. Each
weight list, n = -n_max .. n_max, is one bessel_j or bessel_ive table (one
Miller pass at x; e^{-xi} I_n is finite for any xi < 1e4).

The sign of that second term is fixed by direct quadrature of the
time-domain integral, which is the authoritative reference. By partial
fractions it is (i alpha / 2)(1/d_{n+1} - 1/d_{n-1}), so both spectra are
single-pole sums sum_m c_m / d_m over one line of poles, the barrier with
c_m = a_m + (i alpha / 2)(a_{m-1} - a_{m+1}) for m = -n_max-1 .. n_max+1.

Every pole lies Gamma/2 below the real axis, so A(d) = sum_m c_m / d_m is
analytic in the strip |Im d| < Gamma/2. On a real panel of half-width h the
Chebyshev interpolant through p first-kind points then converges like
rho^(-p), rho = y + sqrt(1 + y^2), y = Gamma / (2h) (Trefethen, Approximation
Theory and Approximation Practice, 2013, ch. 8). Every panel is Gamma/4
wide (y = 4), so rho >= 4 + sqrt(17) = 8.12 wherever it sits, and faster
still away from the poles. p = 18 is the smallest p with rho^(-p) < 2^-53
(4e-17): the panel sum matches the direct one to 6.6e-15 and 5.9e-15 of the
peak on the benchmark's level and barrier spectra (p = 14: 1.1e-13). A panel
of at least p energies costs p M pole terms at its points and O(p) per
energy, so N_E energies over M poles cost O(panels p M + N_E p) instead of
O(M N_E). Sparser panels, and every energy when M <= 2p or when the
energies and poles reach 2^40 (see _pole_sum_sq), take the direct sum.

Everything is vectorized over the time / energy argument, the time-domain
amplitudes _CHUNK times at a time; sgn(0) = 0, which makes b0(0) = 1 exact. Non-finite energies are rejected.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .bessel import J_ARG_MAX, bessel_ive, bessel_j, truncation_order
from .model import ModelError, SystemParams, TWO_PI

FLOQUET_TAIL_TOL = 1.0e-10
_POLE_BLOCK = 1 << 16  # (energy, pole) pairs per block of the sideband sums
_CHEB_POINTS = 18  # Chebyshev points per panel of the sideband sums
_PANEL_BLOCK = _POLE_BLOCK // _CHEB_POINTS  # targets per block of the panel walk
_CHUNK = 1 << 12  # times or targets per chunk of the time-domain closed forms and spectra's NUFFT


_PHASE4 = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^n exactly, indexed by n % 4


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finite_energies(e_r):
    e_r, scalar = _as_float_array(e_r)
    if not np.isfinite(e_r).all():
        raise ModelError("spectrum energies must be finite")
    return e_r, scalar


def _maybe_scalar(values, scalar: bool):
    return values[()] if scalar else values


def _in_chunks(f, t: np.ndarray) -> np.ndarray:
    """f(t) for a complex-valued elementwise f, evaluated _CHUNK entries of t at a time, so
    that f's temporaries stay the size of one chunk."""
    flat = t.reshape(-1)
    out = np.empty(flat.size, dtype=complex)
    for lo in range(0, flat.size, _CHUNK):
        out[lo : lo + _CHUNK] = f(flat[lo : lo + _CHUNK])
    return out.reshape(t.shape)


def b0_markovian_driven(params: SystemParams, t):
    """Wide-band amplitude b0 = exp(-i Phi(t)) under the drives of params, any sign of t.

    Phi(t) = int_0^t E0(t') dt' - i sgn(t) (Gamma/2) int_0^t w^2(t') dt' is
    exact for a level drive, a barrier drive or both, and without a drive it
    is e^{-i E0 t - Gamma |t|/2}; its imaginary part is <= 0 for either sign
    of t, so |b0| <= 1.
    """
    t, scalar = _as_float_array(t)

    def b0(t):
        return np.exp(-1j * (params.e0_integral(t) - 0.5j * np.sign(t) * params.w2_integral(t)))

    return _maybe_scalar(_in_chunks(b0, t), scalar)


def lorentzian_q(params: SystemParams, lam: float, sign: float) -> complex:
    """Principal branch Q = sqrt(L^2 - 2 Gamma L - E0^2 - 2 i sgn E0 L), Re Q >= 0.

    An E0 or L so large that Q^2 overflows (|E0| or L above about 1.3e154)
    raises ModelError.
    """
    q2 = complex(lam * lam - 2.0 * lam - params.e0 * params.e0) - 2.0j * sign * params.e0 * lam
    if not np.isfinite(q2):
        raise ModelError(f"the Lorentzian closed form overflows: Q^2 is not finite at "
                         f"E0 = {params.e0:g}, lambda = {lam:g}")
    q = np.sqrt(q2)
    return -q if q.real < 0.0 else q


def b0_lorentzian_static(params: SystemParams, lam: float, t):
    """Static Lorentzian-reservoir amplitude, both signs of t.

    Evaluated at |t| through scaled exponentials, 0.5 (1 +/- c)
    e^{(+/-Q - L - i E0)|t|/2} with c = (L - i E0)/Q and
    Q = lorentzian_q(params, lam, 1), so large L |t| cannot overflow (Re Q < L,
    as Gamma > 0). Each time with |z| = |Q t|/2 < 1, where the two terms
    cancel to 1/|z| (and Q may be 0), takes e^{-(L + i E0)|t|/2} (cosh z +
    (L - i E0)(|t|/2) sinh(z)/z) instead. The Hamiltonian is real, so
    b0(-t) = conj b0(t).
    """
    if not lam > 0.0:
        raise ModelError(f"Lorentzian half-width must be positive, got {lam}")
    t, scalar = _as_float_array(t)
    q = lorentzian_q(params, lam, 1.0)
    k = lam + 1j * params.e0  # L + i E0
    c = k.conjugate() / q if q else 0.0  # Q = 0 leaves every time to the |z| < 1 form

    def b0(t):
        at = np.abs(t)
        # 0.5 (1 + c) (e^{(Q-k)|t|/2} + r e^{-(Q+k)|t|/2}), r = (1-c)/(1+c), in two buffers:
        # no product overwrites its operand, where numpy's rounding depends on the length
        em = at * (-0.5 * (q + k))
        np.exp(em, out=em)
        out = em * ((1.0 - c) / (1.0 + c))
        np.multiply(at, 0.5 * (q - k), out=em)
        np.exp(em, out=em)
        out += em
        out = np.multiply(out, 0.5 * (1.0 + c), out=em)
        near = abs(q) * at < 2.0
        a = at[near]
        z = 0.5 * q * a
        sinhc = np.sinc(z / np.pi * 1j)  # sinh(z)/z, 1 at z = 0
        out[near] = np.exp(-0.5 * k * a) * (np.cosh(z) + k.conjugate() * 0.5 * a * sinhc)
        out[at == 0.0] = 1.0  # U(0) = I exactly, also where Q overflows
        out.imag *= np.where(t < 0.0, -1.0, 1.0)  # b0(-t) = conj b0(t)
        return out

    return _maybe_scalar(_in_chunks(b0, t), scalar)


def short_time_coefficients(lam: float) -> Tuple[float, float]:
    """(c2, c3) of P0 = 1 - c2 t^2 + c3 |t|^3 + O(t^4) for the static Lorentzian.

    c2 = Gamma L / 2 and c3 = Gamma L^2 / 6 at any E0; the lam -> 0 limit
    switches the decay off.
    """
    return 0.5 * lam, lam * lam / 6.0


def lineshape_markovian(params: SystemParams, e_r, t: float):
    """Reservoir energy distribution P_r(t) of the static wide-band model, t >= 0.

    P_r(t) = Gamma/(2 pi) [1 - 2 cos((E0-E) t) e^{-Gamma t/2} + e^{-Gamma t}]
             / ((E - E0)^2 + Gamma^2/4),
    which relaxes to the Lorentzian line of width Gamma as t -> infinity.
    Pass t = math.inf for the limit directly.
    """
    if not t >= 0.0:
        raise ModelError("the reservoir line shape is defined for t >= 0")
    e_r, scalar = _as_float_array(e_r)
    e0 = params.e0
    h = np.hypot(e_r - e0, 0.5)  # the denominator's root
    if math.isinf(t):
        num = 1.0
    else:
        num = 1.0 - 2.0 * np.cos((e0 - e_r) * t) * math.exp(-0.5 * t) + math.exp(-t)
    return _maybe_scalar(num * (1.0 / TWO_PI / h / h), scalar)


def _sidebands(params: SystemParams) -> Optional[Tuple[float, float, int]]:
    """(x, omega, n_max) of the drive of params, None when it has none.

    x is the Bessel argument of the sideband weights, u/omega for the level
    and xi = alpha/omega for the barrier; n_max cuts both weight tails
    below FLOQUET_TAIL_TOL. The resummation covers one drive, so two drives
    raise ModelError, as does |x| >= J_ARG_MAX, the Bessel tables' limit.
    SystemParams drops a drive of zero amplitude, so static params have none.
    """
    if params.level_drive is not None and params.barrier_drive is not None:
        raise ModelError("the sideband resummation covers one drive; both are active")
    if params.level_drive is not None:
        om = params.level_drive.omega
        x, name = params.u / om, "u/omega"
    elif params.barrier_drive is not None:
        om = params.barrier_drive.omega
        x, name = params.alpha / om, "alpha/omega"
    else:
        return None
    if not abs(x) < J_ARG_MAX:
        raise ModelError(f"the sideband sum needs |{name}| < {J_ARG_MAX:g}, got {name} = {x:g}")
    return x, om, truncation_order(abs(x), FLOQUET_TAIL_TOL)


def floquet_spectrum(params: SystemParams, e_r):
    """Long-time spectrum under the active drive of params (wide band).

    Pbar(E) = 1/(2 pi) | sum_m c_m / d_m |^2 with d_m = E - E0 - m omega + i/2
    and the level or barrier (alpha < 1) weights c_m of the module
    docstring. The level sidebands at E0 + n omega and E0 - n omega are *not*
    mirror images (the n-channels interfere through the common initial
    condition); the barrier spectrum is symmetric about E0. Without an active
    drive this is the Lorentzian line.
    """
    e_r, scalar = _finite_energies(e_r)
    sidebands = _sidebands(params)
    if sidebands is None:
        return lineshape_markovian(params, e_r, math.inf)
    x, om, n_max = sidebands
    orders = np.arange(-n_max, n_max + 1)
    if params.level_drive is not None:
        coef = _PHASE4[orders % 4] * bessel_j(orders, x)
    else:
        al = params.alpha
        if al >= 1.0:
            raise ModelError(f"barrier spectrum needs alpha < 1, got {al}")
        a = np.pad(bessel_ive(orders, x), 2)
        coef = a[1:-1] + 0.5j * al * (a[:-2] - a[2:])  # partial fractions, see the module docstring
    out = _pole_sum_sq(coef, e_r - params.e0, om)  # in the detuning buffer
    out *= 1.0 / TWO_PI
    return _maybe_scalar(out, scalar)


def _pole_sum_sq(coef: np.ndarray, detuning: np.ndarray, omega: float):
    """|A(d)|^2, A(d) = sum_m coef_m / (d - m omega + i/2), at every detuning d, with m
    centred on 0; all sums in real arithmetic, 1/(d + i/2) = (d - i/2) / (d^2 + 1/4).
    The result is written over detuning, a float array floquet_spectrum owns.

    The targets are walked in ascending order (sorted only when they are
    not), _PANEL_BLOCK at a time, and grouped into panels of one width 1/4
    on a lattice from the lowest pole minus 1, so a target's panel follows
    from the target alone; a block never ends inside a panel unless that panel
    fills it. A panel with at least _CHEB_POINTS = p targets gets A summed
    exactly at its p Chebyshev points; its targets then read the interpolant,
    by the T_j recurrence and one (2 x p) @ (p x targets) product. Every
    other target takes the direct blocked sum. Cost O(panels p M + N_E p) for
    M poles and N_E targets, against O(M N_E) for the direct sum; memory
    O(N_E) only for unsorted targets (their order and sorted copy), plus
    O(_POLE_BLOCK) per block.

    The direct sum serves every target when M <= 2p, where one interpolated
    target costs more than its M pole terms, and when the targets' reach
    (their largest |d| plus the pole span) is 2^40 or more. A target's panel
    number comes from d - origin, rounded to 2^-52 of the reach; as that
    rounding nears the panel width, targets land in a neighbouring panel and
    read its interpolant outside [-1, 1], where it drifts from A. A sweep of
    level drives (u/omega = 5 .. 120, omega = 1 .. 1e14) kept the ~1e-14
    floor of the peak up to a reach of 2^46 and left it beyond (1.7e-10 at
    u/omega = 30, omega = 1e13, reach 2^49.6); 2^40 keeps a factor 64 below.
    """
    poles = (np.arange(coef.size) - coef.size // 2) * omega
    cr, ci = np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag)
    step = max(1, _POLE_BLOCK // coef.size)

    def pole_sum(d, offset=None):  # (Re A, Im A) at d + offset, by blocks of (target, pole) pairs
        re, im = np.empty(d.size), np.empty(d.size)
        for lo in range(0, d.size, step):
            x = d[lo : lo + step, None] - poles
            if offset is not None:  # after d - pole, which is exact near the pole
                x += offset[lo : lo + step, None]
            inv = x * x
            inv += 0.25
            np.divide(1.0, inv, out=inv)
            x *= inv
            inv *= 0.5
            re[lo : lo + step], im[lo : lo + step] = x @ cr + inv @ ci, x @ ci - inv @ cr
        return re, im

    def direct(d):  # |A|^2 at d
        re, im = pole_sum(d)
        return re * re + im * im

    def interpolated(d, mid, rad, size):  # |A|^2 at d, size[i] of them in mid[i] +- rad
        at_points = np.stack(pole_sum(np.repeat(mid, _CHEB_POINTS), np.tile(rad * nodes, mid.size)))
        cheb_coef = (at_points.reshape(2, -1, _CHEB_POINTS) @ to_coef.T).transpose(1, 0, 2)
        which = np.repeat(np.arange(size.size), size)
        x = (d - mid[which]) / rad
        cheb = np.empty((_CHEB_POINTS, x.size))  # T_j(x), row by row
        cheb[0], cheb[1] = 1.0, x
        x += x
        for j in range(2, _CHEB_POINTS):
            np.multiply(x, cheb[j - 1], out=cheb[j])
            cheb[j] -= cheb[j - 2]
        vals = np.empty(d.size)
        end = np.cumsum(size)
        for c, a, b in zip(cheb_coef, end - size, end):  # c: (Re, Im) x T_j coefficients
            re, im = c @ cheb[:, a:b]
            vals[a:b] = re * re + im * im
        return vals

    flat = np.atleast_1d(detuning).ravel()
    out = flat  # each target is read before its value is written, the sorted copy first
    reach = max(flat.max(initial=0.0), -flat.min(initial=0.0)) + poles[-1] - poles[0] + 2.0
    if coef.size <= 2 * _CHEB_POINTS or not reach < 2.0**40:
        for lo in range(0, flat.size, step):
            out[lo : lo + step] = direct(flat[lo : lo + step])
        return out.reshape(np.shape(detuning))
    order = None
    if np.any(flat[1:] < flat[:-1]):
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
    angles = np.pi * (np.arange(_CHEB_POINTS) + 0.5) / _CHEB_POINTS
    nodes = np.cos(angles)  # first kind, on [-1, 1]
    # values at the nodes -> coefficients of T_0 .. T_{p-1} (a discrete cosine transform)
    to_coef = np.cos(np.outer(np.arange(_CHEB_POINTS), angles)) * (2.0 / _CHEB_POINTS)
    to_coef[0] *= 0.5
    width, origin = 0.25, poles[0] - 1.0  # panel k: origin + [k, k + 1) width
    pos = 0
    while pos < flat.size:
        d = flat[pos : pos + _PANEL_BLOCK]
        key = np.floor((d - origin) / width)
        if pos + d.size < flat.size:  # hand the last panel to the next block whole
            cut = int(np.searchsorted(key, key[-1]))
            d, key = (d[:cut], key[:cut]) if cut else (d, key)
        stop = np.append(np.flatnonzero(key[1:] != key[:-1]) + 1, d.size)
        size = np.diff(stop, prepend=0)
        dense = size >= _CHEB_POINTS
        sel = np.repeat(dense, size)
        vals = np.empty(d.size)
        if not sel.all():
            vals[~sel] = direct(d[~sel])
        if sel.any():
            size = size[dense]
            mid = origin + (key[stop[dense] - size] + 0.5) * width
            vals[sel] = interpolated(d[sel], mid, 0.5 * width, size)
        if order is None:
            out[pos : pos + d.size] = vals
        else:
            out[order[pos : pos + d.size]] = vals
        pos += d.size
    return out.reshape(np.shape(detuning))
