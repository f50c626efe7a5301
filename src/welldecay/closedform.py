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

Each weight list, n = -n_max .. n_max, is one bessel_j or bessel_ive table
(one Miller pass at u/omega or xi; e^{-xi} I_n is finite for any xi < 1e4).

The sign of that second term is fixed by direct quadrature of the
time-domain integral, which is the authoritative reference. By partial
fractions it is (i alpha / 2)(1/d_{n+1} - 1/d_{n-1}), so both spectra are
single-pole sums sum_m c_m / d_m over one line of poles, the barrier with
c_m = a_m + (i alpha / 2)(a_{m-1} - a_{m+1}) for m = -n_max-1 .. n_max+1.

Every pole lies Gamma/2 below the real axis, so A(d) = sum_m c_m / d_m is
analytic in the strip |Im d| < Gamma/2. On a real panel of half-width h the
Chebyshev interpolant through p first-kind points then converges like
rho^(-p), rho = y + sqrt(1 + y^2), y = Gamma / (2h) (Trefethen, Approximation
Theory and Approximation Practice, 2013, ch. 8). The panels are Gamma/4
wide over the pole range (rho = 8.1) and grow by 1.5 per panel beyond it,
where their distance to the poles keeps rho >= 9.9. With p = 28 the
truncation error is far below rounding: the panel sum matches the direct
one to about 1e-14 of the peak. A panel holding at least p energies costs
p M pole terms at its points and O(p) per energy, so a spectrum of N_E
energies over M poles costs O(panels p M + N_E p) instead of O(M N_E).
Sparser panels, and every energy when M <= 2p, take the direct sum.

Everything is vectorized over the time / energy argument; sgn(0) = 0, which
makes b0(0) = 1 exact. Non-finite energies are rejected.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .bessel import bessel_ive, bessel_j, truncation_order
from .model import ModelError, SystemParams, TWO_PI

FLOQUET_TAIL_TOL = 1.0e-10
_POLE_BLOCK = 1 << 16  # (energy, pole) pairs per block of the sideband sums
_CHEB_POINTS = 28  # Chebyshev points per panel of the sideband sums
_PANEL_GROWTH = 1.5  # width ratio of successive panels beyond the pole range
_LOG_GROWTH = math.log(_PANEL_GROWTH)
_PANEL_BLOCK = _POLE_BLOCK // _CHEB_POINTS  # targets per block of the panel walk
# below, (gamma/2)^2 nears the smallest normal float and |A|^2 ~ (2/gamma)^2 the largest
_TINY_GAMMA = 1.0e-150


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


def b0_markovian_static(params: SystemParams, t):
    """Amplitude e^{-i E0 t - Gamma |t|/2} of the wide-band static level."""
    t, scalar = _as_float_array(t)
    out = np.exp(-1j * params.e0 * t - 0.5 * params.gamma * np.abs(t))
    return _maybe_scalar(out, scalar)


def b0_markovian_driven(params: SystemParams, t, linear_alpha: bool = False):
    """Wide-band amplitude b0 = exp(-i Phi(t)) under the drives of params, any sign of t.

    Phi(t) = int_0^t E0(t') dt' - i sgn(t) (Gamma/2) int_0^t w^2(t') dt' is
    exact for a level drive, a barrier drive or both; its imaginary part is
    <= 0 for either sign of t, so |b0| <= 1. The barrier drive keeps the
    full w^2 integral by default; linear_alpha=True drops the O(alpha^2)
    part of w^2, the variant used by the sideband resummation.
    """
    t, scalar = _as_float_array(t)
    w2_int = params.w2_integral(t, linear_alpha)
    phase = params.e0_integral(t) - 0.5j * params.gamma * np.sign(t) * w2_int
    return _maybe_scalar(np.exp(-1j * phase), scalar)


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
    h = np.hypot(e_r - e0, 0.5 * g)  # the denominator's root: no Gamma^2 to underflow
    if math.isinf(t):
        num = 1.0
    else:
        num = 1.0 - 2.0 * np.cos((e0 - e_r) * t) * math.exp(-0.5 * g * t) + math.exp(-g * t)
    return _maybe_scalar(num * (g / TWO_PI / h / h), scalar)


def floquet_spectrum_level(params: SystemParams, e_r):
    """Long-time spectrum for the oscillating level (wide band).

    Pbar(E) = Gamma/(2 pi) | sum_n (-i)^n J_n(u/omega) / d_n |^2 with
    d_n = E - E0 - n omega + i Gamma/2. Without a drive this is the
    Lorentzian line. The sum is cut where the J_n(u/omega)^2 tail drops
    below 1e-10; note the sidebands at E0 + n omega and E0 - n omega are
    *not* mirror images (the n-channels interfere through the common
    initial condition).
    """
    e_r, scalar = _finite_energies(e_r)
    g = params.gamma
    if params.level_drive is None or params.level_drive.u == 0.0:
        return lineshape_markovian(params, e_r, math.inf)
    u, om = params.level_drive.u, params.level_drive.omega
    x = u / om
    n_max = truncation_order(abs(x), FLOQUET_TAIL_TOL)
    orders = np.arange(-n_max, n_max + 1)
    coef = _PHASE4[orders % 4] * bessel_j(orders, x)
    out = _pole_sum_sq(coef, e_r - params.e0, om, g, g / TWO_PI)
    return _maybe_scalar(out, scalar)


def floquet_spectrum_barrier(params: SystemParams, e_r):
    """Long-time spectrum for the oscillating barrier (wide band, alpha < 1).

    Pbar(E) = Gamma/(2 pi) | sum_n e^{-xi} I_n(xi) [ 1/d_n
              + i alpha omega / (d_n^2 - omega^2) ] |^2,  xi = alpha Gamma/omega.
    Symmetric about E0; reduces to the Lorentzian line at alpha = 0.
    """
    e_r, scalar = _finite_energies(e_r)
    g = params.gamma
    if params.barrier_drive is None or params.barrier_drive.alpha == 0.0:
        return lineshape_markovian(params, e_r, math.inf)
    al, om = params.barrier_drive.alpha, params.barrier_drive.omega
    if al >= 1.0:
        raise ModelError(f"barrier spectrum needs alpha < 1, got {al}")
    xi = al * g / om
    n_max = truncation_order(xi, FLOQUET_TAIL_TOL)
    a = np.pad(bessel_ive(np.arange(-n_max, n_max + 1), xi), 2)
    coef = a[1:-1] + 0.5j * al * (a[:-2] - a[2:])  # partial fractions, see the module docstring
    out = _pole_sum_sq(coef, e_r - params.e0, om, g, g / TWO_PI)
    return _maybe_scalar(out, scalar)


def _pole_sum_sq(coef: np.ndarray, detuning: np.ndarray, omega: float, gamma: float, weight):
    """weight |A(d)|^2, A(d) = sum_m coef_m / (d - m omega + i gamma/2), at every detuning d,
    with m centred on 0; all sums in real arithmetic,
    1/(d + i gamma/2) = (d - i gamma/2) / (d^2 + gamma^2/4).

    The targets are walked in ascending order (sorted only when they are
    not), _PANEL_BLOCK at a time, and grouped into the panels of _Panels; a
    block never ends inside a panel unless that panel fills it. A panel with
    at least _CHEB_POINTS = p targets gets A summed exactly at its p
    Chebyshev points; its targets then read the interpolant, by the T_j
    recurrence and one (2 x p) @ (p x targets) product. Every other target
    takes the direct blocked sum. Cost O(panels p M + N_E p) for M poles and
    N_E targets, against O(M N_E) for the direct sum; memory O(N_E) for the
    output (and the sort order) plus O(_POLE_BLOCK) per block.

    The direct sum serves every target when M <= 2p, where one interpolated
    target costs more than its M pole terms, and when gamma/4 is below 2^-52
    of the targets' reach, where panel numbers would not be exact integers
    and the outer panels' coordinate could overflow. Below gamma = 1e-150,
    where (gamma/2)^2 underflows and |A|^2 overflows, it divides each
    denominator by sqrt(weight) before the complex reciprocal (numpy divides
    by Smith's rule), so that 1/(i gamma/2) never forms and sqrt(weight) A is
    squared. On a sideband the result, about 2 |coef_m|^2 / (pi gamma), then
    stays finite as long as that value is a float: down to gamma = 1e-308
    for |coef_m| <= 1.
    """
    poles = (np.arange(coef.size) - coef.size // 2) * omega
    cr, ci = np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag)
    half = 0.5 * gamma
    step = max(1, _POLE_BLOCK // coef.size)

    def pole_sum(d, offset=None):  # (Re A, Im A) at d + offset, by blocks of (target, pole) pairs
        re, im = np.empty(d.size), np.empty(d.size)
        for lo in range(0, d.size, step):
            x = d[lo : lo + step, None] - poles
            if offset is not None:  # after d - pole, which is exact near the pole
                x += offset[lo : lo + step, None]
            inv = x * x
            inv += half * half
            np.divide(1.0, inv, out=inv)
            x *= inv
            inv *= half
            re[lo : lo + step], im[lo : lo + step] = x @ cr + inv @ ci, x @ ci - inv @ cr
        return re, im

    def direct(d):  # weight |A|^2 at d
        if gamma < _TINY_GAMMA:  # sqrt(weight) A, from denominators divided by sqrt(weight)
            s = math.sqrt(weight)
            with np.errstate(over="ignore"):  # a term whose scaled detuning overflows is 1/inf = 0
                a = (1.0 / ((d[:, None] - poles) / s + 1j * (half / s))) @ coef
            return a.real * a.real + a.imag * a.imag
        re, im = pole_sum(d)
        return weight * (re * re + im * im)

    def interpolated(d, lower, upper, size):  # weight |A|^2 at d, size[i] of them in panel i
        mid, rad = 0.5 * (upper + lower), 0.5 * (upper - lower)
        at_points = np.stack(pole_sum(np.repeat(mid, _CHEB_POINTS), np.outer(rad, nodes).ravel()))
        cheb_coef = (at_points.reshape(2, -1, _CHEB_POINTS) @ to_coef.T).transpose(1, 0, 2)
        which = np.repeat(np.arange(size.size), size)
        x = (d - mid[which]) / rad[which]
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
            vals[a:b] = weight * (re * re + im * im)
        return vals

    flat = np.atleast_1d(detuning).ravel()
    out = np.empty(flat.size)
    reach = max(flat.max(initial=0.0), -flat.min(initial=0.0)) + poles[-1] - poles[0] + 2.0 * gamma
    if coef.size <= 2 * _CHEB_POINTS or not reach < 2.0**50 * gamma or gamma < _TINY_GAMMA:
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
    panels = _Panels(poles, gamma)
    pos = 0
    while pos < flat.size:
        d = flat[pos : pos + _PANEL_BLOCK]
        key = np.floor(panels.coordinate(d))
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
            first = key[stop[dense] - size]
            lower, upper = panels.position(first), panels.position(first + 1.0)
            vals[sel] = interpolated(d[sel], lower, upper, size)
        if order is None:
            out[pos : pos + d.size] = vals
        else:
            out[order[pos : pos + d.size]] = vals
        pos += d.size
    return out.reshape(np.shape(detuning))


class _Panels:
    """Panels of the real axis, each far narrower than its distance to the poles.

    Over the pole range widened by gamma on each side the panels are gamma/4
    wide. Beyond it the j-th panel on either side is _PANEL_GROWTH^j gamma/4
    wide and starts (_PANEL_GROWTH^j - 1) gamma/2 out, so its distance to
    the range tends to twice its width. Panel k spans [k, k + 1) of the
    coordinate below, so a target's panel follows from the target alone and
    only panels that hold a target are ever formed.
    """

    def __init__(self, poles: np.ndarray, gamma: float):
        self.width = 0.25 * gamma
        self.lo = poles[0] - gamma
        self.n_mid = math.ceil((poles[-1] - poles[0] + 2.0 * gamma) / self.width)
        self.hi = self.lo + self.n_mid * self.width
        self.scale = (_PANEL_GROWTH - 1.0) / self.width

    def coordinate(self, d: np.ndarray) -> np.ndarray:
        u = (d - self.lo) / self.width
        right, left = d >= self.hi, d < self.lo
        u[right] = self.n_mid + np.log1p((d[right] - self.hi) * self.scale) / _LOG_GROWTH
        u[left] = -np.log1p((self.lo - d[left]) * self.scale) / _LOG_GROWTH
        return u

    def position(self, u: np.ndarray) -> np.ndarray:
        """The inverse of coordinate."""
        d = self.lo + u * self.width
        right, left = u > self.n_mid, u < 0.0
        d[right] = self.hi + np.expm1((u[right] - self.n_mid) * _LOG_GROWTH) / self.scale
        d[left] = self.lo - np.expm1(-u[left] * _LOG_GROWTH) / self.scale
        return d
