"""Physical model shared by every solver: system parameters with their
drive profiles, reservoir spectral densities and their memory kernels.

Every solver reads the level E0(t) and the barrier w(t) through the
SystemParams profiles. LevelDrive and BarrierDrive are sinusoids with
closed-form integrals; another profile is a subclass of either.

Units: hbar = 1 and the wide-band level width Gamma = 1 is the energy unit
(time in 1/Gamma), so no parameter holds it. A reservoir holds only its band
shape: its spectral density is S(E) = Omega^2(E) rho(E) = shape(E)/(2 pi),
the wide band's being 1/(2 pi). The kernel entering the memory integral is
the Fourier transform of S,

    K(tau) = int S(E) e^{-i E tau} dE,

real and even in tau for every (even) density implemented here:

    wide band     S(E) = 1/(2 pi)                        K = delta(tau)
    Lorentzian    S(E) = 1/(2 pi) L^2/(E^2 + L^2)        K = (L / 2) e^{-L |tau|}
    semicircle    S(E) = 1/(2 pi) sqrt(1 - E^2/W^2)      K = J_1(W tau)/(2 tau)

on support |E| <= W for the semicircle. A kernel method returns K on the
lags j = 0 .. n of the grid solve_volterra asks for as its modes:
kernel(dt, n) = (a, theta) with K(j dt) = sum_r a_r e^{-i theta_r j}. The
Lorentzian is one damped mode, a = L/2 and theta = -i L dt.

The finite chain discretizes the semicircle with N levels
E_r = W cos(r pi/(N+1)) and couplings chosen so that Omega^2(E_r) rho(E_r)
reproduces the semicircle density: the levels and Omega_r^2 are the nodes
and weights of the N-point Gauss-Chebyshev rule of the second kind for S(E).
The semicircle kernel is therefore the coupling sum of a long enough chain,
K(j dt) = sum_r Omega_r^2 e^{-i E_r j dt}, exact once 2N exceeds the order
beyond which the Chebyshev coefficients J_k(W n dt) of the phase have
decayed: its modes are a = Omega_r^2 and theta = E_r dt. The driven chain's
memory kernel is a mode sum too, and every memory integral runs by carrying
its modes, O(n (log B + R)) work for R modes. Neither the wide band nor the
chain has a kernel method; solve_volterra rejects both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bessel import _miller_start

TWO_PI = 2.0 * math.pi


class ModelError(ValueError):
    """Invalid physical parameter or unsupported reservoir variant."""


def _check_finite(obj, *fields: str) -> None:
    """Reject non-numbers, NaN and inf in the named fields of a parameter record."""
    for name in fields:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Real):
            raise ModelError(f"{type(obj).__name__}.{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ModelError(f"{type(obj).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class LevelDrive:
    """Oscillating well level, E0(t) = E0 - u sin(omega t).

    Another profile is a subclass that overrides shift(t) = E0(t) - E0,
    rate(t) = dE0/dt and integral(t) = int_0^t shift dt'.
    """

    u: float
    omega: float

    def __post_init__(self):
        _check_finite(self, "u", "omega")
        if not self.omega > 0.0:
            raise ModelError(f"level drive needs omega > 0, got {self.omega}")

    def shift(self, t):
        return -self.u * np.sin(self.omega * t)

    def rate(self, t):
        return -self.u * self.omega * np.cos(self.omega * t)

    def integral(self, t):
        return (self.u / self.omega) * (np.cos(self.omega * t) - 1.0)


@dataclass(frozen=True)
class BarrierDrive:
    """Oscillating barrier transparency, w(t) = 1 + alpha sin(omega t).

    Another profile is a subclass that overrides w(t), rate(t) = dw/dt and
    w2_integral(t) = int_0^t w^2 dt'.
    """

    alpha: float
    omega: float

    def __post_init__(self):
        _check_finite(self, "alpha", "omega")
        if not self.omega > 0.0:
            raise ModelError(f"barrier drive needs omega > 0, got {self.omega}")
        if self.alpha < 0.0:
            raise ModelError(f"barrier drive needs alpha >= 0, got {self.alpha}")

    def w(self, t):
        return 1.0 + self.alpha * np.sin(self.omega * t)

    def rate(self, t):
        return self.alpha * self.omega * np.cos(self.omega * t)

    def w2_integral(self, t):
        al, om = self.alpha, self.omega
        out = t + 2.0 * al / om * (1.0 - np.cos(om * t))
        return out + al * al * (0.5 * t - np.sin(2.0 * om * t) / (4.0 * om))


@dataclass(frozen=True)
class SystemParams:
    """Static level position and optional drives (all in units of Gamma = 1).

    Both drives may be present simultaneously; they are evaluated
    independently wherever that combination is supported. The solvers read
    the drives only through the profiles e0_at = E0(t), e0_rate = dE0/dt,
    e0_integral = int_0^t E0 dt', w_at = w(t), w_rate = dw/dt and
    w2_integral = int_0^t w^2 dt', each vectorized over t.
    """

    e0: float
    level_drive: Optional[LevelDrive] = None
    barrier_drive: Optional[BarrierDrive] = None

    def __post_init__(self):
        _check_finite(self, "e0")

    @property
    def u(self) -> float:
        return self.level_drive.u if self.level_drive is not None else 0.0

    @property
    def alpha(self) -> float:
        return self.barrier_drive.alpha if self.barrier_drive is not None else 0.0

    @property
    def static(self) -> bool:
        return self.level_drive is None and self.barrier_drive is None

    def e0_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.level_drive is None:
            return np.full_like(t, self.e0)
        return self.e0 + self.level_drive.shift(t)

    def e0_rate(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if self.level_drive is None else self.level_drive.rate(t)

    def e0_integral(self, t):
        t = np.asarray(t, dtype=float)
        if self.level_drive is None:
            return self.e0 * t
        return self.e0 * t + self.level_drive.integral(t)

    def w_at(self, t):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t) if self.barrier_drive is None else self.barrier_drive.w(t)

    def w_rate(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if self.barrier_drive is None else self.barrier_drive.rate(t)

    def w2_integral(self, t):
        t = np.asarray(t, dtype=float)
        return t if self.barrier_drive is None else self.barrier_drive.w2_integral(t)


# ---------------------------------------------------------------------------
# reservoir spectral densities


@dataclass(frozen=True)
class WideBand:
    """Energy-independent reservoir, S(E) = 1/(2 pi); delta-function kernel."""

    def density(self, e):
        e = np.asarray(e, dtype=float)
        return np.full_like(e, 1.0 / TWO_PI)


@dataclass(frozen=True)
class Lorentzian:
    """Lorentzian density of half-width lam, S(E) = 1/(2 pi) lam^2/(E^2+lam^2)."""

    lam: float

    def __post_init__(self):
        _check_finite(self, "lam")
        if not self.lam > 0.0:
            raise ModelError(f"Lorentzian half-width must be positive, got {self.lam}")

    def density(self, e):
        e = np.asarray(e, dtype=float)
        l2 = self.lam * self.lam
        return 1.0 / TWO_PI * l2 / (e * e + l2)

    def kernel(self, dt: float, n: int) -> tuple:
        return np.array([0.5 * self.lam]), np.array([-1j * self.lam * dt])


@dataclass(frozen=True)
class Semicircle:
    """Semicircle density on |E| <= W, S(E) = 1/(2 pi) sqrt(1 - E^2/W^2)."""

    w_band: float

    def __post_init__(self):
        _check_finite(self, "w_band")
        if not self.w_band > 0.0:
            raise ModelError(f"semicircle band edge must be positive, got {self.w_band}")

    def density(self, e):
        e = np.asarray(e, dtype=float)
        inside = 1.0 - (e / self.w_band) ** 2
        return 1.0 / TWO_PI * np.sqrt(np.clip(inside, 0.0, None))

    def kernel(self, dt: float, n: int) -> tuple:
        # J_1(W tau)/(2 tau) as the coupling sum of a chain long enough for
        # a = W n dt: the Chebyshev coefficients J_k(a) of e^{-i a E/W} fall below
        # 1e-17 from the (even) Miller start order m on, and the M-level rule is
        # exact to order 2M - 1, so M = m/2 levels suffice
        m = _miller_start(0, self.w_band * n * dt)
        chain = FiniteChain(m // 2, self.w_band)
        om = chain.couplings()
        return om * om, chain.level_energies() * dt


@dataclass(frozen=True)
class FiniteChain:
    """N discrete reservoir levels sampling the semicircle band.

    Levels E_r = W cos(r pi/(N+1)), r = 1..N, strictly decreasing, and
    couplings Omega(E_r) = sqrt(W / (2 (N+1))) sqrt(1 - E_r^2/W^2),
    vanishing at the band edges. With the level density
    rho(E_r) = (N+1)/(pi sqrt(W^2 - E_r^2)) this makes Omega^2 rho equal
    to the semicircle density at every level.
    """

    n_levels: int
    w_band: float

    def __post_init__(self):
        _check_finite(self, "w_band")
        if isinstance(self.n_levels, bool) or not isinstance(self.n_levels, numbers.Integral):
            raise ModelError(f"FiniteChain.n_levels must be an integer, got {self.n_levels!r}")
        if self.n_levels < 1:
            raise ModelError(f"chain needs at least one level, got {self.n_levels}")
        if not self.w_band > 0.0:
            raise ModelError(f"chain band edge must be positive, got {self.w_band}")

    def level_energies(self) -> np.ndarray:
        r = np.arange(1, self.n_levels + 1)
        return self.w_band * np.cos(r * np.pi / (self.n_levels + 1))

    def couplings(self) -> np.ndarray:
        e = self.level_energies()
        return np.sqrt(self.w_band / (2.0 * (self.n_levels + 1))) * np.sqrt(
            1.0 - (e / self.w_band) ** 2
        )

    def level_density(self) -> np.ndarray:
        e = self.level_energies()
        return (self.n_levels + 1) / (np.pi * np.sqrt(self.w_band**2 - e**2))

    def density(self, e):
        # continuum envelope (the N -> infinity limit of Omega^2 rho)
        return Semicircle(self.w_band).density(e)


SpectralDensity = Union[WideBand, Lorentzian, Semicircle, FiniteChain]

