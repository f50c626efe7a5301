"""Shared test helpers: spectrum conservation runs, Richardson convergence
orders, the linear-alpha barrier amplitude and a kernel's values at its lags."""

import math

import numpy as np

from welldecay import spectra
from welldecay.model import WideBand
from welldecay.solvers import SolverConfig, solve
from welldecay.spectra import spectrum_from_trajectory


def tail_points_for(t_end: float, window: float, p0_final: float) -> int:
    """Tail sampling that resolves the cos(E t) window-edge oscillation.

    The large-|E| spectrum oscillates with period 2 pi / t and amplitude
    proportional to sqrt(P0(t)); once that amplitude is negligible the
    oscillation can alias freely and the default density suffices.
    """
    if math.sqrt(p0_final) < 5e-3:
        return 1000
    log_span = math.log(window / 8.0)
    return min(9000, max(1000, int(5.0 * log_span * window * t_end / (2.0 * math.pi))))


def conservation_gap(params, t_end):
    """|P0(t) + integral of P_r - 1| from one wide-band run at t = t_end.

    The energy window leaves under 5e-4 of mass in the 1/E^2 wings; one time
    step, spectra.trajectory_dt, serves the whole grid and lands exactly on
    t_end.
    """
    p0_final = math.exp(-t_end)  # >= the barrier-driven P0: a wider window
    window = spectra.conservation_window(params, p0_final)
    n_tail = tail_points_for(t_end, window, p0_final)
    grid = spectra.energy_grid(params, tail_halfwidth=window, tail_points=n_tail)
    dt = spectra.trajectory_dt(params, grid, t_end)
    traj = solve(params, WideBand(), SolverConfig(dt=dt, t_end=t_end))
    spec = spectrum_from_trajectory(traj, grid)
    return abs(float(traj.p0[-1]) + spec.norm - 1.0)


class MismatchError(ValueError):
    """Trajectories with different physics cannot be compared."""


def same_physics(a, b) -> bool:
    """Whether two trajectories solve the same problem to the same end time."""
    return (
        a.params == b.params
        and a.sd == b.sd
        and a.method == b.method
        and math.isclose(a.times[-1], b.times[-1], rel_tol=1.0e-12, abs_tol=0.0)
    )


def convergence_order(coarse, fine, reference) -> float:
    """Richardson estimate of the convergence order from a (dt, dt/2) run pair.

    reference supplies the third datum the estimate needs: either a further
    halved trajectory (dt/4), giving log2 of the ratio of successive
    differences, or a callable t -> b0 evaluated as the exact solution,
    giving log2 of the ratio of true errors. Identical runs degenerate to
    zero differences and are reported as +inf.
    """
    if not same_physics(coarse, fine):
        raise MismatchError("run pair differs in physics metadata")
    if not math.isclose(fine.cfg.dt, 0.5 * coarse.cfg.dt, rel_tol=1.0e-9):
        raise MismatchError("fine run must halve the coarse step")

    if callable(reference):
        e1 = float(np.max(np.abs(coarse.b0 - reference(coarse.times))))
        e2 = float(np.max(np.abs(fine.b0 - reference(fine.times))))
    else:
        if not same_physics(fine, reference):
            raise MismatchError("reference run differs in physics metadata")
        if not math.isclose(reference.cfg.dt, 0.5 * fine.cfg.dt, rel_tol=1.0e-9):
            raise MismatchError("reference run must halve the fine step")
        e1 = float(np.max(np.abs(coarse.b0 - fine.b0[::2])))
        e2 = float(np.max(np.abs(fine.b0 - reference.b0[::2])))
    if e2 == 0.0:
        return math.inf
    return math.log2(e1 / e2)


def b0_linear_alpha(params, t):
    """Wide-band amplitude with the O(alpha^2) part of int_0^t w^2 dropped.

    b0 = exp(-i [int_0^t E0 - (i/2) sgn(t) (t + 2 alpha/omega (1 - cos omega t))])
    for the barrier drive w = 1 + alpha sin(omega t) of params: the amplitude
    the sideband resummation closedform.floquet_spectrum sums exactly.
    """
    t = np.asarray(t, dtype=float)
    al, om = params.alpha, params.barrier_drive.omega
    w2_int = t + 2.0 * al / om * (1.0 - np.cos(om * t))
    phase = params.e0_integral(t) - 0.5j * np.sign(t) * w2_int
    return np.exp(-1j * phase)


def kernel_lags(sd, dt, n):
    """K(j dt), j = 0 .. n, from the modes (a, theta) of sd.kernel(dt, n): the direct
    sum K_j = sum_r a_r e^{-i theta_r j}, formed a few lags at a time."""
    a, theta = sd.kernel(dt, n)
    lags = np.arange(n + 1)
    step = max(1, (1 << 16) // max(theta.size, 1))
    return np.concatenate([np.exp(-1j * np.outer(lags[lo : lo + step], theta)) @ a
                           for lo in range(0, n + 1, step)])
