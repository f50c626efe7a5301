"""Exact unitary evolution of the well coupled to a finite discrete reservoir.

The (N+1)-level Hamiltonian couples the well amplitude b0 to N reservoir
levels E_r = W cos(r pi/(N+1)) through the star couplings
model.FiniteChain.couplings(), set by N and W alone at the unit level width
Gamma = 1. This module is the trust anchor: no continuum
approximation enters, so it exhibits the finite-size revival, in which the
survival probability returns after the excitation crosses the reservoir
and comes back (arrival of the leading edge at t ~ 2(N+1)/W).

The chain is a reservoir like the continuum ones: solvers.solve routes a
FiniteChain to evolve_chain, which takes the same SystemParams (level position
and drive profiles) and SolverConfig, builds the same grid from t = 0 to
either sign of t_end, applies the same resolution rule with the band
W + |E0| + u, and returns an AmplitudeTrajectory whose sd is the
FiniteChain. It also fills the trajectory's br (the N reservoir amplitudes
at the last sample, which lineshape_exact turns into the escaped particle's
spectrum) and norm_drift (largest |<psi|psi> - 1| seen). A cfg that also
has a t_start goes through solve, which runs each side and joins them.

Static Hamiltonians are propagated through the exact eigendecomposition of
the real symmetric matrix, then b0 = sum_j |c_j|^2 e^{-i lam_j t} on every
sample at once by the blocked phase sums of model._phase_sums (no error
accumulation). Driven Hamiltonians take a Strang step of diagonal phases,
the star-coupling rotation of (b0, vhat.br) and the phases again. The bright
direction vhat is fixed and the reservoir phases are diagonal, so the
rotation's update delta_k of the bright component reaches later steps only
through vhat.br_k = sum_{m<k} K_{k-m} delta_m, K_j = sum_r vhat_r^2
e^{-i E_r j h}: b0 is a scalar recurrence with a memory, run by the Volterra
solver's recurrence helper. The memory is a sum over the N reservoir modes
(the chain mapping of Chin, Rivas, Huelga & Plenio, J. Math. Phys.
51:092109, 2010), so the helper carries their amplitudes M_r(k) = sum_{m<k}
delta_m e^{-i E_r (k - m) h} across its blocks, O(N) state in place of a
table of n lags. The same amplitudes are the reservoir: br_k = vhat
e^{i E_r h/2} M(k), so the norm at every block end and the final br need no
second pass over the run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import FiniteChain, ModelError, SystemParams, _phase_sums
from .solvers import (
    AmplitudeTrajectory,
    SolverConfig,
    SolverError,
    _check_resolution,
    _grid,
    _memory_recurrence,
)
from .spectra import EnergySpectrum

NORM_DRIFT_LIMIT = 1.0e-6  # per unit time; exceeding this aborts the run
_REVIVAL_DROP, _REVIVAL_RISE = 0.01, 0.05  # revival_time: P0 empties below, returns above


def _hamiltonian(params: SystemParams, chain: FiniteChain) -> np.ndarray:
    """Dense (N+1) x (N+1) real symmetric star Hamiltonian (w = 1)."""
    n = chain.n_levels
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = params.e0
    idx = np.arange(1, n + 1)
    h[idx, idx] = chain.level_energies()
    om = chain.couplings()
    h[0, 1:] = om
    h[1:, 0] = om
    return h


def evolve_chain(
    params: SystemParams, chain: FiniteChain, cfg: SolverConfig
) -> AmplitudeTrajectory:
    """Evolve from b0 = 1, br = 0 at t = 0 out to cfg.t_end (either sign).

    The drive is the one params describes; the run is static when it has none.
    The trajectory's br holds the reservoir amplitudes at cfg.t_end.
    """
    _check_resolution(cfg, params, chain)
    times = _grid(cfg)
    if params.static:
        method = "eigendecomposition"
        b0, br, drift = _evolve_eig(params, chain, times)
    else:
        method = "strang-splitting"
        b0, br, drift = _evolve_strang(chain, params, times)

    span = max(abs(cfg.t_end), 1.0)
    if drift > NORM_DRIFT_LIMIT * span:
        raise SolverError(f"norm drifted by {drift:.3g} over |t| = {abs(cfg.t_end):.3g}")
    return AmplitudeTrajectory(times, b0, params, chain, cfg, method, br=br, norm_drift=drift)


def _evolve_eig(params: SystemParams, chain: FiniteChain, times: np.ndarray):
    lam, vec = np.linalg.eigh(_hamiltonian(params, chain))
    c0 = vec[0, :]  # overlap of the initial state with each eigenmode
    b0 = _phase_sums(c0 * c0, lam * (times[1] - times[0]), times.size - 1)  # t_k = k dt
    b0[0] = 1.0  # U(0) = I exactly
    # the full state on 8 nodes, the last among them, to spot-check unitarity
    nodes = np.linspace(0, times.size - 1, 8, dtype=int)
    states = (np.exp(-1j * np.outer(times[nodes], lam)) * c0) @ vec.T
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return b0, states[-1, 1:], drift


def _evolve_strang(chain: FiniteChain, params: SystemParams, times: np.ndarray):
    n = times.size - 1
    h = times[1] - times[0]  # signed step
    er = chain.level_energies()
    om = chain.couplings()
    vnorm = float(np.linalg.norm(om))
    vhat = om / vnorm

    # every drive value the steps need, evaluated once: nodes, midpoints, step ends
    mids = times[:-1] + 0.5 * h
    wmid = params.w_at(mids)
    low = np.flatnonzero(wmid <= 0.0)
    if low.size:
        i = low[0]
        raise SolverError(f"barrier profile w(t) reached {wmid[i]:.3g} at t = {mids[i]:.4g}")
    theta = vnorm * wmid * h
    e0_mid = params.e0_integral(mids)
    values = (
        np.exp(-1j * (e0_mid - params.e0_integral(times[:-1]))),
        np.cos(theta),
        np.sin(theta),
        np.exp(-1j * (params.e0_integral(times[:-1] + h) - e0_mid)),
    )
    del mids, wmid, e0_mid, theta  # only the step values stay through the run

    # Strang step k: the phase ph1, the star-coupling rotation of (b, vhat.br) by
    # (c, s), the phase ph2, with e^{-i E_r h/2} on br before and after. br then
    # gains delta_k e^{-i E_r h/2} vhat per step and turns by e^{-i E_r h}, so the
    # bright projection is proj_k = sum_{m<k} K_{k-m} delta_m
    def strang(x, proj, v):
        ph1, c, s, ph2 = v
        b = ph1 * x[0]
        return (ph2 * (c * b - 1j * s * proj),), -1j * s * b + (c - 1.0) * proj

    # the kernel as its N modes; M(k) at each block end k gives the norm there and br
    theta_r = er * h
    y, _, (ends, amps) = _memory_recurrence(strang, values, (1.0,), (vhat * vhat, theta_r))
    b0 = np.empty(n + 1, dtype=complex)
    b0[0] = 1.0
    b0[1:] = y
    drift = float(np.max(np.abs(np.abs(b0[ends]) ** 2 + np.abs(amps) ** 2 @ vhat**2 - 1.0)))
    br = vhat * np.exp(0.5j * theta_r) * amps[-1]
    return b0, br, drift


def revival_time(traj: AmplitudeTrajectory) -> Optional[float]:
    """First return of the survival probability after it has emptied out.

    Reads the trajectory from t = 0 to t_end and returns the first time past
    the initial crossing below _REVIVAL_DROP at which P0 exceeds
    _REVIVAL_RISE, or None if it never does. Raises if the series never
    falls below _REVIVAL_DROP (too short to judge).
    """
    i0 = traj.index_of(0.0)
    times, p0 = traj.times[i0:], traj.p0[i0:]
    below = np.nonzero(p0 < _REVIVAL_DROP)[0]
    if below.size == 0:
        raise SolverError(
            f"series too short: P0 never fell below {_REVIVAL_DROP} "
            f"(min {float(p0.min()):.3g})"
        )
    start = below[0]
    above = np.nonzero(p0[start:] > _REVIVAL_RISE)[0]
    if above.size == 0:
        return None
    return float(times[start + above[0]])


def lineshape_exact(traj: AmplitudeTrajectory) -> EnergySpectrum:
    """Reservoir energy distribution P_r rho(E_r) over the chain levels at the run's end.

    Comparable to the continuum line shape before the revival; energies are
    returned ascending. The couplings vanish at the band edges, so the
    diverging level density there multiplies a vanishing occupation.
    """
    if traj.br is None:
        raise ModelError(f"{traj.method} carries no reservoir amplitudes; run a FiniteChain")
    er = traj.sd.level_energies()
    values = np.abs(traj.br) ** 2 * traj.sd.level_density()
    order = np.argsort(er)
    return EnergySpectrum.build(er[order], values[order], time=float(traj.times[-1]))
