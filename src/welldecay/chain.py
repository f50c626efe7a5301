"""Exact unitary evolution of the well coupled to a finite discrete reservoir.

The (N+1)-level Hamiltonian couples the well amplitude b0 to N reservoir
levels E_r = W cos(r pi/(N+1)) through the star couplings
model.FiniteChain.couplings(Gamma), with Gamma from SystemParams: the chain
holds only N and W. This module is the trust anchor: no continuum
approximation enters, so it exhibits the finite-size revival, in which the
survival probability returns after the excitation crosses the reservoir
and comes back (arrival of the leading edge at t ~ 2(N+1)/W).

The chain is a reservoir like the continuum ones: solvers.solve routes a
FiniteChain to evolve_chain, which takes the same SystemParams (level width
and drive profiles) and SolverConfig, builds the same signed grid, applies
the same resolution rule with the band W + |E0| + u, and returns an
AmplitudeTrajectory whose sd is the FiniteChain. It also fills the
trajectory's br (the N reservoir amplitudes at the last sample, which
lineshape_exact turns into the escaped particle's spectrum) and norm_drift
(largest |<psi|psi> - 1| seen).

Static Hamiltonians are propagated through the exact eigendecomposition of
the real symmetric matrix, then b0 = sum_j |c_j|^2 e^{-i lam_j t} on every
sample at once by the blocked phase sums of model._phase_sums (no error
accumulation). Driven Hamiltonians take a Strang step of diagonal phases,
the star-coupling rotation of (b0, vhat.br) and the phases again. The bright
direction vhat is fixed and the reservoir phases are diagonal, so the
rotation's update delta_k of the bright component reaches later steps only
through vhat.br_k = sum_{m<k} K_{k-m} delta_m, K_j = sum_r vhat_r^2
e^{-i E_r j h}: b0 is a scalar recurrence with a Toeplitz memory, run by the
Volterra solver's sub-block helper. K_j is a phase sum too; the norm at
every _PHASE_BLOCK-th step and the last, and the final reservoir amplitudes,
follow from prefix sums of delta_m e^{i E_r m h} over the same phase tables.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import _PHASE_BLOCK, FiniteChain, ModelError, SystemParams, _phase_sums
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
    om = chain.couplings(params.gamma)
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
    b0 = _phase_sums(c0 * c0, lam * (times[1] - times[0]), times.size - 1)[0]  # t_k = k dt
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
    om = chain.couplings(params.gamma)
    vnorm = float(np.linalg.norm(om))
    vhat = om / vnorm

    # every drive value the steps need, evaluated once: nodes, midpoints, step ends
    mids = times[:-1] + 0.5 * h
    wmid = params.w_at(mids)
    low = np.flatnonzero(wmid <= 0.0)
    if low.size:
        i = low[0]
        raise SolverError(f"barrier profile w(t) reached {wmid[i]:.3g} at t = {mids[i]:.4g}")
    e0_mid = params.e0_integral(mids)
    phase1 = np.exp(-1j * (e0_mid - params.e0_integral(times[:-1])))
    phase2 = np.exp(-1j * (params.e0_integral(times[:-1] + h) - e0_mid))
    theta = vnorm * wmid * h

    # Strang step k: the phase ph1, the star-coupling rotation of (b, vhat.br) by
    # (c, s), the phase ph2, with e^{-i E_r h/2} on br before and after. br then
    # gains delta_k e^{-i E_r h/2} vhat per step and turns by e^{-i E_r h}, so the
    # bright projection is proj_k = sum_{m<k} K_{k-m} delta_m
    def strang(x, proj, v):
        ph1, c, s, ph2 = v
        b = ph1 * x[0]
        return (ph2 * (c * b - 1j * s * proj),), -1j * s * b + (c - 1.0) * proj

    # K_j = sum_r vhat_r^2 e^{-i E_r j h}; the reservoir sums below reuse its tables,
    # e^{-i E_r (q P + t) h} = shift[q, r] turn[t, r]
    P = _PHASE_BLOCK
    theta_r = er * h
    kern, turn, shift = _phase_sums(vhat * vhat, theta_r, n)
    b0 = np.empty(n + 1, dtype=complex)
    b0[0] = 1.0
    b0[1:], delta = _memory_recurrence(
        strang, (phase1, np.cos(theta), np.sin(theta), phase2), (1.0,), kern
    )

    # br_k = vhat e^{i E_r h/2} sum_{m<k} delta_m e^{-i E_r (k-m) h}; the norm at every
    # block end and at the last node from the block sums of delta_m e^{i E_r m h}
    nd = -(-n // P)
    blocks = np.pad(delta, (0, nd * P - n)).reshape(nd, P)
    sums = np.cumsum((blocks @ turn.conj()) * shift[:nd].conj(), axis=0)
    ends = np.minimum(P * np.arange(1, nd + 1), n)
    drift = float(np.max(np.abs(np.abs(b0[ends]) ** 2 + np.abs(sums) ** 2 @ vhat**2 - 1.0)))
    br = vhat * np.exp(-1j * (n - 0.5) * theta_r) * sums[-1]
    return b0, br, drift


def revival_time(traj: AmplitudeTrajectory) -> Optional[float]:
    """First return of the survival probability after it has emptied out.

    Returns the first time past the initial crossing below _REVIVAL_DROP at
    which P0 exceeds _REVIVAL_RISE, or None if it never does. Raises if the
    series never falls below _REVIVAL_DROP (too short to judge).
    """
    p0 = traj.p0
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
    return float(traj.times[start + above[0]])


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
