"""Exact unitary evolution of the well coupled to a finite discrete reservoir.

The (N+1)-level Hamiltonian couples the well amplitude b0 to N reservoir
levels E_r = W cos(r pi/(N+1)) through the star couplings
model.FiniteChain.couplings(Gamma), with Gamma from SystemParams: the chain
holds only N and W. This module is the trust anchor: no continuum
approximation enters, so it exhibits the finite-size revival, in which the
survival probability returns after the excitation crosses the reservoir
and comes back (arrival of the leading edge at t ~ 2(N+1)/W).

The chain is a reservoir like the continuum ones: evolve_chain takes the
same SystemParams (level width and drive profiles) and SolverConfig,
builds the same signed grid, applies the same resolution rule with the
band W + |E0| + u, and returns an AmplitudeTrajectory whose sd is the
FiniteChain; solvers.solve routes a FiniteChain here without storing the
reservoir. It also fills the trajectory's br (reservoir amplitudes, one row
per sample, when stored) and norm_drift (largest |<psi|psi> - 1| seen).

Static Hamiltonians are propagated through the exact eigendecomposition of
the real symmetric matrix, then a NUFFT to ~1e-14 (b0 = sum_j |c_j|^2
e^{-i lam_j t} on every sample at once, no error accumulation). Driven
Hamiltonians use a Strang splitting of diagonal phases and the
star-coupling rotation, with every drive factor evaluated once as an array;
each factor is exactly unitary, so the norm is conserved to rounding
regardless of step count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import FiniteChain, ModelError, SystemParams
from .solvers import AmplitudeTrajectory, SolverConfig, SolverError, _check_resolution, _grid
from .spectra import EnergySpectrum, _uniform_sum_adjoint

NORM_DRIFT_LIMIT = 1.0e-6  # per unit time; exceeding this aborts the run
_CHUNK_ELEMENTS = 1 << 18  # entries of the (time, mode) block formed at once


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
    params: SystemParams,
    chain: FiniteChain,
    cfg: SolverConfig,
    store_reservoir: bool = True,
) -> AmplitudeTrajectory:
    """Evolve from b0 = 1, br = 0 at t = 0 out to cfg.t_end (either sign).

    The drive is the one params describes; the run is static when it has none.
    """
    _check_resolution(cfg, params, chain)
    times = _grid(cfg)
    if params.static:
        method = "eigendecomposition"
        b0, br, drift = _evolve_eig(params, chain, times, store_reservoir)
    else:
        method = "strang-splitting"
        b0, br, drift = _evolve_strang(chain, params, times, store_reservoir)

    span = max(abs(cfg.t_end), 1.0)
    if drift > NORM_DRIFT_LIMIT * span:
        raise SolverError(f"norm drifted by {drift:.3g} over |t| = {abs(cfg.t_end):.3g}")
    return AmplitudeTrajectory(times, b0, None, params, chain, cfg, method, br=br, norm_drift=drift)


def _evolve_eig(params: SystemParams, chain: FiniteChain, times: np.ndarray, store_reservoir: bool):
    lam, vec = np.linalg.eigh(_hamiltonian(params, chain))
    c0 = vec[0, :]  # overlap of the initial state with each eigenmode
    b0 = _uniform_sum_adjoint(c0 * c0, lam * (times[1] - times[0]), times.size)  # t_k = k dt
    b0[0] = 1.0  # U(0) = I exactly
    # the full state on every node when stored, else on 8 nodes to spot-check unitarity
    nodes = np.linspace(0, times.size - 1, times.size if store_reservoir else 8, dtype=int)
    br = np.empty((nodes.size, chain.n_levels), dtype=complex)
    drift = 0.0
    step = max(1, _CHUNK_ELEMENTS // lam.size)  # chunks bound the memory of the mode block
    for lo in range(0, nodes.size, step):
        state = (np.exp(-1j * np.outer(times[nodes[lo : lo + step]], lam)) * c0) @ vec.T
        br[lo : lo + step] = state[:, 1:]
        drift = max(drift, float(np.max(np.abs(np.sum(np.abs(state) ** 2, axis=1) - 1.0))))
    return b0, br if store_reservoir else None, drift


def _evolve_strang(
    chain: FiniteChain, params: SystemParams, times: np.ndarray, store_reservoir: bool
):
    n = times.size - 1
    h = times[1] - times[0]  # signed step
    er = chain.level_energies()
    om = chain.couplings(params.gamma)
    vnorm = float(np.linalg.norm(om))
    vhat = om / vnorm

    phase_r_half = np.exp(-1j * er * (h / 2.0))
    # every drive value the steps need, evaluated once: nodes, midpoints, step ends
    mids = times[:-1] + 0.5 * h
    wmid = params.w_at(mids)
    low = np.flatnonzero(wmid <= 0.0)
    if low.size:
        i = low[0]
        raise SolverError(f"barrier profile w(t) reached {wmid[i]:.3g} at t = {mids[i]:.4g}")
    e0_mid = params.e0_integral(mids)
    phase1 = np.exp(-1j * (e0_mid - params.e0_integral(times[:-1]))).tolist()
    phase2 = np.exp(-1j * (params.e0_integral(times[:-1] + h) - e0_mid)).tolist()
    cos_t, sin_t = (f(vnorm * wmid * h).tolist() for f in (np.cos, np.sin))

    b0 = np.empty(n + 1, dtype=complex)
    br_hist = np.empty((n + 1, chain.n_levels), dtype=complex) if store_reservoir else None
    b = 1.0 + 0.0j
    br = np.zeros(chain.n_levels, dtype=complex)
    b0[0] = b
    if store_reservoir:
        br_hist[0] = br
    drift = 0.0
    for k, (ph1, c, s, ph2) in enumerate(zip(phase1, cos_t, sin_t, phase2)):
        # first half: diagonal phases
        b *= ph1
        br = br * phase_r_half
        # full step of the star-coupling rotation at the midpoint barrier value
        proj = complex(vhat @ br)
        b_new = c * b - 1j * s * proj
        br = br + (-1j * s * b + (c - 1.0) * proj) * vhat
        b = b_new
        # second half: diagonal phases
        b *= ph2
        br = br * phase_r_half

        b0[k + 1] = b
        if store_reservoir:
            br_hist[k + 1] = br
        if (k + 1) % 256 == 0 or k == n - 1:
            norm = abs(b) ** 2 + float(np.sum(np.abs(br) ** 2))
            drift = max(drift, abs(norm - 1.0))
    return b0, br_hist, drift


def revival_time(
    traj: AmplitudeTrajectory, drop: float = 0.01, rise: float = 0.05
) -> Optional[float]:
    """First return of the survival probability after it has emptied out.

    Returns the first time past the initial crossing below `drop` at which
    P0 exceeds `rise`, or None if it never does. Raises if the series never
    reaches the `drop` threshold (too short to judge).
    """
    p0 = traj.p0
    below = np.nonzero(p0 < drop)[0]
    if below.size == 0:
        raise SolverError(
            f"series too short: P0 never fell below {drop} (min {float(p0.min()):.3g})"
        )
    start = below[0]
    above = np.nonzero(p0[start:] > rise)[0]
    if above.size == 0:
        return None
    return float(traj.times[start + above[0]])


def lineshape_exact(traj: AmplitudeTrajectory, t: Optional[float] = None) -> EnergySpectrum:
    """Reservoir energy distribution P_r(t) rho(E_r) over the chain levels.

    Comparable to the continuum line shape before the revival; energies are
    returned ascending. The couplings vanish at the band edges, so the
    diverging level density there multiplies a vanishing occupation.
    """
    if traj.br is None:
        raise ModelError("reservoir amplitudes were not stored for this run")
    if t is None:
        t = float(traj.times[-1])
    br = traj.br[traj.index_of(t)]
    er = traj.sd.level_energies()
    values = np.abs(br) ** 2 * traj.sd.level_density()
    order = np.argsort(er)
    return EnergySpectrum.build(er[order], values[order], time=t)
