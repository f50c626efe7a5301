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

Static Hamiltonians are propagated through their eigenmodes, found without
forming the (N+1)-square star matrix: it is an arrowhead, whose eigenvalues
are the roots of the secular equation f(lam) = lam - E0 - sum_r
g_r^2/(lam - E_r), one in each gap between neighbouring levels and one
beyond each end (Golub, SIAM Rev. 15:318, 1973). A level whose coupling
vanishes deflates: it is an eigenstate of its own, with no overlap with the
well. Each root is measured from its nearer level and found by safeguarded
rational steps (Li, LAPACK Working Note 89, 1993, the method of LAPACK's
dlaed4); the couplings are then recomputed from the roots, so that the
eigenvectors v_j[r] = c0_j g_r/(lam_j - E_r), c0_j^2 = 1/f'(lam_j), are
orthogonal to working precision (Gu & Eisenstat, SIAM J. Matrix Anal.
Appl. 16:172, 1995). Every root x level array is formed a chunk of roots at
a time. Then b0 = sum_j c0_j^2 e^{-i lam_j t} on every sample at once by the
blocked phase sums of _phase_sums (no error accumulation), and the full
state on 8 samples checks unitarity.

Driven Hamiltonians take a Strang step of diagonal phases, the
star-coupling rotation of (b0, vhat.br) and the phases again. The bright
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
second pass over the run. A chain with no coupling has no bright direction:
its kernel is zero and b0 evolves freely.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import FiniteChain, ModelError, SystemParams
from .solvers import (
    _TABLE,
    AmplitudeTrajectory,
    SolverConfig,
    SolverError,
    _check_resolution,
    _grid,
    _memory_recurrence,
    _within_table,
)
from .spectra import EnergySpectrum

NORM_DRIFT_LIMIT = 1.0e-6  # per unit time; exceeding this aborts the run
_REVIVAL_DROP, _REVIVAL_RISE = 0.01, 0.05  # revival_time: P0 empties below, returns above
_SECULAR_CHUNK = 1 << 15  # root x level elements per temporary of the static modes
_SECULAR_PASSES = 64  # safeguarded steps per root at most; 3 to 7 reach the root
_PHASE_BLOCK = 256  # lags per block of _phase_sums at most, one matrix product each
_EPS = float(np.finfo(float).eps)


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
    nodes = times[np.linspace(0, times.size - 1, 8, dtype=int)]  # the last among them
    lam, c0sq, b_nodes, states = _star_modes(
        params.e0, chain.level_energies(), chain.couplings(), nodes
    )
    b0 = _phase_sums(c0sq, lam * (times[1] - times[0]), times.size - 1)  # t_k = k dt
    b0[0] = 1.0  # U(0) = I exactly
    norms = np.abs(b_nodes) ** 2 + np.sum(np.abs(states) ** 2, axis=1)
    return b0, states[-1], float(np.max(np.abs(norms - 1.0)))


def _phase_sums(weights: np.ndarray, theta: np.ndarray, n: int) -> np.ndarray:
    """s_j = sum_r weights_r e^{-i theta_r j}, j = 0 .. n.

    With P lags per block, e^{-i theta_r (q P + t)} = shift[q, r] turn[t, r],
    so each block is one matrix product of the two tables. P is _PHASE_BLOCK,
    halved while the P x R table of R modes exceeds _TABLE entries, and the
    shift rows are formed a chunk of at most _TABLE entries at a time.
    """
    P = _within_table(_PHASE_BLOCK, theta.size, 1)
    turn = np.exp(-1j * np.outer(np.arange(P), theta))
    starts = P * np.arange(n // P + 1)
    out = np.empty((starts.size, P), dtype=complex)
    step = max(1, _TABLE // theta.size)
    for lo in range(0, starts.size, step):
        shift = np.exp(-1j * np.outer(starts[lo : lo + step], theta))
        shift *= weights
        np.matmul(shift, turn.T, out=out[lo : lo + step])
    return out.ravel()[: n + 1]


def _star_modes(e0: float, er: np.ndarray, g: np.ndarray, nodes: np.ndarray):
    """The eigenmodes of the star Hamiltonian that overlap the well, and its state.

    Returns their energies lam (ascending) and overlaps c0^2, and the state
    evolved from the well to each time of nodes: b0 there and the reservoir
    amplitudes, one row per time. A level coupled below the rounding of the
    matrix deflates (an eigenstate with c0 = 0, absent from lam), and levels
    closer than that act as one pole with their summed weight g^2.
    """
    if not (np.all(np.isfinite(er)) and np.all(np.isfinite(g))):
        raise ModelError("chain levels and couplings must be finite")
    tol = 8.0 * _EPS * max(abs(e0), float(np.max(np.abs(er))), float(np.linalg.norm(g)))
    live = np.flatnonzero(np.abs(g) > tol)
    live = live[np.argsort(er[live], kind="stable")]
    first = np.diff(er[live], prepend=-np.inf) > tol
    pole = np.cumsum(first) - 1  # the pole of each live level
    d = er[live][first]
    z2 = np.bincount(pole, weights=g[live] ** 2, minlength=d.size)
    origin, tau = _secular_roots(e0, d, z2)
    z2_roots = _recomputed_weights(d, origin, tau)

    # c0_j^2 = 1/f'(lam_j) and the sums of c0_j^2 e^{-i lam_j t} and of it over lam_j - d_k
    c0sq = np.empty(d.size + 1)
    b_nodes = np.zeros(nodes.size, dtype=complex)
    p_nodes = np.zeros((nodes.size, d.size), dtype=complex)
    for rows in _root_chunks(d.size + 1, d.size):
        u = np.reciprocal((origin[rows, None] - d) + tau[rows, None])
        c0sq[rows] = 1.0 / (1.0 + (u * u) @ z2_roots)
        phases = np.exp(-1j * np.outer(nodes, origin[rows] + tau[rows])) * c0sq[rows]
        b_nodes += phases.sum(axis=1)
        p_nodes += phases.real @ u + 1j * (phases.imag @ u)
    states = np.zeros((nodes.size, er.size), dtype=complex)
    states[:, live] = p_nodes[:, pole] * (g[live] * np.sqrt(z2_roots / z2)[pole])
    return origin + tau, c0sq, b_nodes, states


def _root_chunks(rows: int, cols: int) -> list:
    """Slices of rows with at most _SECULAR_CHUNK elements per chunk of a rows x cols array."""
    step = max(1, _SECULAR_CHUNK // max(cols, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _secular_roots(e0: float, d: np.ndarray, z2: np.ndarray):
    """Roots lam_j = origin_j + tau_j of f(lam) = lam - e0 - sum_k z2_k/(lam - d_k).

    d ascends strictly and z2 > 0. Root j lies between d_{j-1} and d_j; the
    first and last lie within 2 |z| beyond the ends, where a bound state sits.
    Each is measured from the nearer of its two levels (the outer ones from
    their one level), which the sign of f at the midpoint tells, so that
    lam_j - d_k = (origin_j - d_k) + tau_j keeps its relative accuracy. A step
    solves the model c - z2_o/(tau' - 0) - q/(tau' - far) that matches f and
    f' at tau: the origin's own term, and the rest of f' as a pole at the
    other end (Li's fixed-weight method). A step that leaves the bracket
    that f's signs have narrowed bisects instead. A root is done once |f| is
    within the rounding of its terms.
    """
    k = d.size
    if k == 0:
        return np.array([e0]), np.zeros(1)
    # every root lies within |z| of the levels and e0; twice that keeps the two outer
    # roots off the far ends of their brackets
    reach = 2.0 * float(np.sqrt(z2.sum()))
    lower = np.concatenate([[min(e0, d[0]) - reach], d])
    upper = np.concatenate([d, [max(e0, d[-1]) + reach]])
    origin, tau = np.empty(k + 1), np.empty(k + 1)
    for rows in _root_chunks(k + 1, k):
        j = np.arange(k + 1)[rows]
        a, b = lower[rows], upper[rows]
        mid = 0.5 * (a + b)
        f, scale, slope = _secular_at(mid - e0, np.abs(mid - e0), mid[:, None] - d, z2)
        above = f >= 0.0  # the root lies in [a, mid]
        left = np.where(j == 0, False, (j == k) | above)  # measured from a, else from b
        o = np.where(left, a, b)
        zo = z2[np.where(left, j - 1, j)]
        far = np.where(left, b, a) - o
        lo = np.where(above, a, mid) - o
        hi = np.where(above, mid, b) - o
        t = mid - o
        gaps = o[:, None] - d
        done = np.zeros(t.size, dtype=bool)
        for _ in range(_SECULAR_PASSES):
            done |= np.abs(f) <= 8.0 * _EPS * scale
            if done.all():
                break
            hi = np.where(f > 0.0, np.minimum(hi, t), hi)
            lo = np.where(f < 0.0, np.maximum(lo, t), lo)
            to_far = far - t
            q = np.maximum(to_far * to_far * (slope - zo / (t * t)), 0.0)
            c = f + zo / t - q / to_far
            lin = c * (to_far - t) + zo + q
            con = -t * to_far * f
            root = np.sqrt(np.abs(lin * lin - 4.0 * c * con))
            with np.errstate(divide="ignore", invalid="ignore"):  # c = 0 takes the first form
                step = np.where(lin > 0.0, 2.0 * con / (lin + root), (lin - root) / (2.0 * c))
            t_new = t + step
            t_new = np.where((t_new > lo) & (t_new < hi), t_new, 0.5 * (lo + hi))
            t = np.where(done, t, t_new)
            f, scale, slope = _secular_at(o - e0 + t, abs(o - e0) + abs(t), gaps + t[:, None], z2)
        origin[rows], tau[rows] = o, t
    return origin, tau


def _secular_at(lin, size, delta, z2):
    """f = lin - sum_k z2_k/delta_k, the sum of its terms' magnitudes and f'.

    Overwrites delta, one row per root.
    """
    u = np.reciprocal(delta, out=delta)
    f = lin - u @ z2
    scale = size + np.abs(u) @ z2
    np.multiply(u, u, out=u)
    return f, scale, 1.0 + u @ z2


def _recomputed_weights(d: np.ndarray, origin: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The weights z2 whose arrowhead has exactly the roots lam = origin + tau.

    z2_k = -prod_j (lam_j - d_k) / prod_{m != k} (d_m - d_k), taken as a
    product of ratios (lam_m - d_k)/(d_m - d_k), each pairing a root with the
    level above it, rather than of N + 1 factors over N that would overflow
    (Gu & Eisenstat 1995). The chunks of roots run in order, so the running
    product of each k grows over the roots below d_k and shrinks over those
    above, never past (d_k - lam_0)/(d_k - d_{k-1}).
    """
    k = d.size
    z2 = -((origin[k] - d) + tau[k])
    for rows in _root_chunks(k, k):
        spans = d[rows, None] - d
        spans[np.arange(spans.shape[0]), np.arange(k)[rows]] = 1.0  # lam_k - d_k stays whole
        ratios = (origin[rows, None] - d) + tau[rows, None]
        ratios /= spans
        z2 *= np.prod(ratios, axis=0)
    return z2


def _evolve_strang(chain: FiniteChain, params: SystemParams, times: np.ndarray):
    h = times[1] - times[0]  # signed step
    er = chain.level_energies()
    om = chain.couplings()
    vnorm = float(np.linalg.norm(om))
    vhat = om / vnorm if vnorm > 0.0 else om  # no coupling: a zero kernel, free evolution

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
    b0, (ends, amps) = _memory_recurrence(strang, values, (1.0,), (vhat * vhat, theta_r))
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
