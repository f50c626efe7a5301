"""The benchmark's workloads and metric catalogue.

A workload is a fixed list of CLI jobs run in sequence. Free-form jobs take
their level position E0 from the seed; the presets and `selftest` are fixed.
E0 is drawn from [0, 1], where every free-form job keeps the same step count
(the fastest scale is the band, the drive or the chain step, never |E0|) and
its energy grid within 2 %. The chain `revival` job pins --dt for that reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 0
E0_RANGE = (0.0, 1.0)
BLAS_THREADS = 1  # set for every child process; steadier than 2 on the 2-vCPU baseline machine


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the manifest checks its output must pass."""

    name: str
    argv: str  # "{e0}" marks a free-form job
    oracle_gap: Optional[float] = None  # max allowed manifest max_oracle_gap
    conservation: Optional[float] = None  # max allowed |conservation - 1|
    norm_drift: Optional[float] = None  # max allowed chain norm_drift
    revival: bool = False  # the chain run must find a revival

    @property
    def free(self) -> bool:
        return "{e0}" in self.argv

    @property
    def command(self) -> str:
        return self.argv.split()[0]


NORM_DRIFT = 1.0e-9

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "spectra-trajectory": (
        Job("spectrum-barrier-traj",
            "spectrum --drive barrier --alpha 0.1 --omega 2 --method trajectory --t 2 --e0 {e0}",
            conservation=1.0e-3),
        Job("selftest", "selftest"),
    ),
    "continuum-solvers": (
        Job("survival-semicircle", "survival --model semicircle --w 6 --e0 {e0} --t-max 84"),
        Job("survival-lorentzian-volterra",
            "survival --model lorentzian --lambda 200 --method volterra --e0 {e0} --t-max 6 --oracle",
            oracle_gap=1.0e-4),
        Job("survival-lorentzian-level",
            "survival --model lorentzian --lambda 4 --e0 {e0} --drive level --u 3 --omega 2 "
            "--t-min -6 --t-max 6"),
        Job("survival-lorentzian-static",
            "survival --model lorentzian --lambda 4 --e0 {e0} --t-min -8 --t-max 8 --oracle",
            oracle_gap=1.0e-8),
        Job("survival-wideband-barrier",
            "survival --model wideband --e0 {e0} --drive barrier --alpha 0.5 --omega 2 "
            "--t-min -8 --t-max 8"),
        Job("fig3", "reproduce fig3"),
        Job("fig4", "reproduce fig4"),
    ),
    "chain-sidebands": (
        Job("revival", "revival --n 250 --w 6 --e0 {e0} --dt 0.0036",
            norm_drift=NORM_DRIFT, revival=True),
        Job("fig2", "reproduce fig2"),
        Job("survival-chain-level",
            "survival --model chain --n 250 --w 6 --e0 {e0} --drive level --u 1 --omega 1 "
            "--t-max 100 --dt 0.003",
            norm_drift=NORM_DRIFT, revival=True),
        Job("spectrum-level", "spectrum --drive level --u 20 --omega 0.1 --e0 {e0}"),
        Job("spectrum-barrier", "spectrum --drive barrier --alpha 0.5 --omega 0.05 --e0 {e0}"),
        Job("fig5", "reproduce fig5"),
    ),
}

ALL_JOBS = tuple(job.name for jobs in WORKLOADS.values() for job in jobs)


def job_argvs(workload: str, seed: int) -> list[tuple[Job, list[str]]]:
    """The workload's jobs with their argv; the seed draws E0 for each free-form job."""
    rng = random.Random(seed)
    out = []
    for job in WORKLOADS[workload]:
        argv = job.argv
        if job.free:
            argv = argv.format(e0=format(round(rng.uniform(*E0_RANGE), 4), "g"))
        out.append((job, argv.split()))
    return out


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "jobs_ok_frac": "1",
}

# Every *_s below is self time from the traced run; every count is computed
# from inputs, outputs or returned objects, never sampled.
PER_LAYER = {
    "spectra.trajectory_s": "s",
    "spectra.trajectory_pairs": "count",
    "spectra.pairs_per_s": "1/s",
    "spectra.trajectory_peak_alloc_mb": "MB",
    "spectra.grid_s": "s",
    "spectra.grid_points": "count",
    "solvers.volterra_s": "s",
    "solvers.volterra_steps": "count",
    "solvers.volterra_us_per_step": "us/step",
    "solvers.ode_s": "s",
    "solvers.ode_steps": "count",
    "solvers.ode_us_per_step": "us/step",
    "solvers.wideband_s": "s",
    "model.kernel_s": "s",
    "model.kernel_points": "count",
    "model.drive_calls": "count",
    "bessel.s": "s",
    "bessel.j_calls": "count",
    "bessel.i_calls": "count",
    "bessel.truncation_s": "s",
    "bessel.truncation_calls": "count",
    "chain.static_s": "s",
    "chain.driven_s": "s",
    "chain.samples": "count",
    "chain.driven_steps": "count",
    "chain.mode_matrix_mb": "MB",
    "chain.peak_alloc_mb": "MB",
    "closedform.sideband_s": "s",
    "closedform.sideband_terms": "count",
    "closedform.oracle_s": "s",
    "cli.csv_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "count",
    "cli.self_s": "s",
    **{f"cli.job.{name}_s": "s" for name in ALL_JOBS},
    "trace.overhead_s": "s",
    "trace.attributed_frac": "1",
    "acc.max_ref_dev": "1",
    "acc.oracle_gap": "1",
    "acc.conservation_err": "1",
    "acc.norm_drift": "1",
}

# Counts that must repeat exactly between passes and runs of one seed.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit == "count") + (
    "chain.mode_matrix_mb",
)
