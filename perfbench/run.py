"""welldecay benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, untraced and traced

Run it from the repository root; it benchmarks the sources under ./src.
Each pass of the job list runs in a fresh worker process, one at a time.
With --trace 0 it reports the end-to-end metrics (median over the passes);
with --trace 1 the per-layer metrics from traced passes. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    BLAS_THREADS,
    DEFAULT_SEED,
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_LAUNCHES = 9  # timed fresh-interpreter launches, after one warm-up launch
MIN_PASSES = 3  # untraced passes, so that wall_s is a true median
RUN_BUDGET_S = 150.0  # no new pass starts that would end past this


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # the worker puts ./src first itself
    return env


def launch(root: Path, args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Start a worker; return the seconds until it was ready and its result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=root,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker {' '.join(args)} timed out after {timeout:.0f} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"worker {' '.join(args)} failed ({proc.returncode}):\n{err}")
    return ready_s, (json.loads(out.splitlines()[-1]) if out.strip() else None)


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Run:
    """One benchmark run of one workload: set-up launches, then passes."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = root / ".bench_work"
        self.started = time.monotonic()
        self.passes: list[tuple[str, dict]] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def setup_s(self, launches: int) -> float | None:
        launch(self.root, ["--mode", "setup"], self.remaining())  # fills bytecode caches
        samples = [
            launch(self.root, ["--mode", "setup"], self.remaining())[0] for _ in range(launches)
        ]
        return statistics.median(samples) if samples else None

    def one_pass(self, mode: str) -> dict:
        out = self.work / f"{self.workload}-pass{len(self.passes)}"
        shutil.rmtree(out, ignore_errors=True)
        args = ["--workload", self.workload, "--seed", str(self.seed), "--out", str(out),
                "--mode", mode]
        if mode == "spans":
            args += ["--spans-file", str(self.work / f"spans-{self.workload}.jsonl")]
        try:
            _, result = launch(self.root, args, self.remaining())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.passes.append((mode, result))
        failed = "; ".join(f"{k}: {', '.join(v)}" for k, v in result["failures"].items())
        print(f"pass {len(self.passes)} [{mode}] wall {result['wall_s']:.3f} s, "
              f"rss {result['peak_rss_mb']:.1f} MB, digest {result['digest'][:16]}"
              + (f", FAILED {failed}" if failed else ""), flush=True)
        return result

    def more(self, count: int, minimum: int, last: float) -> bool:
        """Start another pass: below the minimum count, or if it ends within --seconds."""
        elapsed = time.monotonic() - self.started
        if count and last > self.remaining():
            return False
        return count < minimum or elapsed + last <= self.seconds

    def execute(self) -> dict:
        self.work.mkdir(exist_ok=True)
        setup = self.setup_s(0 if self.trace else SETUP_LAUNCHES)
        self.started = time.monotonic()  # the measured period starts after set-up
        count, last = 0, 0.0
        modes = ("plain", "spans") if self.trace else ("plain",)
        while self.more(count, 1 if self.trace else MIN_PASSES, last):
            t0 = time.monotonic()
            for mode in modes:
                self.one_pass(mode)
            count, last = count + 1, time.monotonic() - t0
        if self.trace:
            self.one_pass("alloc")
        return self.summarize(setup)

    def of(self, mode: str) -> list[dict]:
        return [r for m, r in self.passes if m == mode]

    def summarize(self, setup: float) -> dict:
        results = [r for _, r in self.passes]
        attempted = sum(len(r["jobs"]) for r in results)
        failed = sum(len(r["failures"]) for r in results)
        problems = []
        if len({r["digest"] for r in results}) != 1:
            problems.append("outputs differ between passes")
        if self.trace:
            plain, traced = self.of("plain"), self.of("spans")
            metrics = {k: v if k in EXACT_COUNTS else statistics.median(r["layers"][k] for r in traced)
                       for k, v in traced[0]["layers"].items()}
            if len({tuple(r["layers"][k] for k in EXACT_COUNTS if k in r["layers"])
                    for r in traced}) != 1:
                problems.append("computed counts differ between traced passes")
            peaks = self.of("alloc")[0]["peaks_mb"]
            metrics.update({
                "spectra.trajectory_peak_alloc_mb": peaks.get("spectra", 0.0),
                "chain.peak_alloc_mb": peaks.get("chain", 0.0),
                "cli.csv_rows": traced[0]["csv_rows"],
                "cli.csv_bytes": traced[0]["csv_bytes"],
                "trace.overhead_s": statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain),
            })
            for key in results[0]["acc"]:
                metrics[key] = max(r["acc"][key] for r in results)
            units = PER_LAYER
            shares = {k: statistics.median(r["shares"][k] for r in traced)
                      for k in traced[0]["shares"]}
        else:
            metrics = {
                "setup_s": setup,
                "wall_s": statistics.median(r["wall_s"] for r in results),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
                "jobs_ok_frac": 1.0 - failed / attempted,
            }
            units = END_TO_END
            shares = None
        missing = set(units) - set(metrics)
        if missing:
            raise HarnessError(f"metrics not produced: {sorted(missing)}")
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "commit": git_commit(self.root),
            "env": {**results[0]["env"], "blas_threads": BLAS_THREADS},
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "digest": results[0]["digest"],
            "jobs": {name: statistics.median(r["jobs"][name] for r in self.of("plain"))
                     for name in results[0]["jobs"]},
            "failures": {k: v for r in results for k, v in r["failures"].items()},
            "shares": shares,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }


def report(summary: dict) -> None:
    env = summary["env"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  trace {summary['trace']}  "
          f"commit {summary['commit']}")
    print(f"python {env['python']}  numpy {env['numpy']}  {env['blas']}  "
          f"BLAS threads {summary['env']['blas_threads']}  nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"outputs sha256 {summary['digest']}")
    for name, seconds in summary["jobs"].items():
        why = summary["failures"].get(name)
        status = "FAILED " + "; ".join(why) if why else "ok"
        print(f"  job {name:32s} {seconds:9.3f} s  {status}")
    for problem in summary["problems"]:
        print(f"  check FAILED: {problem}")
    if summary["shares"]:
        print("  self time by layer: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in summary["shares"].items()))
    for name, m in summary["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def run_workload(root, workload, seed, seconds, trace) -> dict:
    summary = Run(root, workload, seed, seconds, trace).execute()
    report(summary)
    path = root / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "welldecay" / "cli.py").is_file():
        print(f"error: no welldecay sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            ok = True
            for workload in WORKLOADS:
                for trace in (False, True):
                    s = run_workload(root, workload, args.seed, args.seconds, trace)
                    ok = ok and s["failed"] == 0 and not s["problems"]
            print("all workloads:", "correct" if ok else "FAILED")
            return 0 if ok else 1
        s = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": s["failed"] == 0 and not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": s["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
