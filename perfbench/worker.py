"""One pass of a workload in a fresh process.

Imports welldecay from ./src (the source tree of the checkout it runs in),
prints "ready", runs the workload's jobs in sequence through
welldecay.cli.main, checks the outputs and prints one JSON result line.

    python3 perfbench/worker.py --workload W --seed N --out DIR --mode plain|spans|alloc
    python3 perfbench/worker.py --mode setup      # import only, for setup_s
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import ALL_JOBS, DEFAULT_SEED, WORKLOADS, job_argvs


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import welldecay
    import welldecay.cli

    where = Path(welldecay.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"welldecay imported from {where}, not from {src}")
    return welldecay.cli


def _call(cli, argv: list[str]) -> int:
    # looked up at call time, so a traced pass runs the wrapped main
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing job is a failed job; the pass goes on
        traceback.print_exc()
        return -1


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(cli, workload: str, seed: int, out: Path, mode: str, spans_file) -> dict:
    # imported only after "ready", so that setup_s times welldecay's imports alone
    import checks
    import spans

    tracer = spans.Tracer()
    if mode == "spans":
        spans.install_spans(tracer)
    elif mode == "alloc":
        spans.install_peaks(tracer)

    outcomes = []
    for job, argv in job_argvs(workload, seed):
        out_dir = None
        if job.command != "selftest":
            out_dir = out / job.name
            argv = argv + ["--out", str(out_dir)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if mode == "spans":
                rc = tracer.run_job(job.name, _call, cli, argv)
            else:
                rc = _call(cli, argv)
        seconds = time.perf_counter() - t0
        outcomes.append(checks.Outcome(job, rc, seconds, buf.getvalue(), out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = checks.check_pass(
        outcomes, checks.load_reference(workload), compare_free=seed == DEFAULT_SEED
    )
    result = {
        "wall_s": sum(o.seconds for o in outcomes),
        "jobs": {o.job.name: o.seconds for o in outcomes},
        "peak_rss_mb": peak_rss_mb,
        "failures": check.failures,
        "digest": check.digest,
        "acc": check.acc,
        "csv_rows": check.csv_rows,
        "csv_bytes": check.csv_bytes,
    }
    if mode == "spans":
        sideband_count = getattr(sys.modules["welldecay.spectra"], "sideband_count", None)
        result["layers"] = spans.layer_metrics(tracer, ALL_JOBS, sideband_count)
        result["shares"] = spans.layer_shares(tracer)
        if spans_file:
            tracer.dump(spans_file)
    if mode == "alloc":
        result["peaks_mb"] = tracer.peaks_mb
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--mode", choices=["setup", "plain", "spans", "alloc"], default="plain")
    ap.add_argument("--spans-file", type=Path)
    args = ap.parse_args(argv)

    cli = _import_cli(Path.cwd() / "src")
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.workload is None or args.out is None:
        ap.error("--workload and --out are required for a pass")
    result = run_pass(cli, args.workload, args.seed, args.out, args.mode, args.spans_file)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
