"""Write the reference samples that the correctness gate compares against.

    python3 perfbench/make_reference.py      # from the repository root

Runs every workload's jobs once at the default seed and keeps, for each CSV,
its header, row count, column peaks and evenly spaced sample rows. Regenerate
only from a commit whose outputs are trusted: later commits are held to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from checks import REFERENCE_DIR, sample_csv
from run import git_commit
from worker import _call, _import_cli
from workloads import DEFAULT_SEED, WORKLOADS, job_argvs


def main() -> int:
    root = Path.cwd()
    cli = _import_cli(root / "src")
    scratch = root / ".bench_work" / "reference"
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        jobs = {}
        for job, argv in job_argvs(workload, DEFAULT_SEED):
            if job.command == "selftest":
                continue
            out = scratch / job.name
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = _call(cli, argv + ["--out", str(out)])
            if rc != 0:
                print(f"{workload}/{job.name} exited with {rc}", file=sys.stderr)
                return 1
            record = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            jobs[job.name] = {name: sample_csv((out / name).read_bytes())
                              for name in record["outputs"]}
            print(f"{workload}/{job.name}: {' '.join(argv)}")
        text = json.dumps({"commit": git_commit(root), "seed": DEFAULT_SEED, "jobs": jobs})
        (REFERENCE_DIR / f"{workload}.json").write_text(text + "\n", encoding="utf-8")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
