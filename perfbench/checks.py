"""Correctness gate of one pass: exit codes, PASS lines, manifest norm checks,
revivals, committed reference samples, and a hash of every output."""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import Job

REF_TOL = 1.0e-10  # of the column peak (ROADMAP item 2's gate)
SAMPLE_ROWS = 97
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    """What one job returned: exit code, time, captured output, output directory."""

    job: Job
    rc: int
    seconds: float
    output: str
    out_dir: Optional[Path]


@dataclass
class PassCheck:
    failures: dict = field(default_factory=dict)  # job name -> reasons
    acc: dict = field(default_factory=lambda: {
        "acc.max_ref_dev": 0.0,
        "acc.oracle_gap": 0.0,
        "acc.conservation_err": 0.0,
        "acc.norm_drift": 0.0,
    })
    digest: str = ""
    csv_rows: int = 0
    csv_bytes: int = 0


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["jobs"]


def sample_csv(data: bytes) -> dict:
    """Reference sample of a CSV: header, row count, column peaks, evenly spaced rows."""
    text = data.decode("utf-8")
    header, _, body = text.partition("\n")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    index = sorted({int(i) for i in np.linspace(0, len(table) - 1, SAMPLE_ROWS).round()})
    return {
        "header": header.split(","),
        "rows": len(table),
        "peak": [float(v) for v in np.max(np.abs(table), axis=0)],
        "index": index,
        "values": [[float(v) for v in table[i]] for i in index],
    }


def ref_deviation(data: bytes, ref: dict) -> float:
    """Largest |value - reference| over the sampled rows, per column peak."""
    lines = data.split(b"\n")
    rows = lines[1:-1]
    if lines[0].decode("utf-8") != ",".join(ref["header"]) or len(rows) != ref["rows"]:
        return math.inf
    got = np.array([[float(x) for x in rows[i].split(b",")] for i in ref["index"]])
    want = np.array(ref["values"])
    peak = np.array(ref["peak"])
    peak[peak == 0.0] = 1.0
    return float(np.max(np.abs(got - want) / peak))


def _stable_manifest(path: Path, out_dir: Path) -> bytes:
    # the wall time and the scratch path are the only fields that vary by design
    record = json.loads(path.read_text(encoding="utf-8"))
    record.pop("wall_time_s", None)
    record["command"] = record["command"].replace(str(out_dir), "OUT")
    return json.dumps(record, sort_keys=True).encode("utf-8")


def _check_manifest(o: Outcome, record: dict, check: PassCheck) -> list[str]:
    job, why = o.job, []
    norms = record.get("norm_checks", {})
    if job.oracle_gap is not None:
        gap = norms.get("max_oracle_gap", math.inf)
        check.acc["acc.oracle_gap"] = max(check.acc["acc.oracle_gap"], gap)
        if not gap <= job.oracle_gap:
            why.append(f"max_oracle_gap {gap:.3g} > {job.oracle_gap:g}")
    if job.conservation is not None:
        err = abs(norms.get("conservation", math.inf) - 1.0)
        check.acc["acc.conservation_err"] = max(check.acc["acc.conservation_err"], err)
        if not err <= job.conservation:
            why.append(f"|conservation - 1| {err:.3g} > {job.conservation:g}")
    if job.norm_drift is not None:
        drift = norms.get("norm_drift", math.inf)
        check.acc["acc.norm_drift"] = max(check.acc["acc.norm_drift"], drift)
        if not drift <= job.norm_drift:
            why.append(f"norm_drift {drift:.3g} > {job.norm_drift:g}")
    if job.revival and record.get("parameters", {}).get("revival_time") is None:
        why.append("no revival found")
    failed = [k for k, ok in record.get("qualitative_checks", {}).items() if not ok]
    if failed:
        why.append("qualitative checks failed: " + ", ".join(failed))
    return why


def check_pass(outcomes: list[Outcome], reference: dict, compare_free: bool) -> PassCheck:
    """Gate every job of a pass; free-form CSVs are compared only at the reference seed."""
    check = PassCheck()
    digest = hashlib.sha256()
    for o in outcomes:
        why = []
        if o.rc != 0:
            why.append(f"exit code {o.rc}")
        lines = o.output.splitlines()
        if any(line.startswith("[FAIL]") for line in lines):
            why.append("FAIL line")
        if o.job.command in ("reproduce", "selftest") and not any(
            line.startswith("[PASS]") for line in lines
        ):
            why.append("no PASS line")
        if o.out_dir is not None and o.rc == 0:
            manifest = o.out_dir / "manifest.json"
            try:
                record = json.loads(manifest.read_text(encoding="utf-8"))
                files = {name: (o.out_dir / name).read_bytes() for name in record["outputs"]}
            except (OSError, ValueError, KeyError) as exc:
                why.append(f"unreadable output: {exc!r}")
                files = {}
            else:
                why += _check_manifest(o, record, check)
                digest.update(f"{o.job.name}/manifest.json\n".encode())
                digest.update(_stable_manifest(manifest, o.out_dir))
            for name, data in files.items():
                digest.update(f"{o.job.name}/{name}\n".encode())
                digest.update(data)
                check.csv_rows += data.count(b"\n") - 1
                check.csv_bytes += len(data)
                if o.job.free and not compare_free:
                    continue
                ref = reference.get(o.job.name, {}).get(name)
                if ref is None:
                    why.append(f"no reference sample for {name}")
                    continue
                dev = ref_deviation(data, ref)
                check.acc["acc.max_ref_dev"] = max(check.acc["acc.max_ref_dev"], dev)
                if not dev <= REF_TOL:
                    why.append(f"{name} deviates from the reference by {dev:.3g} of the peak")
        if why:
            tail = lines[-1] if lines else ""
            check.failures[o.job.name] = why + ([f"last output: {tail}"] if tail else [])
    check.digest = digest.hexdigest()
    return check
