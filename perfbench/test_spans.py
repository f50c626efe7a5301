"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import json
from pathlib import Path

from spans import JOB, Tracer, layer_shares, self_times
from workloads import END_TO_END, PER_LAYER


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds mid [1, 7] and a leaf [8, 9]; mid holds a leaf [2, 4]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("bessel.leaf", lambda: None)
    mid = tracer.wrap("solvers.mid", leaf)
    outer = tracer.wrap("cli.outer", lambda: (mid(), leaf()))
    outer()

    names = [s.name for s in tracer.spans]
    assert names == ["cli.outer", "solvers.mid", "bessel.leaf", "bessel.leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert self_times(tracer.spans) == [3.0, 4.0, 2.0, 1.0]


def test_layer_shares_divide_self_time_by_job_wall():
    # job [0, 10] holds cli.main [1, 9], which holds spectra.work [2, 7]
    ticks = iter([0.0, 1.0, 2.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.wrap("cli.main", tracer.wrap("spectra.work", lambda: None))
    tracer.run_job("demo", outer)

    assert tracer.spans[0].name == JOB and tracer.spans[0].job == "demo"
    shares = layer_shares(tracer)
    assert shares["spectra"] == 0.5 and shares["cli"] == 0.3


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
