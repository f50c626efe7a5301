"""Outside-in tracing of the welldecay modules.

The tracer records a span (name, start, end, parent, job id) for every call
into a public function of a package module. It replaces the function at
every import site, so a call from `welldecay.cli` into `solve_volterra`
is seen as well as one from `welldecay.spectra` into `truncation_order`.
Spans stay in memory and are written out at the end of a pass.

What it cannot see: work inside a function shows only as that function's
self time. The per-step loops of `solve_volterra`, `solve_lorentzian_ode` and
the Strang splitting in `evolve_chain`, and the energy chunks of
`spectrum_from_trajectory`, appear as one self time each. Private helpers
(`_fig2`, `_solve_one_side`, `_miller_j`, ...) count toward their public
caller.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Callable, Optional

import numpy as np

LAYERS = ("cli", "solvers", "model", "bessel", "chain", "closedform", "spectra")
EXTRA = {"cli": ("_write_csv",)}  # private functions measured on their own
DRIVE_FIELDS = ("e0_of_t", "e0_dot_of_t", "w_of_t", "w_dot_of_t", "e0_integral", "w2_integral")
JOB = "job"  # span name of one CLI job, recorded by the harness


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    info: Optional[dict] = None


class Tracer:
    """In-memory span recorder; `clock` is replaceable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.peaks_mb: dict[str, float] = {}
        self.job: Optional[str] = None
        self.paused = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        """fn, recording one span per call; info(arguments, result) attaches counts.

        `arguments` maps fn's parameter names to the call's values. A call
        whose arguments or result no longer fit `info` records no counts.
        """
        signature = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if info is not None:
                try:
                    span.info = info(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    pass
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """fn, counting its calls under `name` without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def peak(self, name: str, fn: Callable) -> Callable:
        """fn, keeping the largest tracemalloc peak of any call under `name`."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1.0e6
                tracemalloc.stop()
                self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak)

        return measured

    def run_job(self, job: str, fn: Callable, *args):
        self.job = job
        try:
            return self.wrap(JOB, fn)(*args)
        finally:
            self.job = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s), default=str) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


# ---------------------------------------------------------------------------
# installation


def _steps(a, traj):
    return {"steps": traj.times.size - 1}


def _kernel_points(a, result):
    return {"points": int(np.size(a["tau"]))}


def _pairs(a, spec):
    return {"pairs": int(np.size(a["energies"])) * a["traj"].times.size}


def _grid_points(a, grid):
    return {"points": int(np.size(grid))}


def _chain_info(a, traj):
    static = a["drive"] is None or a["drive"].static
    mode_bytes = traj.times.size * (a["model"].n_levels + 1) * 16 if static else 0
    return {"static": static, "samples": traj.times.size, "mode_bytes": mode_bytes}


def _sideband_info(a, values):
    return {"params": a["params"], "energies": int(np.size(a["e_r"]))}


INFO = {
    "solvers.solve_volterra": _steps,
    "solvers.solve_lorentzian_ode": _steps,
    "spectra.spectrum_from_trajectory": _pairs,
    "spectra.energy_grid": _grid_points,
    "chain.evolve_chain": _chain_info,
    "closedform.floquet_spectrum_level": _sideband_info,
    "closedform.floquet_spectrum_barrier": _sideband_info,
}
PEAKS = {"chain.evolve_chain": "chain", "spectra.spectrum_from_trajectory": "spectra"}


def _modules():
    pkg = importlib.import_module("welldecay")
    return pkg, {layer: importlib.import_module(f"welldecay.{layer}") for layer in LAYERS}


def _replace_everywhere(modules, old, new) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _public_functions(layer, mod):
    for name, fn in list(vars(mod).items()):
        if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
            continue
        if not name.startswith("_") or name in EXTRA.get(layer, ()):
            yield name, fn


def install_spans(tracer: Tracer) -> None:
    """Wrap every public function of every layer, at every import site."""
    pkg, mods = _modules()
    everywhere = [pkg, *mods.values()]
    for layer, mod in mods.items():
        for name, fn in _public_functions(layer, mod):
            full = f"{layer}.{name}"
            _replace_everywhere(everywhere, fn, tracer.wrap(full, fn, INFO.get(full)))
    # The model types are planned to change shape; a missing one reads as 0.
    model = mods["model"]
    for cls in (getattr(model, "Semicircle", None), getattr(model, "Lorentzian", None)):
        if hasattr(cls, "kernel"):
            cls.kernel = tracer.wrap("model.kernel", cls.kernel, _kernel_points)
    profile = getattr(model, "DriveProfile", None)
    if not hasattr(profile, "from_params"):
        return
    from_params = profile.from_params.__func__

    def counted_from_params(cls, params):
        prof = from_params(cls, params)
        fields = {f: getattr(prof, f) for f in DRIVE_FIELDS if getattr(prof, f, None) is not None}
        return dataclasses.replace(
            prof, **{f: tracer.count("model.drive_calls", fn) for f, fn in fields.items()}
        )

    profile.from_params = classmethod(counted_from_params)


def install_peaks(tracer: Tracer) -> None:
    """Measure tracemalloc peaks around the two large-array functions only.

    tracemalloc slows every allocation (the Strang loop eightfold), so this
    runs in a pass of its own whose timings are not used.
    """
    pkg, mods = _modules()
    everywhere = [pkg, *mods.values()]
    for full, key in PEAKS.items():
        layer, name = full.split(".")
        fn = getattr(mods[layer], name, None)
        if fn is not None:
            _replace_everywhere(everywhere, fn, tracer.peak(key, fn))


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, job_names, sideband_count: Optional[Callable]) -> dict:
    """Per-layer metrics of one traced pass (the alloc and acc ones excepted)."""
    selfs = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    info_sum: Counter = Counter()
    chain = {"static": 0.0, "driven": 0.0}
    mode_bytes = 0
    driven_steps = 0
    job_s = dict.fromkeys(job_names, 0.0)
    wall = 0.0
    sideband_calls = []
    for span, own in zip(tracer.spans, selfs):
        if span.name == JOB:
            job_s[span.job] += span.end - span.start
            wall += span.end - span.start
            continue
        self_s[span.name] += own
        calls[span.name] += 1
        info = span.info or {}
        for key in ("steps", "points", "pairs", "samples"):
            if key in info:
                info_sum[f"{span.name}:{key}"] += info[key]
        if span.name == "chain.evolve_chain" and info:
            chain["static" if info["static"] else "driven"] += own
            mode_bytes = max(mode_bytes, info["mode_bytes"])
            if not info["static"]:
                driven_steps += info["samples"] - 1
        if "params" in info:
            sideband_calls.append(info)

    tracer.paused = True  # sideband_count runs truncation_order; keep it out of the trace
    n_max = {}
    terms = 0
    for info in sideband_calls if sideband_count is not None else ():
        key = info["params"]
        if key not in n_max:
            n_max[key] = sideband_count(key)
        terms += (2 * n_max[key] + 1) * info["energies"]
    tracer.paused = False

    def s(*names):
        return sum(self_s[n] for n in names)

    cli_all = sum(v for k, v in self_s.items() if k.startswith("cli."))
    out = {
        "spectra.trajectory_s": s("spectra.spectrum_from_trajectory"),
        "spectra.trajectory_pairs": info_sum["spectra.spectrum_from_trajectory:pairs"],
        "spectra.grid_s": s("spectra.energy_grid"),
        "spectra.grid_points": info_sum["spectra.energy_grid:points"],
        "solvers.volterra_s": s("solvers.solve_volterra"),
        "solvers.volterra_steps": info_sum["solvers.solve_volterra:steps"],
        "solvers.ode_s": s("solvers.solve_lorentzian_ode"),
        "solvers.ode_steps": info_sum["solvers.solve_lorentzian_ode:steps"],
        "solvers.wideband_s": s("solvers.solve_wideband"),
        "model.kernel_s": s("model.kernel"),
        "model.kernel_points": info_sum["model.kernel:points"],
        "model.drive_calls": tracer.counts["model.drive_calls"],
        "bessel.s": s("bessel.bessel_j", "bessel.bessel_i"),
        "bessel.j_calls": calls["bessel.bessel_j"],
        "bessel.i_calls": calls["bessel.bessel_i"],
        "bessel.truncation_s": s("bessel.truncation_order"),
        "bessel.truncation_calls": calls["bessel.truncation_order"],
        "chain.static_s": chain["static"],
        "chain.driven_s": chain["driven"],
        "chain.samples": info_sum["chain.evolve_chain:samples"],
        "chain.driven_steps": driven_steps,
        "chain.mode_matrix_mb": mode_bytes / 1.0e6,
        "closedform.sideband_s": s(
            "closedform.floquet_spectrum_level", "closedform.floquet_spectrum_barrier"
        ),
        "closedform.sideband_terms": terms,
        "closedform.oracle_s": s(
            "closedform.b0_markovian_static",
            "closedform.b0_markovian_driven",
            "closedform.b0_lorentzian_static",
        ),
        "cli.csv_s": s("cli._write_csv"),
        "cli.self_s": cli_all - s("cli._write_csv"),
        **{f"cli.job.{name}_s": v for name, v in job_s.items()},
        "trace.attributed_frac": _ratio(sum(self_s.values()), wall),
    }
    out["spectra.pairs_per_s"] = _ratio(out["spectra.trajectory_pairs"], out["spectra.trajectory_s"])
    out["solvers.volterra_us_per_step"] = 1e6 * _ratio(
        out["solvers.volterra_s"], out["solvers.volterra_steps"]
    )
    out["solvers.ode_us_per_step"] = 1e6 * _ratio(out["solvers.ode_s"], out["solvers.ode_steps"])
    return out


def layer_shares(tracer: Tracer) -> dict:
    """Self time per layer as a share of the traced jobs' wall time."""
    selfs = self_times(tracer.spans)
    wall = sum(s.end - s.start for s in tracer.spans if s.name == JOB)
    shares: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(tracer.spans, selfs):
        if span.name != JOB:
            shares[span.name.split(".")[0]] += _ratio(own, wall)
    return shares
