"""Command-line front end: free-form survival and spectrum runs, revival
detection, bundled figure presets, and a self-test of the oracle network.

All energies are entered in units of the wide-band level width (Gamma = 1
internally) and times in its inverse. Each command that takes --out returns
its CSV tables, its manifest blocks and a status line; one runner (_run)
writes them. manifest.json describes the latest run, manifest.jsonl
accumulates one record per run (append-only log), and the record's
parameters are the parsed flags plus the values the command derived.
Nothing is written unless the command returned and every flag is finite.

Every CSV value is written as format(v, ".15g") would write it, byte for
byte, by _csvformat.format_rows: numpy formats 4096 values, whole rows, in
one pass, and only the values it cannot decide (inf, nan, +-0, |v| outside
[1e-280, 1e280), a mantissa within 1e-6 of a rounding tie) go through
format() itself.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 a qualitative
check of a figure preset failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, chain, closedform, spectra
from ._csvformat import format_rows
from .model import (
    BarrierDrive,
    FiniteChain,
    LevelDrive,
    Lorentzian,
    ModelError,
    Semicircle,
    SystemParams,
    WideBand,
)
from .solvers import (
    ROUTES, ResolutionError, SolverConfig, SolverError, combine_signed, default_dt, routes_for, solve,
)

USAGE_ERROR, NUMERICAL_ERROR, CHECK_FAILURE = 1, 2, 3
_CSV_BLOCK = 4096  # values per vectorised pass, so its temporaries stay those of one column
_NOT_FLAGS = ("func", "raw_argv", "subcommand", "out")  # namespace keys kept out of parameters


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with status 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_ERROR)


def _write_csv(path: Path, header, columns) -> None:
    cols = [np.asarray(c, dtype=float) for c in columns]
    rows = max(1, _CSV_BLOCK // len(cols))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, len(cols[0]), rows):
            fh.write(format_rows([c[lo : lo + rows] for c in cols]))


def _run(args) -> int:
    """Run an output-writing command, then write its CSVs and its manifest record."""
    t0 = time.perf_counter()
    tables, blocks, message = args.func(args)
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS}
    for name, value in flags.items():  # after the command, so models name their own fields
        if isinstance(value, float) and not math.isfinite(value):
            flag = "lambda" if name == "lam" else name.replace("_", "-")
            raise ModelError(f"--{flag} must be finite, got {value}")
    record = {
        "command": f"{args.subcommand} {' '.join(args.raw_argv)}",
        "parameters": {**flags, **blocks.get("parameters", {})},
        **{key: blocks.get(key, {}) for key in ("solver", "norm_checks", "qualitative_checks")},
        "version": __version__,
        "wall_time_s": 0.0,
        "outputs": list(tables),
    }
    json.dumps(record, allow_nan=False)  # a record that cannot be written stops the run here
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        _write_csv(outdir / name, header, columns)
    record["wall_time_s"] = round(time.perf_counter() - t0, 3)
    text = json.dumps(record, indent=2, allow_nan=False)
    (outdir / "manifest.json").write_text(text + "\n", encoding="utf-8")
    with open(outdir / "manifest.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, allow_nan=False) + "\n")
    print(message)
    return 0 if all(record["qualitative_checks"].values()) else CHECK_FAILURE


def _build_params(args) -> SystemParams:
    level = barrier = None
    drive = getattr(args, "drive", "none")
    if drive == "level":
        if args.omega is None:
            raise ModelError("level drive needs --omega")
        level = LevelDrive(u=args.u, omega=args.omega)
    elif drive == "barrier":
        if args.omega is None:
            raise ModelError("barrier drive needs --omega")
        barrier = BarrierDrive(alpha=args.alpha, omega=args.omega)
    return SystemParams(e0=args.e0, level_drive=level, barrier_drive=barrier)


def _build_reservoir(args):
    if args.model == "wideband":
        return WideBand()
    if args.model == "lorentzian":
        if args.lam is None:
            raise ModelError("lorentzian model needs --lambda")
        return Lorentzian(args.lam)
    if args.model == "semicircle":
        if args.w is None:
            raise ModelError("semicircle model needs --w")
        return Semicircle(args.w)
    if args.n is None or args.w is None:
        raise ModelError("chain model needs --n and --w")
    return FiniteChain(n_levels=args.n, w_band=args.w)


def cmd_survival(args) -> tuple[dict, dict, str]:
    params = _build_params(args)
    if not 0.0 < args.t_max < math.inf:
        raise ModelError("--t-max must be positive and finite")
    if not -math.inf < args.t_min <= 0.0:
        raise ModelError("--t-min must be finite and <= 0 (grids start at t = 0)")
    reservoir = _build_reservoir(args)  # validated before dt uses it
    if args.oracle and not (params.static and "closed" in routes_for(reservoir)):
        raise ModelError("--oracle needs a static run of a model with a closed form "
                         "(wideband or lorentzian)")
    dt = default_dt(params, reservoir) if args.dt is None else args.dt

    def side(t_end):
        return solve(params, reservoir, SolverConfig(dt=dt, t_end=t_end), args.method)

    traj = pos = side(args.t_max)
    if args.t_min < 0.0:
        traj = combine_signed(side(args.t_min), pos)
    times, p0 = traj.times, traj.p0
    columns = [times, p0]
    header = ["t_in_1/Gamma", "P0"]
    norm_checks: dict = {}
    derived: dict = {}
    if args.model == "chain":
        norm_checks["norm_drift"] = traj.norm_drift
        try:
            derived["revival_time"] = chain.revival_time(pos)
        except SolverError:
            derived["revival_time"] = None
    else:
        norm_checks["max_abs_b0"] = float(np.max(np.abs(traj.b0)))
    if args.oracle:
        if args.model == "wideband":
            oracle = np.abs(closedform.b0_markovian_driven(params, times)) ** 2
        else:
            oracle = np.abs(closedform.b0_lorentzian_static(params, reservoir.lam, times)) ** 2
        columns.append(oracle)
        header.append("P0_oracle")
        norm_checks["max_oracle_gap"] = float(np.max(np.abs(p0 - oracle)))

    solver = {"method": traj.method, "dt": float(times[1] - times[0]), "rows": len(times)}
    blocks = {"parameters": derived, "solver": solver, "norm_checks": norm_checks}
    message = f"wrote {Path(args.out) / 'survival.csv'} ({len(times)} rows)"
    return {"survival.csv": (header, columns)}, blocks, message


def cmd_spectrum(args) -> tuple[dict, dict, str]:
    params = _build_params(args)
    norm_checks: dict = {}
    solver: dict = {"method": args.method}
    if args.method == "asymptotic":
        grid = spectra.energy_grid(params)
        spec = spectra.spectrum_asymptotic(params, grid)
    else:
        t_spec = args.t
        if not 0.0 < t_spec < math.inf:
            raise ModelError("--t must be positive and finite")
        p0_final = math.exp(-t_spec)  # exact without a barrier drive, above P0 with one
        window = spectra.conservation_window(params, p0_final)
        grid = spectra.energy_grid(params, tail_halfwidth=window)
        dt = spectra.trajectory_dt(params, grid, t_spec)
        traj = solve(params, WideBand(), SolverConfig(dt=dt, t_end=t_spec))
        spec = spectra.spectrum_from_trajectory(traj, grid)
        conservation = float(traj.p0[-1]) + spec.norm
        norm_checks["conservation"] = conservation
        solver.update(dt=dt, steps=len(traj.times))
    solver["rows"] = len(spec.energies)
    norm_checks["norm"] = spec.norm

    tables = {"spectrum.csv": (["E_in_Gamma", "Pbar"], [spec.energies, spec.values])}
    message = (f"wrote {Path(args.out) / 'spectrum.csv'} "
               f"({len(spec.energies)} rows, norm {spec.norm:.6f})")
    return tables, {"solver": solver, "norm_checks": norm_checks}, message


def cmd_revival(args) -> tuple[dict, dict, str]:
    params = SystemParams(e0=args.e0)
    reservoir = FiniteChain(n_levels=args.n, w_band=args.w)
    t_max = 3.0 * (args.n + 1) / args.w + 20.0 if args.t_max is None else args.t_max
    if t_max < 0.0:  # 0 and non-finite ends are SolverConfig's to reject
        raise ModelError("--t-max must be positive and finite")
    dt = default_dt(params, reservoir) if args.dt is None else args.dt
    traj = solve(params, reservoir, SolverConfig(dt=dt, t_end=t_max))
    t_rev = chain.revival_time(traj)
    blocks = {
        "parameters": {"t_max": t_max, "revival_time": t_rev},
        "solver": {"method": traj.method, "dt": dt, "rows": len(traj.times)},
        "norm_checks": {"norm_drift": traj.norm_drift},
    }
    if t_rev is None:
        message = "no revival found in the simulated window"
    else:
        message = f"revival at Gamma t = {t_rev:.4g}"
    return {"revival.csv": (["t_in_1/Gamma", "P0"], [traj.times, traj.p0])}, blocks, message


# ---------------------------------------------------------------------------
# figure presets: each returns (tables, checks, details)


def _fig2() -> tuple[dict, dict, dict]:
    w_band, e0 = 6.0, 1.0
    dt = 0.005
    t_max = 120.0
    series = {}
    revivals = {}
    cfg = SolverConfig(dt=dt, t_end=t_max)
    for n in (150, 250):
        traj = solve(SystemParams(e0=e0), FiniteChain(n, w_band), cfg)
        series[n] = traj
        revivals[n] = chain.revival_time(traj)
    times = series[250].times
    exp_ref = np.exp(-times)
    header = ["t_in_1/Gamma", "P0_exponential", "P0_chain_N150", "P0_chain_N250"]
    tables = {"fig2_survival.csv": (header, [times, exp_ref, series[150].p0, series[250].p0])}
    early = times <= 5.0
    late = (times >= 1.0) & (times <= 5.0)
    checks = {
        "revival_N150_finite": revivals[150] is not None,
        "revival_N250_finite": revivals[250] is not None,
        "revival_time_increases_with_N": revivals[150] is not None
        and revivals[250] is not None
        and revivals[250] > revivals[150],
        "near_exponential_in_decay_regime": bool(
            np.max(np.abs(series[250].p0[late] - exp_ref[late])) < 0.05
        ),
    }
    details = {
        "revival_time_N150": revivals[150],
        "revival_time_N250": revivals[250],
        "max_dev_from_exp_t_below_5": float(np.max(np.abs(series[250].p0[early] - exp_ref[early]))),
        "max_dev_from_exp_t_1_to_5": float(np.max(np.abs(series[250].p0[late] - exp_ref[late]))),
    }
    return tables, checks, details


def _fig34(which: str) -> tuple[dict, dict, dict]:
    lam, omega, cfg = 4.0, 2.0, SolverConfig(dt=0.002, t_end=6.0)
    if which == "fig3":
        drive = {"level_drive": LevelDrive(3.0, omega)}
    else:
        drive = {"barrier_drive": BarrierDrive(0.1, omega)}
    data = {e0: [solve(SystemParams(e0=e0, **d), Lorentzian(lam), cfg, "ode") for d in ({}, drive)]
            for e0 in (3.0, 0.0)}
    times = data[3.0][0].times
    header = [
        "t_in_1/Gamma",
        "P0_static_e0_3", "P0_driven_e0_3",
        "P0_static_e0_0", "P0_driven_e0_0",
    ]
    columns = [times, data[3.0][0].p0, data[3.0][1].p0, data[0.0][0].p0, data[0.0][1].p0]
    i4 = data[3.0][0].index_of(4.0)
    p = {e0: (data[e0][0].p0[i4], data[e0][1].p0[i4]) for e0 in (3.0, 0.0)}
    if which == "fig3":
        checks = {
            "drive_speeds_up_decay_detuned": bool(p[3.0][1] < p[3.0][0]),
            "drive_slows_down_decay_aligned": bool(p[0.0][1] > p[0.0][0]),
        }
    else:
        checks = {
            "barrier_drive_speeds_up_decay_detuned": bool(p[3.0][1] < p[3.0][0]),
            "barrier_drive_speeds_up_decay_aligned": bool(p[0.0][1] < p[0.0][0]),
        }
    details = {
        "P0_at_t4_static_e0_3": float(p[3.0][0]),
        "P0_at_t4_driven_e0_3": float(p[3.0][1]),
        "P0_at_t4_static_e0_0": float(p[0.0][0]),
        "P0_at_t4_driven_e0_0": float(p[0.0][1]),
    }
    return {f"{which}_survival.csv": (header, columns)}, checks, details


def _fig5() -> tuple[dict, dict, dict]:
    amp = omega = 0.2
    level = SystemParams(e0=0.0, level_drive=LevelDrive(amp, omega))
    barrier = SystemParams(e0=0.0, barrier_drive=BarrierDrive(amp, omega))
    grid = spectra.energy_grid(level, core_halfwidth=12.0)
    s_level = spectra.spectrum_asymptotic(level, grid)
    s_barrier = spectra.spectrum_asymptotic(barrier, grid)
    tables = {"fig5_spectrum.csv": (["E_in_Gamma", "Pbar_level", "Pbar_barrier"],
                                    [grid, s_level.values, s_barrier.values])}
    lv_p, lv_m, lv_0 = (s_level.value_at(omega), s_level.value_at(-omega), s_level.value_at(0.0))
    br_p, br_0 = s_barrier.value_at(omega), s_barrier.value_at(0.0)
    checks = {
        # compared on the absorption side: the level spectrum is
        # intrinsically asymmetric about E0 (see the tests)
        "barrier_first_sideband_more_pronounced": bool(br_p > lv_p),
        "central_peaks_similar_within_10pct": bool(abs(br_0 - lv_0) / lv_0 < 0.10),
    }
    details = {
        "level_at_plus_omega": lv_p,
        "level_at_minus_omega": lv_m,
        "barrier_at_plus_minus_omega": br_p,
        "level_central": lv_0,
        "barrier_central": br_0,
        "central_rel_gap": abs(br_0 - lv_0) / lv_0,
        "norm_level": s_level.norm,
        "norm_barrier": s_barrier.norm,
    }
    return tables, checks, details


def cmd_reproduce(args) -> tuple[dict, dict, str]:
    preset = {"fig2": _fig2, "fig3": lambda: _fig34("fig3"),
              "fig4": lambda: _fig34("fig4"), "fig5": _fig5}[args.figure]
    tables, checks, details = preset()
    blocks = {"parameters": details, "qualitative_checks": checks}
    lines = [f"[{'PASS' if ok else 'FAIL'}] {args.figure}: {name}" for name, ok in checks.items()]
    return tables, blocks, "\n".join(lines)


def cmd_selftest(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    params = SystemParams(e0=0.0)
    cfg = SolverConfig(dt=0.005, t_end=4.0)
    traj = solve(params, WideBand(), cfg)
    gap = float(np.max(np.abs(traj.p0 - np.exp(-np.abs(traj.times)))))
    report("wideband static survival is exp(-Gamma|t|)", gap < 1e-12, f"max gap {gap:.2e}")

    p1 = SystemParams(e0=1.0)
    lam = 4.0
    volterra = {}
    for t_end in (4.0, -4.0):
        cfg = SolverConfig(dt=0.002, t_end=t_end)
        tv = volterra[t_end] = solve(p1, Lorentzian(lam), cfg, "volterra")
        to = solve(p1, Lorentzian(lam), cfg, "ode")
        ex = closedform.b0_lorentzian_static(p1, lam, tv.times)
        g1 = float(np.max(np.abs(tv.p0 - np.abs(ex) ** 2)))
        g2 = float(np.max(np.abs(to.p0 - np.abs(ex) ** 2)))
        report(
            f"Lorentzian oracle triangle (t_end={t_end:+g})",
            g1 < 1e-5 and g2 < 1e-5,
            f"volterra {g1:.2e}, ode {g2:.2e}",
        )

    sym = float(np.max(np.abs(volterra[-4.0].b0 - np.conj(volterra[4.0].b0))))
    report("time reversal b0(-t) = conj b0(t)", sym < 1e-10, f"max {sym:.2e}")

    ct = solve(p1, FiniteChain(80, 6.0), SolverConfig(dt=0.005, t_end=5.0))
    cs = solve(p1, Semicircle(6.0), SolverConfig(dt=0.005, t_end=5.0))
    gap = float(np.max(np.abs(ct.p0 - cs.p0)))
    report("chain matches semicircle memory solution", gap < 0.02, f"max gap {gap:.2e}")
    report("chain norm conserved", ct.norm_drift < 1e-8, f"drift {ct.norm_drift:.2e}")

    lev = SystemParams(e0=0.0, level_drive=LevelDrive(3.0, 2.0))
    grid = spectra.energy_grid(lev, tail_halfwidth=None)
    spec = spectra.spectrum_asymptotic(lev, grid)
    dt = spectra.trajectory_dt(lev, grid, 12.0)
    tw = solve(lev, WideBand(), SolverConfig(dt=dt, t_end=12.0))
    st = spectra.spectrum_from_trajectory(tw, grid)
    peaks = [n * 2.0 for n in range(-3, 2)]
    rels = [
        abs(st.value_at(p) - spec.value_at(p)) / spec.value_at(p) for p in peaks
    ]
    report(
        "driven spectrum matches sideband resummation at peaks",
        max(rels) < 0.01,
        f"worst {max(rels):.2e}",
    )
    return 0 if failures == 0 else NUMERICAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="welldecay", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".")
    drive = argparse.ArgumentParser(add_help=False)
    drive.add_argument("--e0", type=float, default=0.0)
    drive.add_argument("--drive", choices=["none", "level", "barrier"], default="none")
    drive.add_argument("--u", type=float, default=0.0, help="level-drive amplitude")
    drive.add_argument("--alpha", type=float, default=0.0, help="barrier-drive amplitude")
    drive.add_argument("--omega", type=float, help="drive frequency")

    p = sub.add_parser("survival", parents=[drive, out],
                       help="survival probability P0(t) on a signed time grid")
    p.add_argument("--model", required=True, choices=["wideband", "lorentzian", "semicircle", "chain"])
    p.add_argument("--lambda", dest="lam", type=float, help="Lorentzian half-width (in Gamma)")
    p.add_argument("--w", type=float, help="band edge W (semicircle / chain)")
    p.add_argument("--n", type=int, help="number of chain levels")
    p.add_argument("--t-min", dest="t_min", type=float, default=0.0)
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--dt", type=float)
    routes = dict.fromkeys(route for names in ROUTES.values() for route in names)
    p.add_argument("--method", choices=["auto", *routes], default="auto")
    p.add_argument("--oracle", action="store_true", help="add a closed-form column")
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("spectrum", parents=[drive, out],
                       help="energy distribution of the tunneled particle")
    p.add_argument("--method", choices=["asymptotic", "trajectory"], default="asymptotic")
    p.add_argument("--t", type=float, default=12.0, help="end time for the trajectory method")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("revival", parents=[out], help="finite-reservoir revival detection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--e0", type=float, default=0.0)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--dt", type=float)
    p.set_defaults(func=cmd_revival)

    p = sub.add_parser("reproduce", parents=[out], help="run a bundled figure preset")
    p.add_argument("figure", choices=["fig2", "fig3", "fig4", "fig5"])
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("selftest", help="oracle-equivalence smoke suite")
    p.set_defaults(func=cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: a parser per call leaves reference cycles to the GC
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    args.raw_argv = argv[1:]
    try:  # a command that takes --out returns its outputs for _run to write
        return _run(args) if "out" in args else args.func(args)
    except (ModelError, ResolutionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
