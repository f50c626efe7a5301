"""Command-line front end: free-form survival and spectrum runs, revival
detection, bundled figure presets, and a self-test of the oracle network.

All energies are entered in units of the wide-band level width (Gamma = 1
internally) and times in its inverse. Every run writes CSV data plus a
manifest: manifest.json describes the latest run, manifest.jsonl
accumulates one record per run (append-only log).

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 a qualitative
check of a figure preset failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, chain, closedform, spectra
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
from .solvers import ResolutionError, SolverConfig, SolverError, combine_signed, default_dt, solve

USAGE_ERROR, NUMERICAL_ERROR, CHECK_FAILURE = 1, 2, 3
_CSV_BLOCK = 4096  # rows formatted per % operation


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with status 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_ERROR)


def _write_csv(path: Path, header, columns) -> None:
    rows = len(columns[0])
    line = ",".join(["%.15g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        cols = [np.asarray(c, dtype=float) for c in columns]
        for lo in range(0, rows, _CSV_BLOCK):
            block = np.column_stack([c[lo : lo + _CSV_BLOCK] for c in cols])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _emit_manifest(args, t0: float, parameters: dict, outputs: list, solver=None,
                   norm_checks=None, checks=None) -> None:
    """Write the run's record to manifest.json and append it to manifest.jsonl."""
    record = {
        "command": f"{args.subcommand} {' '.join(args.raw_argv)}",
        "parameters": parameters,
        "solver": solver or {},
        "norm_checks": norm_checks or {},
        "qualitative_checks": checks or {},
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "outputs": outputs,
    }
    outdir = Path(args.out)
    text = json.dumps(record, indent=2, allow_nan=False)
    (outdir / "manifest.json").write_text(text + "\n", encoding="utf-8")
    with open(outdir / "manifest.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, allow_nan=False) + "\n")


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


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
    return SystemParams(e0=args.e0, gamma=1.0, level_drive=level, barrier_drive=barrier)


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


def cmd_survival(args) -> int:
    t0 = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    params = _build_params(args)
    if not 0.0 < args.t_max < math.inf:
        raise ModelError("--t-max must be positive and finite")
    if not -math.inf < args.t_min <= 0.0:
        raise ModelError("--t-min must be finite and <= 0 (grids start at t = 0)")
    reservoir = _build_reservoir(args)  # validated before dt uses it
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
    extra: dict = {}
    if args.model == "chain":
        norm_checks["norm_drift"] = traj.norm_drift
        try:
            extra["revival_time"] = chain.revival_time(pos)
        except SolverError:
            extra["revival_time"] = None
    else:
        norm_checks["max_abs_b0"] = float(np.max(np.abs(traj.b0)))
    if args.oracle and args.model in ("wideband", "lorentzian") and params.static:
        if args.model == "wideband":
            oracle = np.abs(closedform.b0_markovian_driven(params, times)) ** 2
        else:
            oracle = np.abs(closedform.b0_lorentzian_static(params, reservoir.lam, times)) ** 2
        columns.append(oracle)
        header.append("P0_oracle")
        norm_checks["max_oracle_gap"] = float(np.max(np.abs(p0 - oracle)))

    _write_csv(outdir / "survival.csv", header, columns)
    parameters = {
        "model": args.model,
        "e0": args.e0,
        "drive": args.drive,
        "u": args.u,
        "alpha": args.alpha,
        "omega": args.omega,
        "lambda": args.lam,
        "w": args.w,
        "n": args.n,
        "t_min": args.t_min,
        "t_max": args.t_max,
        **extra,
    }
    solver = {"method": traj.method, "dt": float(times[1] - times[0]), "rows": len(times)}
    _emit_manifest(args, t0, parameters, ["survival.csv"], solver, norm_checks)
    print(f"wrote {outdir / 'survival.csv'} ({len(times)} rows)")
    return 0


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
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
        p0_final = math.exp(-params.gamma * t_spec)  # wide band: exact for both drives
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

    _write_csv(outdir / "spectrum.csv", ["E_in_Gamma", "Pbar"], [spec.energies, spec.values])
    parameters = {
        "drive": args.drive,
        "e0": args.e0,
        "u": args.u,
        "alpha": args.alpha,
        "omega": args.omega,
        "method": args.method,
        "t": args.t if args.method == "trajectory" else None,
    }
    _emit_manifest(args, t0, parameters, ["spectrum.csv"], solver, norm_checks)
    print(f"wrote {outdir / 'spectrum.csv'} ({len(spec.energies)} rows, norm {spec.norm:.6f})")
    return 0


def cmd_revival(args) -> int:
    t0 = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    params = SystemParams(e0=args.e0)
    reservoir = FiniteChain(n_levels=args.n, w_band=args.w)
    t_max = 3.0 * (args.n + 1) / args.w + 20.0 if args.t_max is None else args.t_max
    dt = default_dt(params, reservoir) if args.dt is None else args.dt
    traj = solve(params, reservoir, SolverConfig(dt=dt, t_end=t_max))
    t_rev = chain.revival_time(traj)
    _write_csv(outdir / "revival.csv", ["t_in_1/Gamma", "P0"], [traj.times, traj.p0])
    _emit_manifest(
        args, t0,
        {"n": args.n, "w": args.w, "e0": args.e0, "t_max": t_max, "revival_time": t_rev},
        ["revival.csv"],
        {"method": traj.method, "dt": dt, "rows": len(traj.times)},
        {"norm_drift": traj.norm_drift},
        {"revival_found": t_rev is not None},
    )
    if t_rev is None:
        print("no revival found in the simulated window")
    else:
        print(f"revival at Gamma t = {t_rev:.4g}")
    return 0


# ---------------------------------------------------------------------------
# figure presets


def _fig2(outdir: Path) -> tuple[dict, dict, list]:
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
    _write_csv(outdir / "fig2_survival.csv", header,
               [times, exp_ref, series[150].p0, series[250].p0])
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
    return checks, details, ["fig2_survival.csv"]


def _driven_pair(lam, e0, drive_kind, amp, omega, t_max, dt):
    static = SystemParams(e0=e0)
    if drive_kind == "level":
        driven = SystemParams(e0=e0, level_drive=LevelDrive(amp, omega))
    else:
        driven = SystemParams(e0=e0, barrier_drive=BarrierDrive(amp, omega))
    cfg = SolverConfig(dt=dt, t_end=t_max)
    return tuple(solve(p, Lorentzian(lam), cfg, "ode") for p in (static, driven))


def _fig34(outdir: Path, which: str) -> tuple[dict, dict, list]:
    lam, omega, t_max, dt = 4.0, 2.0, 6.0, 0.002
    drive_kind, amp = ("level", 3.0) if which == "fig3" else ("barrier", 0.1)
    data = {}
    for e0 in (3.0, 0.0):
        data[e0] = _driven_pair(lam, e0, drive_kind, amp, omega, t_max, dt)
    times = data[3.0][0].times
    header = [
        "t_in_1/Gamma",
        "P0_static_e0_3", "P0_driven_e0_3",
        "P0_static_e0_0", "P0_driven_e0_0",
    ]
    _write_csv(outdir / f"{which}_survival.csv", header,
               [times, data[3.0][0].p0, data[3.0][1].p0, data[0.0][0].p0, data[0.0][1].p0])
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
    return checks, details, [f"{which}_survival.csv"]


def _fig5(outdir: Path) -> tuple[dict, dict, list]:
    amp = omega = 0.2
    level = SystemParams(e0=0.0, level_drive=LevelDrive(amp, omega))
    barrier = SystemParams(e0=0.0, barrier_drive=BarrierDrive(amp, omega))
    grid = spectra.energy_grid(level, core_halfwidth=12.0)
    s_level = spectra.spectrum_asymptotic(level, grid)
    s_barrier = spectra.spectrum_asymptotic(barrier, grid)
    _write_csv(outdir / "fig5_spectrum.csv", ["E_in_Gamma", "Pbar_level", "Pbar_barrier"],
               [grid, s_level.values, s_barrier.values])
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
    return checks, details, ["fig5_spectrum.csv"]


def cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = {"fig2": _fig2, "fig3": lambda o: _fig34(o, "fig3"),
              "fig4": lambda o: _fig34(o, "fig4"), "fig5": _fig5}[args.figure]
    checks, details, outputs = runner(outdir)
    parameters = {"figure": args.figure, **{k: _json_safe(v) for k, v in details.items()}}
    _emit_manifest(args, t0, parameters, outputs, checks=checks)
    ok = all(checks.values())
    for name, passed in checks.items():
        print(f"[{'PASS' if passed else 'FAIL'}] {args.figure}: {name}")
    return 0 if ok else CHECK_FAILURE


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
    for t_end in (4.0, -4.0):
        cfg = SolverConfig(dt=0.002, t_end=t_end)
        tv = solve(p1, Lorentzian(lam), cfg, "volterra")
        to = solve(p1, Lorentzian(lam), cfg, "ode")
        ex = closedform.b0_lorentzian_static(p1, lam, tv.times)
        g1 = float(np.max(np.abs(tv.p0 - np.abs(ex) ** 2)))
        g2 = float(np.max(np.abs(to.p0 - np.abs(ex) ** 2)))
        report(
            f"Lorentzian oracle triangle (t_end={t_end:+g})",
            g1 < 1e-5 and g2 < 1e-5,
            f"volterra {g1:.2e}, ode {g2:.2e}",
        )

    cfgp = SolverConfig(dt=0.002, t_end=3.0)
    cfgm = SolverConfig(dt=0.002, t_end=-3.0)
    fwd = solve(p1, Lorentzian(lam), cfgp, "volterra")
    bwd = solve(p1, Lorentzian(lam), cfgm, "volterra")
    sym = float(np.max(np.abs(bwd.b0 - np.conj(fwd.b0))))
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

    p = sub.add_parser("survival", help="survival probability P0(t) on a signed time grid")
    p.add_argument("--model", required=True, choices=["wideband", "lorentzian", "semicircle", "chain"])
    p.add_argument("--lambda", dest="lam", type=float, help="Lorentzian half-width (in Gamma)")
    p.add_argument("--w", type=float, help="band edge W (semicircle / chain)")
    p.add_argument("--n", type=int, help="number of chain levels")
    p.add_argument("--e0", type=float, default=0.0)
    p.add_argument("--drive", choices=["none", "level", "barrier"], default="none")
    p.add_argument("--u", type=float, default=0.0, help="level-drive amplitude")
    p.add_argument("--alpha", type=float, default=0.0, help="barrier-drive amplitude")
    p.add_argument("--omega", type=float, help="drive frequency")
    p.add_argument("--t-min", dest="t_min", type=float, default=0.0)
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--dt", type=float)
    p.add_argument("--method", choices=["auto", "volterra", "ode", "closed"], default="auto")
    p.add_argument("--oracle", action="store_true", help="add a closed-form column")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("spectrum", help="energy distribution of the tunneled particle")
    p.add_argument("--drive", choices=["none", "level", "barrier"], default="none")
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--omega", type=float)
    p.add_argument("--e0", type=float, default=0.0)
    p.add_argument("--method", choices=["asymptotic", "trajectory"], default="asymptotic")
    p.add_argument("--t", type=float, default=12.0, help="end time for the trajectory method")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("revival", help="finite-reservoir revival detection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--e0", type=float, default=0.0)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_revival)

    p = sub.add_parser("reproduce", help="run a bundled figure preset")
    p.add_argument("figure", choices=["fig2", "fig3", "fig4", "fig5"])
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("selftest", help="oracle-equivalence smoke suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv[1:]
    try:
        return args.func(args)
    except (ModelError, ResolutionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
