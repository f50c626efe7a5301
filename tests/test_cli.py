"""Command-line interface: flags, CSV format, manifests, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welldecay import cli, solvers
from welldecay.cli import main
from welldecay.model import FiniteChain, LevelDrive, Semicircle, SystemParams, WideBand
from welldecay.solvers import SolverConfig, default_dt, solve


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def test_survival_lorentzian_basic(tmp_path):
    rc = main(["survival", "--model", "lorentzian", "--lambda", "4", "--e0", "1",
               "--t-max", "6", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "survival.csv")
    assert header == ["t_in_1/Gamma", "P0"]
    t, p0 = data[:, 0], data[:, 1]
    assert p0[0] == 1.0
    assert np.all(np.diff(p0) < 0)  # static decay is monotone
    manifest = read_manifest(tmp_path)
    assert manifest["version"]
    assert manifest["solver"]["rows"] == len(t)
    assert set(manifest) >= {"command", "parameters", "solver", "norm_checks",
                             "qualitative_checks", "version", "outputs"}


def test_survival_wideband_signed_range(tmp_path):
    rc = main(["survival", "--model", "wideband", "--e0", "0", "--t-min", "-4",
               "--t-max", "4", "--out", str(tmp_path)])
    assert rc == 0
    _, data = read_csv(tmp_path / "survival.csv")
    t, p0 = data[:, 0], data[:, 1]
    assert t[0] == -4.0 and t[-1] == 4.0
    assert np.max(np.abs(p0 - np.exp(-np.abs(t)))) < 1e-12


def test_survival_chain_reports_revival(tmp_path):
    rc = main(["survival", "--model", "chain", "--n", "150", "--w", "6", "--e0", "1",
               "--t-max", "60", "--out", str(tmp_path)])
    assert rc == 0
    manifest = read_manifest(tmp_path)
    t_rev = manifest["parameters"]["revival_time"]
    assert t_rev is not None and 50.0 < t_rev < 54.0
    assert manifest["norm_checks"]["norm_drift"] < 1e-8


def test_survival_chain_reports_the_drift_of_both_sides(tmp_path):
    # with --t-min < 0 the manifest's drift is the larger of the two runs, not t > 0's
    argv = ["survival", "--model", "chain", "--n", "40", "--w", "6", "--e0", "0.3",
            "--drive", "level", "--u", "1", "--omega", "1", "--t-min", "-30", "--t-max", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    params = SystemParams(e0=0.3, level_drive=LevelDrive(1.0, 1.0))
    chain = FiniteChain(40, 6.0)
    dt = default_dt(params, chain)
    neg, pos = (solve(params, chain, SolverConfig(dt=dt, t_end=t)).norm_drift
                for t in (-30.0, 2.0))
    assert neg > pos
    assert read_manifest(tmp_path)["norm_checks"]["norm_drift"] == neg


def test_survival_oracle_column(tmp_path):
    rc = main(["survival", "--model", "lorentzian", "--lambda", "4", "--e0", "0",
               "--t-max", "4", "--oracle", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "survival.csv")
    assert header == ["t_in_1/Gamma", "P0", "P0_oracle"]
    assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-7


def test_csv_has_15_significant_digits(tmp_path):
    main(["survival", "--model", "wideband", "--e0", "0.3", "--t-max", "1",
          "--dt", "0.01", "--out", str(tmp_path)])
    body = (tmp_path / "survival.csv").read_text().splitlines()[1:]
    cell = body[7].split(",")[1]
    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) >= 14


def test_csv_bytes_match_per_value_format(tmp_path):
    special = [0.0, -0.0, 5e-324, 1.0 / 3.0, math.pi * 1e20, math.inf, -math.inf, math.nan]
    rows = cli._CSV_BLOCK + 7
    first = np.resize(special, rows)
    second = np.random.default_rng(3).standard_normal(rows) * 10.0 ** (np.arange(rows) % 600 - 300)
    columns = [first, second, np.arange(rows, dtype=float)]
    cli._write_csv(tmp_path / "out.csv", ["a", "b", "c"], columns)
    lines = ["a,b,c"] + [",".join(format(v, ".15g") for v in row) for row in zip(*columns)]
    assert (tmp_path / "out.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def format_rows(columns):
    return "".join(",".join(format(v, ".15g") for v in row) + "\n" for row in zip(*columns))


PINNED = [
    123456789012345.5, 123456789012344.5, 0.5, 2.5,  # exact ties go to the even digit
    1234567890123445.0, 1234567890123455.0, 9007199254740993.0,  # 16-digit integers
    9.999999999999995e14, 9.99999999999999e-5, 9.9999999999999995e-5,  # carry to 10**k
    99999.99999999999, 1e-5, 1e-4, 1e14, 1e15, 1.5e-5, 1.5e-4,  # the fixed/exponent switch
    123456789012345.0, 1234567890123456.0, 1e99, 1e100, 1e-99, 1e-100,
    1.2345e280, 1e-280, 1.7976931348623157e308, 5e-324,  # the edges of the numpy range
    0.0, math.inf, math.nan, 1.0 / 3.0, 2.0 / 3.0, 100.0, 0.1,
]
PINNED += [-x for x in PINNED]
# raw 64-bit patterns reach nan, +-inf, +-0, subnormals and |exponent| > 280
VALUES = st.one_of(st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
                   st.sampled_from(PINNED))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda ncols: st.lists(st.lists(VALUES, min_size=ncols, max_size=ncols), min_size=1, max_size=40)))
def test_csv_bytes_match_format_on_raw_bit_patterns(tmp_path_factory, rows):
    columns = list(np.array(rows).T)
    path = tmp_path_factory.getbasetemp() / "bits.csv"
    cli._write_csv(path, ["h"] * len(columns), columns)
    assert path.read_bytes() == (",".join(["h"] * len(columns)) + "\n" + format_rows(columns)).encode()


@pytest.mark.parametrize("ncols", [1, 2, 3, 4])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_bytes_match_format_on_pinned_values(tmp_path, ncols, offset):
    rows = cli._CSV_BLOCK + offset
    columns = [np.resize(np.roll(PINNED, 7 * j), rows) for j in range(ncols)]
    header = [f"c{j}" for j in range(ncols)]
    cli._write_csv(tmp_path / "out.csv", header, columns)
    expected = ",".join(header) + "\n" + format_rows(columns)
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


# the ends of the fast range [1e-280, 1e280), where the 10**k table is read at e = -280
# and 280, the floats next to them and the powers of ten on either side
TABLE_EDGES = [1e-281, np.nextafter(1e-280, 0.0), 1e-280, np.nextafter(1e-280, 1.0), 1e-279,
               np.nextafter(1e-279, 0.0), 1e279, np.nextafter(1e279, 0.0), 9.999999999999995e279,
               np.nextafter(1e280, 0.0), 1e280, 1e281]
TABLE_EDGES += [-x for x in TABLE_EDGES]


@pytest.mark.parametrize("ncols", [1, 2, 3, 4, 5])
def test_csv_bytes_match_format_at_the_edges_of_the_power_table(tmp_path, ncols):
    columns = [np.roll(TABLE_EDGES, j) for j in range(ncols)]
    cli._write_csv(tmp_path / "out.csv", ["h"] * ncols, columns)
    expected = ",".join(["h"] * ncols) + "\n" + format_rows(columns)
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    parser = cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("built a second parser"))
    argv = ["survival", "--model", "lorentzian", "--lambda", "4", "--e0", "0.3", "--t-max", "2"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert cli._parser() is parser
    assert (tmp_path / "a" / "survival.csv").read_bytes() == (tmp_path / "b" / "survival.csv").read_bytes()


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["spectrum", "--drive", "level", "--u", "0.2", "--omega", "0.2",
            "--e0", "0", "--method", "asymptotic"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_spectrum_asymptotic_norms(tmp_path):
    rc = main(["spectrum", "--drive", "level", "--u", "0", "--omega", "1",
               "--e0", "0", "--out", str(tmp_path)])
    assert rc == 0
    manifest = read_manifest(tmp_path)
    assert abs(manifest["norm_checks"]["norm"] - 1.0) < 1e-3
    header, _ = read_csv(tmp_path / "spectrum.csv")
    assert header == ["E_in_Gamma", "Pbar"]


def test_spectrum_trajectory_conservation(tmp_path):
    rc = main(["spectrum", "--drive", "barrier", "--alpha", "0.1", "--omega", "2",
               "--e0", "0", "--method", "trajectory", "--t", "3", "--out", str(tmp_path)])
    assert rc == 0
    manifest = read_manifest(tmp_path)
    assert abs(manifest["norm_checks"]["conservation"] - 1.0) < 1e-3
    solver = manifest["solver"]  # the N_E x N_t cost of the run
    assert solver["steps"] == round(3.0 / solver["dt"]) + 1 and solver["rows"] > 1000


def test_spectra_never_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (numpy 2.x), 13-25 ms of a fresh process's spectrum job
    script = (
        "import sys\n"
        "from welldecay.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['spectrum', '--drive', 'barrier', '--alpha', '0.1', '--omega', '2',"
        " '--e0', '0.3', '--out', out]) == 0\n"
        "assert main(['spectrum', '--drive', 'barrier', '--alpha', '0.1', '--omega', '2',"
        " '--e0', '0.3', '--method', 'trajectory', '--t', '2', '--out', out]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_manifest_log_appends(tmp_path):
    args = ["survival", "--model", "wideband", "--e0", "0", "--t-max", "1",
            "--dt", "0.01", "--out", str(tmp_path)]
    main(args)
    main(args)
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["command"] for line in lines)


def test_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survival", "--model", "lorentzian", "--lambda", "4"])  # no --t-max
    assert exc.value.code == 1
    # missing model-specific flag
    assert main(["survival", "--model", "chain", "--t-max", "5", "--out", str(tmp_path)]) == 1
    # resolution-rule violation reports the offending product
    rc = main(["survival", "--model", "lorentzian", "--lambda", "4", "--t-max", "6",
               "--dt", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    assert "0.05" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig9", "--out", str(tmp_path)])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv,field",
    [
        ("survival --model wideband --e0 nan --t-max 1", "SystemParams.e0"),
        ("survival --model wideband --t-max 1 --dt inf", "SolverConfig.dt"),
        ("survival --model wideband --t-min nan --t-max 1", "--t-min"),
        ("survival --model chain --n 20 --w 6 --t-max nan", "--t-max"),
        ("survival --model chain --n 20 --w 6 --e0 inf --t-max 1", "SystemParams.e0"),
        ("survival --model chain --n 20 --w nan --t-max 1", "FiniteChain.w_band"),
        ("survival --model lorentzian --lambda inf --t-max 1", "Lorentzian.lam"),
        ("survival --model semicircle --w inf --t-max 1", "Semicircle.w_band"),
        ("survival --model wideband --drive level --u nan --omega 1 --t-max 1", "LevelDrive.u"),
        ("survival --model wideband --drive barrier --alpha inf --omega 1 --t-max 1",
         "BarrierDrive.alpha"),
        ("survival --model wideband --drive level --u 1 --omega inf --t-max 1", "LevelDrive.omega"),
        ("revival --n 20 --w 6 --t-max nan", "SolverConfig.t_end"),
        ("spectrum --method trajectory --t inf", "--t must"),
        ("survival --model wideband --t-max 1 --dt 0", "SolverConfig.dt"),
        ("survival --model chain --n 20 --w 6 --t-max 1 --dt 0", "SolverConfig.dt"),
        ("revival --n 20 --w 6 --dt 0", "SolverConfig.dt"),
        ("revival --n 20 --w 6 --t-max 0", "SolverConfig.t_end"),
        ("revival --n 10 --w 6 --t-max -5", "--t-max must be positive"),
    ],
)
def test_nonfinite_input_exits_1_naming_the_field(tmp_path, capsys, argv, field):
    assert main(argv.split() + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert field in err and "finite" in err, err


@pytest.mark.parametrize(
    "argv,needs",
    [
        ("--model wideband --drive level --u 1", "level drive needs --omega"),
        ("--model wideband --drive barrier --alpha 0.5", "barrier drive needs --omega"),
        ("--model lorentzian", "lorentzian model needs --lambda"),
        ("--model semicircle", "semicircle model needs --w"),
    ],
)
def test_missing_drive_or_model_flag_exits_1_before_any_file(tmp_path, capsys, argv, needs):
    out = tmp_path / "out"
    assert main(["survival", *argv.split(), "--t-max", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert needs in capsys.readouterr().err


def test_numerical_failure_exit_2(tmp_path):
    # too short a window to judge a revival
    rc = main(["revival", "--n", "150", "--w", "6", "--e0", "1", "--t-max", "2",
               "--out", str(tmp_path)])
    assert rc == 2


def test_nan_amplitude_exits_2(tmp_path, capsys, monkeypatch):
    # a route whose amplitude turns NaN is a numerical failure, not a JSON error; the closed
    # forms reject their overflows (next test), so a patched route supplies the NaN
    def nan_past_zero(params, lam, t):
        return np.where(np.asarray(t) == 0.0, 1.0 + 0.0j, np.nan)

    monkeypatch.setattr(solvers, "b0_lorentzian_static", nan_past_zero)
    rc = main(["survival", "--model", "lorentzian", "--lambda", "4", "--method", "closed",
               "--t-max", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "nan" in capsys.readouterr().err


def test_lorentzian_closed_form_overflow_exits_1_naming_e0_and_lambda(tmp_path, capsys):
    # lambda = 1e300 overflows Q^2 in the closed form: a usage error, before any file
    out = tmp_path / "out"
    rc = main(["survival", "--model", "lorentzian", "--lambda", "1e300", "--method", "closed",
               "--e0", "0", "--dt", "1e-302", "--t-max", "1e-300", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "E0 = 0, lambda = 1e+300" in err, err


@pytest.mark.parametrize("argv,ratio", [
    ("--drive level --u 20000 --omega 1", "|u/omega| < 10000, got u/omega = 20000"),
    ("--drive level --u -20000 --omega 1", "|u/omega| < 10000, got u/omega = -20000"),
    ("--drive barrier --alpha 0.5 --omega 1e-5", "|alpha/omega| < 10000, got alpha/omega = 50000"),
])
def test_sideband_argument_past_the_bessel_limit_exits_1_naming_the_ratio(tmp_path, capsys,
                                                                          argv, ratio):
    out = tmp_path / "out"
    assert main(["spectrum", *argv.split(), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: the sideband sum needs ") and ratio in err, err


def test_revival_command(tmp_path):
    rc = main(["revival", "--n", "100", "--w", "6", "--e0", "1", "--out", str(tmp_path)])
    assert rc == 0
    manifest = read_manifest(tmp_path)
    t_rev = manifest["parameters"]["revival_time"]
    assert t_rev is not None and t_rev > 2.0 * 101 / 6.0


def test_reproduce_fig3(tmp_path):
    rc = main(["reproduce", "fig3", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "fig3_survival.csv")
    assert header[0] == "t_in_1/Gamma" and len(header) == 5
    manifest = read_manifest(tmp_path)
    assert all(manifest["qualitative_checks"].values())


def test_reproduce_fig5(tmp_path):
    rc = main(["reproduce", "fig5", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "fig5_spectrum.csv")
    assert header == ["E_in_Gamma", "Pbar_level", "Pbar_barrier"]
    manifest = read_manifest(tmp_path)
    assert all(manifest["qualitative_checks"].values())
    assert manifest["parameters"]["central_rel_gap"] < 0.06


def test_reproduce_fig2(tmp_path):
    rc = main(["reproduce", "fig2", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "fig2_survival.csv")
    assert header == ["t_in_1/Gamma", "P0_exponential", "P0_chain_N150", "P0_chain_N250"]
    manifest = read_manifest(tmp_path)
    assert all(manifest["qualitative_checks"].values())
    revs = manifest["parameters"]
    assert revs["revival_time_N250"] > revs["revival_time_N150"]
    # the finite-band transient (documented): P0 rides above the exponential
    assert 0.10 < revs["max_dev_from_exp_t_below_5"] < 0.15
    assert revs["max_dev_from_exp_t_1_to_5"] < 0.05


def test_reproduce_fig4(tmp_path):
    rc = main(["reproduce", "fig4", "--out", str(tmp_path)])
    assert rc == 0
    manifest = read_manifest(tmp_path)
    assert all(manifest["qualitative_checks"].values())


def test_survival_lorentzian_closed_method(tmp_path):
    rc = main(["survival", "--model", "lorentzian", "--lambda", "4", "--e0", "1",
               "--t-max", "4", "--method", "closed", "--out", str(tmp_path)])
    assert rc == 0
    manifest = read_manifest(tmp_path)
    assert manifest["solver"]["method"] == "closed-form"
    # closed form rejects drives
    rc = main(["survival", "--model", "lorentzian", "--lambda", "4", "--e0", "1",
               "--drive", "level", "--u", "1", "--omega", "2", "--t-max", "4",
               "--method", "closed", "--out", str(tmp_path)])
    assert rc == 1


def test_survival_semicircle(tmp_path):
    rc = main(["survival", "--model", "semicircle", "--w", "6", "--e0", "1",
               "--t-max", "5", "--out", str(tmp_path)])
    assert rc == 0
    _, data = read_csv(tmp_path / "survival.csv")
    manifest = read_manifest(tmp_path)
    assert manifest["solver"]["method"] == "volterra-pc"
    assert data[-1, 1] < 0.02  # decayed


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_selftest_fails_a_check_past_its_bound_and_exits_2(capsys, monkeypatch):
    # the ODE route's |b0| scaled by 1 + 1e-5 moves P0 by about 2e-5 near t = 0, twice
    # the oracle triangle's 1e-5 bound; every other check keeps its own routes
    def solve_off(params, reservoir, cfg, method="auto"):
        traj = solve(params, reservoir, cfg, method)
        if method == "ode":
            traj.b0 = np.where(traj.times == 0.0, traj.b0, traj.b0 * (1.0 + 1e-5))
        return traj

    monkeypatch.setattr(cli, "solve", solve_off)
    assert main(["selftest"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and "Lorentzian oracle triangle" in fails[0], fails


@pytest.mark.parametrize(
    "route, error, check",
    [
        (lambda p, r, m: isinstance(r, WideBand) and p.static, 1e-14, "wideband static"),
        (lambda p, r, m: m == "ode", 1e-10, "oracle triangle on [-4, 4], ODE"),
        (lambda p, r, m: m == "volterra", 1e-13, "time reversal"),
        (lambda p, r, m: isinstance(r, Semicircle), 1e-4, "chain matches semicircle"),
    ],
    ids=["wideband", "ode", "time-reversal", "chain-semicircle"],
)
def test_selftest_fails_each_tightened_check_just_past_its_bound(capsys, monkeypatch, route,
                                                                 error, check):
    # one route's b0 scaled by 1 + error at t > 0 moves P0 there by about 2 error, past the
    # bound of its own check (1e-14, 1e-11, 1e-14 and 1e-4) and of no other
    def solve_off(params, reservoir, cfg, method="auto"):
        traj = solve(params, reservoir, cfg, method)
        if route(params, reservoir, method):
            traj.b0 = np.where(traj.times > 0.0, traj.b0 * (1.0 + error), traj.b0)
        return traj

    monkeypatch.setattr(cli, "solve", solve_off)
    assert main(["selftest"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and check in fails[0], fails


def test_selftest_fails_the_chain_norm_just_past_its_bound(capsys, monkeypatch):
    # the static chain's drift (8.9e-16) raised by 1e-14 crosses the 1e-14 bound of its
    # own check; the chain's b0, which the semicircle check reads, stays as it is
    def solve_off(params, reservoir, cfg, method="auto"):
        traj = solve(params, reservoir, cfg, method)
        if isinstance(reservoir, FiniteChain):
            traj.norm_drift += 1e-14
        return traj

    monkeypatch.setattr(cli, "solve", solve_off)
    assert main(["selftest"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and "chain norm conserved" in fails[0], fails


def test_selftest_runs_as_a_module_with_runtime_warnings_as_errors():
    # the command line of CI's console-script step, through the __main__ exit of cli.py
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "welldecay.cli", "selftest"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("[PASS]") == 7 and "[FAIL]" not in run.stdout


MANIFEST_KEYS = ["command", "parameters", "solver", "norm_checks", "qualitative_checks",
                 "version", "wall_time_s", "outputs"]


@pytest.mark.parametrize(
    "argv",
    [
        "survival --model lorentzian --lambda 4 --e0 0.3 --t-max 1 --dt 0.01 --oracle",
        "spectrum --drive level --u 0.2 --omega 0.2",
        "revival --n 40 --w 6",
        "reproduce fig5",
    ],
)
def test_manifest_records_every_flag_and_every_csv(tmp_path, argv):
    assert main(argv.split() + ["--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    assert list(manifest) == MANIFEST_KEYS
    assert sorted(manifest["outputs"]) == sorted(p.name for p in tmp_path.glob("*.csv"))
    flags = vars(cli.build_parser().parse_args(argv.split()))
    for key in ("func", "subcommand", "out"):
        del flags[key]
    parameters = manifest["parameters"]
    assert set(flags) <= set(parameters)
    # a flag left unset may be resolved by the command (revival's t_max)
    assert all(parameters[k] == v for k, v in flags.items() if v is not None)


def test_revival_without_a_revival_exits_0(tmp_path):
    rc = main(["revival", "--n", "150", "--w", "6", "--t-max", "30", "--out", str(tmp_path)])
    assert rc == 0
    manifest = read_manifest(tmp_path)
    assert manifest["parameters"]["revival_time"] is None
    assert all(manifest["qualitative_checks"].values())


@pytest.mark.parametrize("flag,value", [("--u", "nan"), ("--lambda", "inf")])
def test_nonfinite_unread_flag_exits_1_before_any_file(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    argv = ["survival", "--model", "wideband", "--t-max", "1", flag, value, "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert flag in err and "finite" in err, err


@pytest.mark.parametrize("argv", [
    "survival --model wideband --t-max 1e300 --dt 1e-300",  # 1e600 steps
    "revival --n 40 --w 1e-9 --e0 1e300",  # default t_max 1.2e11 over default dt 5e-302
    "spectrum --method trajectory --t 1e300 --e0 1e10",  # trajectory_dt's 5e310 steps
])
def test_step_count_past_any_grid_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv.split(), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "steps" in err, err
    if "--method trajectory" in argv:  # the step comes from the energy window, not a flag
        assert "--t " in err and "energy window" in err, err


@pytest.mark.parametrize("method", ["asymptotic", "trajectory"])
def test_energy_grid_past_float_resolution_exits_1_naming_e0(tmp_path, capsys, method):
    # at E0 = 1e300 the core points E0 +- 8 coincide: the grid step is 0
    out = tmp_path / "out"
    assert main(["spectrum", "--method", method, "--e0", "1e300", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: E0 = 1e+300") and "coincide" in err, err


def test_unusable_out_exits_1(tmp_path, capsys):
    regular = tmp_path / "file"
    regular.write_text("")
    assert main(["reproduce", "fig3", "--out", str(regular / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        "--model semicircle --w 6",
        "--model chain --n 20 --w 6",
        "--model lorentzian --lambda 4 --drive level --u 1 --omega 2",
        "--model wideband --drive barrier --alpha 0.5 --omega 2",
        # the run's own route is the closed form: the column would only repeat P0
        "--model wideband --e0 0.3",
        "--model lorentzian --lambda 4 --method closed",
    ],
)
def test_oracle_without_a_closed_form_is_rejected_before_any_solve(tmp_path, capsys,
                                                                   monkeypatch, argv):
    monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved"))
    rc = main(["survival", *argv.split(), "--t-max", "1", "--oracle", "--out", str(tmp_path)])
    assert rc == 1
    assert "--oracle" in capsys.readouterr().err
    assert not (tmp_path / "survival.csv").exists()


def test_survival_methods_are_the_routes(tmp_path):
    from welldecay.solvers import ROUTES

    parser = cli.build_parser()
    for method in ["auto", *(r for names in ROUTES.values() for r in names)]:
        argv = ["survival", "--model", "chain", "--t-max", "1", "--method", method]
        assert parser.parse_args(argv).method == method
    rc = main(["survival", "--model", "chain", "--n", "40", "--w", "6", "--t-max", "5",
               "--method", "exact", "--out", str(tmp_path)])
    assert rc == 0
    assert read_manifest(tmp_path)["solver"]["method"] == "eigendecomposition"


def test_benchmark_job_argvs_parse(monkeypatch):
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        for job, argv in workloads.job_argvs(name, 0):
            assert parser.parse_args(argv).subcommand == job.command
