import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import read_fit_csv_lines

import nwacal
from nwacal import DesignKind, DesignSpec, confidence_interval, solve, var_hat
from nwacal.cli import (
    _HASHED_KEYS,
    RunConfig,
    _read_fit_csv,
    _weights_csv,
    config_hash,
    main,
    parse_config,
    study_scenarios,
)
from nwacal.estimators import FITTED_VARIANTS, Variant, estimating_equation, nwa_estimate


def test_defaults_are_reference_settings():
    cfg = parse_config(None)
    assert cfg.N == 1000
    assert cfg.n == 100
    assert cfg.reps == 10000
    assert cfg.lam == (0.1, 0.4)
    assert cfg.rho == 0.6
    assert cfg.design == "srs"


def test_out_of_range_value_names_key():
    with pytest.raises(ValueError, match="rho"):
        parse_config(None, {"rho": 1.5})


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("bogus = 3\n")
    with pytest.raises(ValueError, match="bogus"):
        parse_config(path)


@pytest.mark.parametrize("key", ["max_step", "divergence_bound"])
def test_removed_solver_keys_are_unknown(tmp_path, capsys, key):
    # The solver has no step cap and no coefficient cut-off; a config file
    # that still sets them is rejected like any other unknown key.
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = 10\n")
    rc = main(["scenario", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r} (line 1)\n"


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nrho = 0.3\nreps = 50\n")
    cfg = parse_config(path, {"rho": 0.0})
    assert cfg.rho == 0.0
    assert cfg.reps == 50


def test_pair_values_parse(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("mu = 3.5,4.5\nlam = 0.2,0.3\n")
    cfg = parse_config(path)
    assert cfg.mu == (3.5, 4.5)
    assert cfg.lam == (0.2, 0.3)


@pytest.mark.parametrize("line, key", [("mu = nan, 4.0", "mu"), ("lam = inf, 0.0", "lam")])
def test_non_finite_pair_values_rejected(tmp_path, capsys, line, key):
    path = tmp_path / "cfg.txt"
    path.write_text(line + "\n")
    rc = main(["scenario", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {key}: values must be finite\n"


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-8"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, value):
    # A NaN tol passes no residual test and an infinite one passes every
    # residual: both are rejected with the key named, like a negative one.
    with pytest.raises(ValueError, match="tol"):
        RunConfig(tol=float(value))
    path = tmp_path / "cfg.txt"
    path.write_text(f"tol = {value}\n")
    rc = main(["scenario", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: tol: must be positive and finite\n"


#: Every RunConfig key written as text in a config file, and the value it
#: must parse to; the non-default ones first, then every spelling of a bool.
_CONFIG_CASES = [
    ("N", "2000", 2000), ("n", "50", 50), ("mu", "3.5, 4.5", (3.5, 4.5)), ("rho", "0.3", 0.3),
    ("lam", "0.2,0.3", (0.2, 0.3)), ("design", "poisson", "poisson"), ("reps", "77", 77),
    ("seed", "5", 5), ("tol", "1e-6", 1e-6), ("max_iter", "20", 20), ("threads", "3", 3),
    ("out", "elsewhere", "elsewhere"),
    *(("emit_raw", text, True) for text in ("true", "yes", "1")),
    *(("emit_raw", text, False) for text in ("false", "no", "0")),
]


def test_config_cases_cover_every_key():
    assert {key for key, _, _ in _CONFIG_CASES} == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("key, text, value", _CONFIG_CASES)
def test_config_file_value_takes_the_type_of_its_default(tmp_path, key, text, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {text}\n")
    got, default = getattr(parse_config(path), key), getattr(RunConfig(), key)
    assert got == value
    assert type(got) is type(default)
    if isinstance(default, tuple):
        assert [type(v) for v in got] == [float, float]


@pytest.mark.parametrize("line", ["emit_raw = maybe", "N = 1.5", "seed = x", "mu = 1,2,3", "tol = small"])
def test_unparseable_config_value_names_its_key(tmp_path, line):
    path = tmp_path / "cfg.txt"
    path.write_text(line + "\n")
    key, raw = (part.strip() for part in line.split("="))
    with pytest.raises(ValueError, match=f"^{key}: cannot parse value {raw!r}$"):
        parse_config(path)


def test_every_config_key_is_hashed_or_run_only():
    # A field in neither set would silently drop out of config_hash.
    run_only = {"threads", "out", "emit_raw"}
    assert not run_only & set(_HASHED_KEYS)
    assert sorted(f.name for f in dataclasses.fields(RunConfig)) == sorted([*_HASHED_KEYS, *run_only])


def test_config_hash_tracks_content():
    a = RunConfig()
    b = RunConfig(rho=0.3)
    assert config_hash(a) == config_hash(RunConfig())
    assert config_hash(a) != config_hash(b)


def _write_fit_csv(path, with_y_gap=True):
    rng = np.random.default_rng(3)
    n = 40
    x1 = rng.normal(4, 1, n)
    pi = rng.uniform(0.2, 0.8, n)
    p = 1 / (1 + np.exp(-(0.1 + 0.4 * x1)))
    r = (rng.random(n) < p).astype(int)
    y = 2.0 + 0.7 * x1 + rng.normal(0, 0.4, n)
    lines = ["unit,pi,r,x1,y"]
    for i in range(n):
        y_cell = f"{y[i]:.17g}" if (r[i] == 1 or not with_y_gap) else ""
        lines.append(f"u{i},{pi[i]:.17g},{r[i]},{x1[i]:.17g},{y_cell}")
    path.write_text("\n".join(lines) + "\n")
    return float(np.sum(1.0))


def test_fit_subcommand(tmp_path):
    csv_path = tmp_path / "units.csv"
    _write_fit_csv(csv_path)
    out = tmp_path / "out"
    rc = main(["fit", "--input", str(csv_path), "--out", str(out)])
    assert rc == 0
    est = (out / "estimates.csv").read_text().splitlines()
    assert est[0] == "variant,value,n,n_r,max_weight,status,iterations"
    variants = {ln.split(",")[0] for ln in est[1:]}
    # population-level calibration needs --totals and is skipped without it
    assert variants == {"mle_1", "mle_invpi", "cal_S"}
    weights = (out / "weights.csv").read_text().splitlines()
    assert all(float(ln.split(",")[2]) > 0 for ln in weights[1:])
    var_lines = (out / "variance.csv").read_text().splitlines()
    assert var_lines[0] == "variant,v_sam,v_nr,v_total,ci_low,ci_high"
    assert len(var_lines) == 4


# One respondent, inside the range of the nonrespondents' x1: fewer than q = 2
# respondents, yet the MLE fits have a finite solution.
_ONE_RESPONDENT_ROWS = ["unit,pi,r,x1,y", "a,0.5,1,4.0,3.0", "b,0.4,0,5.0,", "c,0.5,0,3.0,", "d,0.25,0,4.5,"]


def _write_one_respondent_csv(path):
    path.write_text("\n".join(_ONE_RESPONDENT_ROWS) + "\n")


@pytest.mark.parametrize("write", [_write_fit_csv, _write_one_respondent_csv])
@pytest.mark.parametrize("totals", [None, "120,485"])
def test_fit_rows_match_the_step_api(tmp_path, write, totals):
    # Every row of estimates.csv and variance.csv against the fit redone
    # through the public step API: solve, nwa_estimate, var_hat and
    # confidence_interval, on the independent-draws (Poisson) design.
    path = tmp_path / "units.csv"
    write(path)
    out = tmp_path / "o"
    assert main(["fit", "--input", str(path), "--out", str(out)] + (["--totals", totals] if totals else [])) == 0
    units, pi, r, aux, y = read_fit_csv_lines(path)
    tot = None if totals is None else np.array([float(v) for v in totals.split(",")])
    mask = r == 1
    pi_r, x_r, y_r = pi[mask], aux[mask], y[mask]
    design = DesignSpec(kind=DesignKind.POISSON, pi=pi_r, n_target=float(pi_r.sum()))
    estimates = {ln.split(",")[0]: ln.split(",") for ln in (out / "estimates.csv").read_text().splitlines()[1:]}
    variances = {ln.split(",")[0]: ln.split(",") for ln in (out / "variance.csv").read_text().splitlines()[1:]}
    variants = [v for v in FITTED_VARIANTS if v is not Variant.CAL_U or tot is not None]
    assert list(estimates) == [v.value for v in variants]

    def same(cells, want):
        assert [float(c) for c in cells] == pytest.approx(want, rel=1e-13, abs=0.0, nan_ok=True)

    for variant in variants:
        fit = solve(estimating_equation(variant, aux, pi, r, tot))
        row = estimates[variant.value]
        assert row[2:4] + row[5:] == [str(len(units)), str(mask.sum()), fit.status.value, str(fit.iterations)]
        if not fit.converged:
            assert row[1] == row[4] == "nan" and variant.value not in variances
            continue
        record = nwa_estimate(variant, pi_r, y_r, fit.p_hat[mask], fit)
        ve = var_hat(variant, design, pi_r, x_r, y_r, fit.p_hat[mask])
        ci = confidence_interval(record.value, ve.total) or (math.nan, math.nan)
        same([row[1], row[4]], [record.value, np.max(record.weights)])
        same(variances[variant.value][1:], [ve.v_sam, ve.v_nr, ve.total, *ci])
    if write is _write_one_respondent_csv:
        # Fewer than q respondents: fitted, not degenerate, and the singular
        # gamma system leaves v_nr and the interval NaN.
        assert estimates["mle_1"][5] == "converged"
        assert variances["mle_1"][2:] == ["nan"] * 4


def test_fit_with_population_totals(tmp_path):
    csv_path = tmp_path / "units.csv"
    _write_fit_csv(csv_path)
    out = tmp_path / "out"
    rc = main(
        ["fit", "--input", str(csv_path), "--totals", "120,485", "--out", str(out)]
    )
    assert rc == 0
    est = (out / "estimates.csv").read_text().splitlines()
    variants = {ln.split(",")[0] for ln in est[1:]}
    assert "cal_U" in variants


def _run_in_new_interpreter(script: str) -> str:
    """The standard output of ``script`` run by a new Python that imports
    this nwacal."""
    src = str(Path(nwacal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_study_and_fit_never_import_scipy(tmp_path):
    # numpy is the only runtime dependency: importing scipy adds about 0.3 s
    # to every command. numpy.ma, which np.unique imports on first use, would
    # move about 15 ms of import into the first block of a study.
    csv_path = tmp_path / "units.csv"
    _write_fit_csv(csv_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("N = 200\nn = 50\n")
    script = f"""
import sys
from nwacal.cli import main
assert main(["scenario", "--config", {str(cfg)!r}, "--reps", "70", "--emit-raw",
             "--out", {str(tmp_path / "scen")!r}]) == 0
assert main(["fit", "--input", {str(csv_path)!r}, "--out", {str(tmp_path / "fit")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma"))
"""
    stdout = _run_in_new_interpreter(script)
    assert len((tmp_path / "scen" / "raw.csv").read_text().splitlines()) == 2 + 70 * 6
    assert stdout.splitlines()[-1] == "[]"


def test_import_and_serial_study_never_load_multiprocessing():
    # Only the worker pool of run_study needs multiprocessing, whose import
    # costs about 8 ms of every command's start-up.
    script = """
import sys
from nwacal.cli import RunConfig, study_scenarios
from nwacal.montecarlo import run_study
run_study(study_scenarios(RunConfig(reps=70))[3][2], threads=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
"""
    assert _run_in_new_interpreter(script).splitlines()[-1] == "[]"


def test_study_builds_each_population_once(monkeypatch):
    import nwacal.cli as cli

    built = []
    generate = cli.generate_population

    def counted(cfg):
        built.append(cfg.rho)
        return generate(cfg)

    monkeypatch.setattr(cli, "generate_population", counted)
    cells = study_scenarios(RunConfig(reps=10))
    assert built == [0.6, 0.3, 0.0]
    assert [(d, rho) for d, rho, _ in cells] == [(d, rho) for d in ("srs", "poisson") for rho in (0.6, 0.3, 0.0)]
    for k in range(3):
        srs, poisson = cells[k][2], cells[k + 3][2]
        assert srs.population is poisson.population
        assert srs.population.rho == cells[k][1]
    assert len({sc.master_seed for _, _, sc in cells}) == 6


def test_fit_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,pi,x1,y\nu0,0.5,4.0,3.0\n")
    rc = main(["fit", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_trace_subcommand(tmp_path):
    csv_path = tmp_path / "units.csv"
    _write_fit_csv(csv_path)
    out = tmp_path / "tr"
    rc = main(["trace", "--input", str(csv_path), "--out", str(out)])
    assert rc == 0
    trace = (out / "trace_mle_1.csv").read_text().splitlines()
    assert trace[0] == "iteration,residual_norm,step_size"
    assert len(trace) > 1
    # residual norms decrease monotonically under the damped iteration
    norms = [float(ln.split(",")[1]) for ln in trace[1:]]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_scenario_subcommand(tmp_path):
    out = tmp_path / "scen"
    rc = main(
        ["scenario", "--reps", "25", "--seed", "4", "--design", "poisson",
         "--rho", "0.3", "--out", str(out), "--emit-raw"]
    )
    assert rc == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("# master_seed=4 config_hash=")
    assert len(report) == 2 + 6  # header comment, column row, six variants
    raw = (out / "raw.csv").read_text().splitlines()
    assert len(raw) == 2 + 25 * 6


def test_study_structure_and_determinism(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    args = ["study", "--reps", "20", "--seed", "9", "--threads", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("table2.csv", "table3.csv", "table4.csv", "tables.txt"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} not reproducible"
    table2 = (out1 / "table2.csv").read_text().splitlines()
    assert table2[0].startswith("# master_seed=9")
    assert table2[1] == "design,rho,variant,rb,rrvar"
    # six scenario blocks x six variants
    assert len(table2) == 2 + 36
    scenarios = {tuple(ln.split(",")[:2]) for ln in table2[2:]}
    assert len(scenarios) == 6
    table4 = (out1 / "table4.csv").read_text().splitlines()
    assert len(table4) == 2 + 24  # four reweighted variants per scenario


_GOOD_FIT_ROWS = [
    "unit,pi,r,x1,y", "a,0.5,1,4.0,3.0", "b,0.25,0,5.0,", "c,0.5,1,3.5,2.5", "d,0.2,0,4.5,",
]


def test_fit_rejects_unknown_variant(tmp_path, capsys):
    path = tmp_path / "units.csv"
    path.write_text("\n".join(_GOOD_FIT_ROWS) + "\n")
    rc = main(["fit", "--input", str(path), "--variants", "cal_S,ht", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --variants: unknown ht\n"


@pytest.mark.parametrize(
    "variants, message",
    [("", "empty list"), (",", "empty name in ','"), ("cal_S,", "empty name in 'cal_S,'"),
     ("mle_1,,cal_S", "empty name in 'mle_1,,cal_S'")],
)
def test_fit_rejects_an_empty_variant_list_or_name(tmp_path, capsys, variants, message):
    path = tmp_path / "units.csv"
    path.write_text("\n".join(_GOOD_FIT_ROWS) + "\n")
    out = tmp_path / "o"
    assert main(["fit", "--input", str(path), f"--variants={variants}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --variants: {message}\n"
    assert not out.exists()


# Each bad row or --totals value, and the message it stops fit with.
_BAD_FIT_INPUT = {
    ("e,0.5,1,4.0", None): "line 8: expected 5 fields, got 4",  # ragged row
    ("e,0.5,1,4.0,3.0,7", None): "line 8: expected 5 fields, got 6",
    ("e,0.5,1,nan,3.0", None): "line 8: x values must be finite (unit e)",
    ("e,0.5,1,inf,3.0", None): "line 8: x values must be finite (unit e)",
    # non-finite or missing y of a respondent
    ("e,0.5,1,4.0,nan", None): "line 8: a respondent needs a finite y value (unit e)",
    ("e,0.5,1,4.0,", None): "line 8: a respondent needs a finite y value (unit e)",
    ("e,0,1,4.0,3.0", None): "line 8: pi must lie in (0, 1] (unit e)",
    ("e,1.5,1,4.0,3.0", None): "line 8: pi must lie in (0, 1] (unit e)",
    ("e,nan,1,4.0,3.0", None): "line 8: pi must lie in (0, 1] (unit e)",
    ("e,0.5,2,4.0,3.0", None): "line 8: r must be 0 or 1 (unit e)",
    ("e,0.5,abc,4.0,3.0", None): "line 8: could not convert string to float: 'abc'",
    # y is converted first, then pi, r and the x columns
    ("e,0.5,abc, ,3.0x", None): "line 8: could not convert string to float: '3.0x'",
    ("e,0.5,abc, ,3.0", None): "line 8: could not convert string to float: 'abc'",
    ("e,0.5,1,4.0,3.0", "100"): "--totals needs 2 values (count first, then each x column total)",
    ("e,0.5,1,4.0,3.0", "100,nan"): "--totals values must be finite",
    ("e,0.5,1,4.0,3.0", "0,400"): "--totals: the population count (first value) must be positive",
    ("e,0.5,1,4.0,3.0", "-5,400"): "--totals: the population count (first value) must be positive",
}


@pytest.mark.parametrize("row, totals", list(_BAD_FIT_INPUT))
def test_fit_rejects_bad_input_with_one_line_error(tmp_path, capsys, row, totals):
    # A comment line and a blank line come before the bad row, which is line
    # 8 of the file: the message names the file's line, not the data row.
    path = tmp_path / "units.csv"
    path.write_text("\n".join(_GOOD_FIT_ROWS + ["# a comment, with, commas", "", row]) + "\n")
    argv = ["fit", "--input", str(path), "--out", str(tmp_path / "o")]
    rc = main(argv + ([f"--totals={totals}"] if totals else []))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {_BAD_FIT_INPUT[row, totals]}\n"


def test_fit_requested_cal_U_needs_totals(tmp_path, capsys):
    # Without --variants, cal_U is skipped when --totals is absent; asked
    # for by name, it is an error instead of an empty estimates.csv.
    path = tmp_path / "units.csv"
    path.write_text("\n".join(_GOOD_FIT_ROWS) + "\n")
    out = tmp_path / "o"
    rc = main(["fit", "--input", str(path), "--variants", "cal_S,cal_U", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --variants cal_U needs --totals "
        "(the population count, then each x column total)\n"
    )
    assert not (out / "estimates.csv").exists()


def test_fit_accepts_the_good_rows(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("\n".join(_GOOD_FIT_ROWS + ["e,0.5,1,4.0,3.0"]) + "\n")
    rc = main(["fit", "--input", str(path), "--totals", "20,85", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_fit_target_off_the_span_of_collinear_respondents(tmp_path):
    # The three respondents all have x1 = 4, so their rows (1, 4) span a
    # line. cal_U's target (20, 85) leaves c = (14, 61) off that line: F
    # falls linearly along v = (4, -1), so no solution exists (diverged).
    # cal_S's c = (6, 24) lies on it, and its singular Hessian stays a
    # solver failure that no certificate explains.
    rows = ["unit,pi,r,x1,y", "a,0.5,1,4.0,3.0", "b,0.5,0,5.0,", "c,0.5,1,4.0,2.5", "d,0.5,0,3.0,",
            "e,0.5,1,4.0,3.0", "f,0.5,0,4.0,"]
    path = tmp_path / "units.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert main(["fit", "--input", str(path), "--totals", "20,85", "--out", str(out)]) == 0
    status = {ln.split(",")[0]: ln.split(",")[5] for ln in (out / "estimates.csv").read_text().splitlines()[1:]}
    assert status["cal_U"] == "diverged"
    assert status["cal_S"] == "singular_jacobian"


@pytest.mark.parametrize("command", ["fit", "trace"])
@pytest.mark.parametrize(
    "rows",
    [
        # a constant x column is collinear with the model's constant
        ["unit,pi,r,x1,y", "a,0.5,1,4.0,3.0", "b,0.25,0,4.0,", "c,0.5,1,4.0,2.5", "d,0.2,0,4.0,"],
        # x2 = 2 x1
        ["unit,pi,r,x1,x2,y", "a,0.5,1,4.0,8.0,3.0", "b,0.25,0,5.0,10.0,", "c,0.5,1,3.5,7.0,2.5", "d,0.2,0,4.5,9.0,"],
    ],
)
def test_fit_rejects_collinear_auxiliaries(tmp_path, capsys, command, rows):
    # Collinear auxiliaries are a fault of the data, reported before any
    # fit instead of as a singular_jacobian status of every variant.
    path = tmp_path / "units.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    rc = main([command, "--input", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: the x columns are collinear with each other or the constant: drop the redundant ones\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("y", ["1e308", "1e200"])
def test_fit_overflow_is_one_line_error(tmp_path, capsys, y):
    # y = 1e308 overflows the total, y = 1e200 only its variance (y^2):
    # either is one error line naming the overflow, with no numpy warning
    # and no estimates written.
    rows = [
        "unit,pi,r,x1,y", f"a,0.5,1,4.0,{y}", "b,0.25,0,5.0,", f"c,0.5,1,5.5,{y}", "d,0.2,0,3.5,",
        f"e,0.5,1,3.0,{y}", "f,0.5,0,4.2,",
    ]
    path = tmp_path / "units.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", "--input", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: mle_1: the total or its variance overflows float64 (rescale y)\n"
    assert not (out / "estimates.csv").exists()


@pytest.mark.parametrize("command", ["fit", "trace"])
@pytest.mark.parametrize("x1", ["1e300", "2e160"])
def test_fit_rejects_x_that_overflows(tmp_path, capsys, command, x1):
    # x1 = 1e300 overflows its own square; 2e160 only the sum
    # sum_i x_i x_i'/pi_i (4e320 / pi): either is one error line, given
    # before any fit, with no numpy warning and nothing written.
    rows = [
        "unit,pi,r,x1,y", f"a,0.5,1,{x1},3.0", "b,0.25,0,-4.0,", "c,0.5,1,5.5,2.5", f"d,0.2,0,-{x1},",
        "e,0.5,1,3.0,1.0", "f,0.5,0,4.2,",
    ]
    path = tmp_path / "units.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--input", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: the x columns overflow float64 in sum_i x_i x_i'/pi_i (rescale x)\n"
    assert not out.exists()


def _mostly(valid, bad):
    """valid nineteen times in twenty, else bad."""
    return st.integers(0, 19).flatmap(lambda k: bad if k == 0 else valid)


_PAD = st.sampled_from(["", "", " ", "\t", "  "])
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BAD_NUMBER = st.sampled_from(
    ["abc", "nan", "-nan", "inf", "-Infinity", "1e999", "", " ", "1_0", "0x10", "1.5e", "--1", "\u0663"]
)
_UNIT = st.text(st.sampled_from("abz09_-%#. "), max_size=4)


@st.composite
def _fit_files(draw):
    """Text of a fit file: 1-3 x columns, padded fields, comment and blank
    lines, CRLF or LF endings, bad values, and possibly two ragged rows
    whose field counts cancel out."""
    def pad(cell):
        return draw(_PAD) + cell + draw(_PAD)

    q = draw(st.integers(1, 3))
    names = ["unit", "pi", "r", *(f"x{k}" for k in range(1, q + 1)), "y"]
    lines = [",".join(map(pad, names))]
    for _ in range(draw(st.integers(1, 6))):
        r = draw(_mostly(st.sampled_from(["0", "1", "1.0"]), st.sampled_from(["2", "-1", "0.5", "x"])))
        pi = draw(_mostly(st.floats(0.0, 1.0, exclude_min=True).map(repr), st.sampled_from(["0", "1.5"]) | _BAD_NUMBER))
        xs = [draw(_mostly(_NUMBER, _BAD_NUMBER)) for _ in range(q)]
        blank_y = st.sampled_from(["", " ", "\t"])
        y = draw(_mostly(blank_y | _NUMBER if r == "0" else _NUMBER, blank_y | _BAD_NUMBER))
        lines.append(",".join(map(pad, [draw(_UNIT), pi, r, *xs, y])))
    if len(lines) > 2 and draw(st.integers(0, 4)) == 0:
        i, j = draw(st.lists(st.integers(1, len(lines) - 1), min_size=2, max_size=2, unique=True))
        lines[i] += "," + draw(_NUMBER)
        lines[j] = lines[j].rpartition(",")[0]
    # Blank and comment lines; the last one is data, as # is not in column 1.
    noise = st.sampled_from(["", " ", "\t", "#", "# note, with, commas", "#unit,pi,r,x1,y", " # data"])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _read_or_message(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_fit_files())
def test_columnar_reader_matches_line_reader(tmp_path, text):
    # The columnar reader returns the line-by-line reader's units and
    # arrays bit for bit, or raises its exact message.
    path = tmp_path / "units.csv"
    path.write_bytes(text.encode())
    want = _read_or_message(read_fit_csv_lines, path)
    got = _read_or_message(_read_fit_csv, path)
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@given(rows=st.lists(st.tuples(_UNIT, st.floats()), max_size=30))
def test_weights_rows_match_per_row_formatting(rows):
    units = [u for u, _ in rows]
    weights = np.array([w for _, w in rows])
    want = "".join(f"{u},cal_S,{w:.17g}\n" for u, w in rows)
    assert _weights_csv(units, "cal_S", weights) == want


def test_fit_weights_csv_matches_per_row_formatting(tmp_path):
    # weights.csv byte for byte against the fits redone through the public
    # API and written one f-string per row.
    path = tmp_path / "units.csv"
    _write_fit_csv(path)
    assert main(["fit", "--input", str(path), "--out", str(tmp_path / "o")]) == 0
    units, pi, r, aux, y = read_fit_csv_lines(path)
    mask = r == 1
    want = ["unit,variant,weight\n"]
    for variant in FITTED_VARIANTS:
        if variant is Variant.CAL_U:
            continue
        fit = solve(estimating_equation(variant, aux, pi, r, None))
        record = nwa_estimate(variant, pi[mask], y[mask], fit.p_hat[mask], fit)
        for u, w in zip(np.array(units)[mask], record.weights):
            want.append(f"{u},{variant.value},{w:.17g}\n")
    assert (tmp_path / "o" / "weights.csv").read_bytes() == "".join(want).encode()
