import dataclasses
import math
import os
import re
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
    _unit_cells,
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


@pytest.mark.parametrize("mu", [(1e200, 4.0), (4.0, -(2.0**54)), (2.0**53, 2.0**53)])
def test_mu_past_unit_resolution_rejected(tmp_path, capsys, mu):
    # Where mu + 1 == mu, every unit-variance draw rounds away and every
    # fitted variant fails without a cause: the key is refused instead.
    message = "mu: values must be below 2^53 in magnitude, where mu + 1 != mu in float64"
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(mu=mu)
    path = tmp_path / "cfg.txt"
    path.write_text(f"mu = {mu[0]!r},{mu[1]!r}\n")
    rc = main(["scenario", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # The largest magnitude still resolved is accepted.
    assert RunConfig(mu=(2.0**53 - 1.0, -(2.0**53 - 1.0))).mu[0] == 2.0**53 - 1.0


@pytest.mark.parametrize(
    "config", ["lam = -800,0", "lam = 0.1,-200", "mu = 4,3000\nlam = 0.1,-0.4"], ids=lambda c: c.replace("\n", ", ")
)
def test_lam_whose_probabilities_underflow_names_its_key(tmp_path, capsys, config):
    # A logit below about -709.8 gives a response probability of exactly 0.
    path = tmp_path / "cfg.txt"
    path.write_text(config + "\n")
    rc = main(["scenario", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: lam: some unit's response probability underflows to 0\n"


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


def _fit_columns():
    """pi, r, x1 and y of the tests' 40-row fit input."""
    rng = np.random.default_rng(3)
    n = 40
    x1 = rng.normal(4, 1, n)
    pi = rng.uniform(0.2, 0.8, n)
    p = 1 / (1 + np.exp(-(0.1 + 0.4 * x1)))
    r = (rng.random(n) < p).astype(int)
    y = 2.0 + 0.7 * x1 + rng.normal(0, 0.4, n)
    return pi, r, x1, y


def _write_fit_csv(path, columns=None):
    pi, r, x1, y = _fit_columns() if columns is None else columns
    lines = ["unit,pi,r,x1,y"]
    for i in range(len(pi)):
        y_cell = f"{y[i]:.17g}" if r[i] == 1 else ""
        lines.append(f"u{i},{pi[i]:.17g},{r[i]},{x1[i]:.17g},{y_cell}")
    path.write_text("\n".join(lines) + "\n")


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
        built.append((cfg.rho, generate(cfg)))
        return built[-1][1]

    monkeypatch.setattr(cli, "generate_population", counted)
    cells = study_scenarios(RunConfig(reps=10))
    assert [rho for rho, _ in built] == [0.6, 0.3, 0.0]
    assert [(d, rho) for d, rho, _ in cells] == [(d, rho) for d in ("srs", "poisson") for rho in (0.6, 0.3, 0.0)]
    for k in range(3):
        srs, poisson = cells[k][2], cells[k + 3][2]
        assert srs.population is poisson.population
        # Each cell's population is the one generated at the cell's rho.
        assert built[k][0] == cells[k][1] and built[k][1] is srs.population
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


@pytest.mark.parametrize("config", [
    # Poisson samples that can be empty: an empty sample is degenerate, never
    # fitted, and none of its totals is divided.
    "design = poisson\nn = 1",
    "design = poisson\nN = 5\nn = 2",
    # Each key near its edge.
    "N = 2\nn = 1",
    "N = 10\nn = 9",
    "design = poisson\nn = 999",
    "lam = 50,50",
    "lam = -50,0",
    "lam = 0,-30",
    "lam = 700,0",
    # 2^53 - 1: the largest mu accepted (mu = 1e200 is refused).
    "mu = 9007199254740991,9007199254740991",
    "rho = 0.9999999999",
    "max_iter = 1",
    "tol = 1e-300",
    "seed = 18446744073709551615",
], ids=lambda config: config.replace("\n", ", "))
def test_scenario_at_the_edges_runs_without_a_warning(tmp_path, config):
    path = tmp_path / "run.cfg"
    path.write_text(config + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["scenario", "--config", str(path), "--reps", "40", "--out", str(out), "--emit-raw"])
    assert rc == 0
    rows = [line.split(",") for line in (out / "raw.csv").read_text().splitlines()[2:]]
    assert len(rows) == 40 * 6
    if config.startswith("design = poisson\nN = 5"):
        # An empty sample's ht total is 0.
        assert ["ht", "0"] in [row[1:3] for row in rows]


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


def _fit_edges():
    """The 40-row input with one column at an edge: each edge's name, its
    columns (pi, r, x1, y) and the x scale, for --totals."""
    pi, r, x1, y = _fit_columns()
    first, some = np.arange(len(pi)) == 0, np.arange(len(pi)) % 3 == 0
    return {
        "pi_5e-324": ((np.where(first, 5e-324, pi), r, x1, y), 1.0),
        "pi_1e-300": ((np.where(first, 1e-300, pi), r, x1, y), 1.0),
        "pi_1_on_some": ((np.where(some, 1.0, pi), r, x1, y), 1.0),
        "pi_1_on_all": ((np.ones_like(pi), r, x1, y), 1.0),
        "x_times_2^500": ((pi, r, x1 * 2.0**500, y), 2.0**500),
        "x_times_2^-500": ((pi, r, x1 * 2.0**-500, y), 2.0**-500),
        "one_respondent": ((pi, first.astype(int), x1, y), 1.0),
        "all_respondents": ((pi, np.ones_like(r), x1, y), 1.0),
        "no_respondents": ((pi, np.zeros_like(r), x1, y), 1.0),
        "constant_y": ((pi, r, x1, np.full_like(y, 3.0)), 1.0),
        "y_times_1e300": ((pi, r, x1, y * 1e300), 1.0),
    }


# The edges that fit refuses, with the one line it prints; every other edge
# exits 0.
_FIT_EDGE_ERRORS = {
    # x_1 x_1'/pi_1 overflows
    "pi_5e-324": "the x columns overflow float64 in sum_i x_i x_i'/pi_i (rescale x)",
    # (1 - pi_1)/pi_1^2 in the variance overflows: the error names the unit
    "pi_1e-300": "mle_1: the variance overflows float64 at unit u0, whose pi = 1e-300 is below about 1e-154 ((1 - pi)/pi^2 overflows)",
    "y_times_1e300": "mle_1: the total or its variance overflows float64 (rescale y)",
}


@pytest.mark.parametrize("totals", [False, True])
@pytest.mark.parametrize("edge", list(_fit_edges()))
def test_fit_at_the_file_edges_exits_cleanly(tmp_path, capsys, edge, totals):
    # With numpy's warnings as errors, fit either writes outputs that are
    # finite, or nan where the README says (value and max_weight of a fit
    # that did not converge; the variance terms that need gamma, and the
    # interval, when n_r < q), or prints one error line and no traceback.
    columns, scale = _fit_edges()[edge]
    path = tmp_path / "units.csv"
    _write_fit_csv(path, columns)
    out = tmp_path / "o"
    argv = ["fit", "--input", str(path), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + (["--totals", f"120,{485.0 * scale!r}"] if totals else []))
    err = capsys.readouterr().err
    if edge in _FIT_EDGE_ERRORS:
        assert (rc, err) == (1, f"error: {_FIT_EDGE_ERRORS[edge]}\n")
        return
    assert (rc, err) == (0, "")
    estimates = [ln.split(",") for ln in (out / "estimates.csv").read_text().splitlines()[1:]]
    assert len(estimates) == 3 + totals
    n_r, q = int(estimates[0][3]), 2
    converged = set()
    for variant, value, n, _, max_w, status, iterations in estimates:
        assert int(n) == 40 and int(iterations) >= 0
        if status == "converged":
            converged.add(variant)
            assert math.isfinite(float(value)) and float(max_w) > 0.0
        else:
            assert (value, max_w) == ("nan", "nan")
    for variant, *fields in (ln.split(",") for ln in (out / "variance.csv").read_text().splitlines()[1:]):
        assert variant in converged
        v_sam, *rest = map(float, fields)
        assert math.isfinite(v_sam)
        assert all(math.isfinite(v) for v in rest) or (n_r < q and all(math.isnan(v) for v in rest))
    # Every weight is 1/(pi p_hat) with pi <= 1 and p_hat < 1: at least 1,
    # the range the weights.csv kernel lays out from digits. pi = 1 on every
    # row is the edge that comes closest.
    weights = [float(ln.split(",")[2]) for ln in (out / "weights.csv").read_text().splitlines()[1:]]
    assert all(math.isfinite(w) and w >= 1.0 for w in weights)


def _mostly(valid, bad):
    """valid nineteen times in twenty, else bad."""
    return st.integers(0, 19).flatmap(lambda k: bad if k == 0 else valid)


_PAD = st.sampled_from(["", "", " ", "\t", "  ", "\x1f", "\u3000"])
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BAD_NUMBER = st.sampled_from(
    ["abc", "nan", "-nan", "inf", "-Infinity", "1e999", "", " ", "1_0", "0x10", "1.5e", "--1", "\u0663"]
)
_UNIT = st.text(st.sampled_from("abz09_-%#. \xe9\u00a0\u4e2d\U0001f600"), max_size=4)
# Every line boundary of str.splitlines; read_text turns "\r" and "\r\n" into "\n".
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])


@st.composite
def _fit_files(draw):
    """Text of a fit file: 1-3 x columns, padded fields, comment and blank
    lines, every str.splitlines line boundary, non-ASCII units, blank and
    whitespace-only y, bad values, and possibly two ragged rows whose field
    counts cancel out."""
    def pad(cell):
        return draw(_PAD) + cell + draw(_PAD)

    q = draw(st.integers(1, 3))
    names = ["unit", "pi", "r", *(f"x{k}" for k in range(1, q + 1)), "y"]
    lines = [",".join(map(pad, names))]
    for _ in range(draw(st.integers(1, 6))):
        r = draw(_mostly(st.sampled_from(["0", "1", "1.0"]), st.sampled_from(["2", "-1", "0.5", "x"])))
        pi = draw(_mostly(st.floats(0.0, 1.0, exclude_min=True).map(repr), st.sampled_from(["0", "1.5"]) | _BAD_NUMBER))
        xs = [draw(_mostly(_NUMBER, _BAD_NUMBER)) for _ in range(q)]
        blank_y = st.sampled_from(["", " ", "\t", "\x1f", "\xa0", "\u3000 "])
        y = draw(_mostly(blank_y | _NUMBER if r == "0" else _NUMBER, blank_y | _BAD_NUMBER))
        lines.append(",".join(map(pad, [draw(_UNIT), pi, r, *xs, y])))
    if len(lines) > 2 and draw(st.integers(0, 4)) == 0:
        i, j = draw(st.lists(st.integers(1, len(lines) - 1), min_size=2, max_size=2, unique=True))
        lines[i] += "," + draw(_NUMBER)
        lines[j] = lines[j].rpartition(",")[0]
    # Blank and comment lines; the last one is data, as # is not in column 1.
    noise = st.sampled_from(["", " ", "\t", "\x1f", "\u3000", "#", "# note, with, commas", "#unit,pi,r,x1,y", " # data"])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    ends = [draw(_LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(map(str.__add__, lines, ends))


def _read_or_message(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_fit_files())
def test_fit_reader_matches_per_line_oracle(tmp_path, text):
    # _read_fit_csv returns the units and arrays of the oracle that splits
    # and converts each line on its own, bit for bit, or raises its exact
    # message.
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


# Units of any text, and some longer than the canvas takes (64 UTF-8 bytes).
@given(rows=st.lists(st.tuples(_UNIT | st.text(max_size=3) | st.text(min_size=60, max_size=70), st.floats()), max_size=30))
def test_weights_rows_match_per_row_formatting(rows):
    units = [u for u, _ in rows]
    weights = np.array([w for _, w in rows])
    want = "".join(f"{u},cal_S,{w:.17g}\n" for u, w in rows)
    assert _weights_csv(units, _unit_cells(units), "cal_S", weights) == want


def _kernel_cases():
    """Doubles for the weights.csv kernel: random bit patterns over the whole
    range, each 10^k and its neighbours, exact ties of the 17th digit, and
    0, -0, NaN, inf and subnormals, then more of [1, 1e17), where every
    weight fit writes lies."""
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    fixed = rng.uniform(-4.0, 17.0, 100_000)
    fixed = 10.0**fixed * rng.choice([-1.0, 1.0], fixed.size)
    powers = np.array([float(f"1e{k}") for k in range(-5, 19)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # Halves of the 17th digit, .25 and .75 at 1e15, .125 to .875 at 1e14:
    # the digits round half to even.
    ties = np.concatenate([1e15 + np.arange(400) / 4 + 0.25, 1e14 + np.arange(400) / 8 + 0.125])
    special = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1e-310, 1e-4, 1e17])
    inside = 10.0 ** rng.uniform(0.0, 17.0, 30_000)
    cases = np.concatenate([bits, fixed, powers, ties, special, inside])
    return np.concatenate([cases, -cases])


def test_weights_kernel_matches_percent_17g():
    weights = _kernel_cases()
    units = [f"u{i}" for i in range(weights.size)]
    want = "".join(f"{u},mle_1,{w:.17g}\n" for u, w in zip(units, weights.tolist()))
    assert _weights_csv(units, _unit_cells(units), "mle_1", weights) == want
    # Every value in [1, 1e17) is fixed notation, and the kernel lays it
    # out from its digits; the rest go through %.17g.
    fixed = (weights >= 1.0) & (weights < 1e17)
    assert all("e" not in f"{w:.17g}" for w in weights[fixed].tolist())
    assert fixed.sum() > 100_000


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
