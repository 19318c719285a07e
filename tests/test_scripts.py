import importlib.util
import json
import sys
from pathlib import Path

import nwacal.cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_linearization_diagnostic_prints_one_gap_line_per_variant(capsys):
    script = _load("linearization_diagnostic")
    assert script.main(["--reps", "30", "--sizes", "60,120"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "median |plug-in - linearized| / N over 30 replicates"
    assert lines[1].split() == ["variant", "n=60", "n=120"]
    rows = [ln.split() for ln in lines[2:]]
    assert [row[0] for row in rows] == ["mle_1", "cal_U", "cal_S"]
    for row in rows:
        gaps = [float(v) for v in row[1:]]
        assert len(gaps) == 2 and all(0.0 < g < 1.0 for g in gaps), row


def test_block_footprint_prints_each_stage(capsys):
    # The engine's own block: BLOCK_UNITS // n replicates of n sampled units.
    from nwacal.montecarlo import BLOCK_UNITS

    script = _load("block_footprint")
    assert script.main(["--N", "2000", "--n", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reps = BLOCK_UNITS // 200
    assert lines[0] == f"one block of {reps} replicates, {reps * 200} sampled units: srs N=2000 n=200 rho=0.6 seed=3000"
    assert lines[1].split() == ["stage", "traced_peak_mb", "minflt"]
    rows = [ln.split() for ln in lines[2:7]]
    assert [row[0] for row in rows] == ["population", "design", "draws", "fit_evaluate", "fit_warm"]
    for _, peak, faults in rows:
        assert float(peak) > 0.0 and int(faults) >= 0
    # The population's own arrays, aux (N, 2), y and true_p, are 4 N floats.
    assert float(rows[0][1]) >= 4 * 2000 * 8 / 2**20
    key, rss = lines[7].split()
    assert key == "ru_maxrss_mb" and float(rss) > 0.0
    assert len(lines) == 8


def test_benchmark_names_stay_bound(monkeypatch):
    # perfbench/workloads.py imports nwacal names, and the benchmark times a
    # study by wrapping the names nwacal.cli binds (perfbench/layers.py):
    # us_per_replicate is the time inside cli.run_study over the replicates.
    # Deleting a name workloads.py imports breaks every benchmark run; a name
    # cli no longer binds records no time and would read as a speed-up.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    importlib.import_module("workloads")
    sys.modules.pop("workloads")
    for name in ("run_study", "write_raw_records", "generate_population", "srs_design", "poisson_design"):
        assert callable(getattr(nwacal.cli, name, None)), name


def test_fit_stages_prints_each_stage(capsys):
    script = _load("fit_stages")
    assert script.main(["--N", "2000", "--n", "200", "--runs", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["N"], result["n"], result["runs"]) == (2000, 200, 1)
    stages = [result[k] for k in ("read", "solve", "evaluate", "write")]
    assert all(s > 0.0 for s in stages)
    assert sum(stages) <= result["main"]
    assert result["ru_maxrss_mb"] > 0.0
