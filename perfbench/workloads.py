"""The benchmark's workloads: seeded inputs, the ``nwacal`` argv, and the
checks that every output of an invocation is correct.

Inputs depend only on the seed. Seeds are derived the way ``nwacal.cli``
derives them, so the benchmark can rebuild any population, design or
replicate the program used and recompute it through the public step API.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nwacal.cli import STUDY_DESIGNS, STUDY_RHOS, TAG_SCENARIO
from nwacal.designs import draw_sample, poisson_design, srs_design
from nwacal.estimators import Variant, ht_estimate, nwa_estimate, two_phase_estimate
from nwacal.montecarlo import TAG_POPULATION, TAG_RESPONSE, TAG_SAMPLING, mix_seed
from nwacal.population import GenConfig, generate_population
from nwacal.response import draw_response
from nwacal.solvers import EstimatingEquation, SolverControls, solve
from nwacal.variance import (
    confidence_interval,
    theoretical_variance,
    var_hat_calS,
    var_hat_calU,
    var_hat_ht,
    var_hat_mle,
)

NPROC = len(os.sched_getaffinity(0))

# Sizes of each workload; one invocation takes about 1-3 s on a 2-core box.
STUDY_N, STUDY_n, STUDY_REPS = 1000, 100, 50
LARGE_N, LARGE_n, LARGE_RHO, LARGE_REPS = 20_000, 2_000, 0.6, 20
FIT_N, FIT_n, FIT_RHO = 2_000_000, 200_000, 0.6

FITTED = ("mle_1", "mle_invpi", "cal_U", "cal_S")
REL_TOL_RECOMPUTED = 1e-9
REL_TOL_PAIR_TERM = 1e-9
REL_TOL_CALIBRATION = 1e-8
# Over 400 seeds (4800 rows) of paper-study the largest |rb|/SE was 3.96, and
# |rb|/SE > 3.5 came up 5 times where a normal tail gives 2.2: the Poisson
# design's 1/pi weights skew the 50-replicate mean. 5 SE keeps false alarms
# rare and still catches a 5% bias.
RB_STANDARD_ERRORS = 5.0


@dataclass(frozen=True)
class Cell:
    """One population and design the program builds, with its replicate seed."""

    design: str
    N: int
    n: int
    rho: float
    pop_seed: int
    master_seed: int
    reps: int

    def build(self):
        pop = generate_population(GenConfig(N=self.N, rho=self.rho, seed=self.pop_seed))
        design = srs_design(self.N, self.n) if self.design == "srs" else poisson_design(pop, float(self.n))
        return pop, design


@dataclass
class Prepared:
    """A workload's inputs at one seed."""

    args: list[str]
    cells: list[Cell]
    replicates: int
    fit_data: dict | None = None
    _built: dict = field(default_factory=dict)

    def argv(self, out: Path, threads: int) -> list[str]:
        return [*self.args, "--out", str(out), *(["--threads", str(threads)] if self.cells else [])]

    @property
    def command(self) -> str:
        return self.args[0]

    def built(self, cell: Cell):
        if cell not in self._built:
            self._built[cell] = cell.build()
        return self._built[cell]

    def raw_paths(self, out: Path) -> list[tuple[Cell, Path]]:
        if self.command == "scenario":
            return [(self.cells[0], out / "raw.csv")]
        return [(c, out / f"raw_{c.design}_rho{c.rho:.4g}.csv") for c in self.cells]

    def fit_counts(self, out: Path) -> tuple[int, int]:
        """(attempted, not converged) over every fitted variant of the outputs."""
        if self.fit_data is not None:
            statuses = [row[5] for row in _csv_rows(out / "estimates.csv")]
            return len(statuses), sum(s != "converged" for s in statuses)
        attempted = failed = 0
        for _, path in self.raw_paths(out):
            for row in _csv_rows(path):
                if row[1] in FITTED:
                    attempted += 1
                    failed += row[8] != "ok"
        return attempted, failed

    def check(self, out: Path) -> list[str]:
        """Every correctness check that applies to the workload's outputs."""
        if self.fit_data is not None:
            return _check_fit(out, self.fit_data)
        errors = []
        for cell, path in self.raw_paths(out):
            errors += _check_replicates(path, cell, *self.built(cell))
        if self.command == "study":
            rows = [(r[0], float(r[1]), r[2], r[3]) for r in _csv_rows(out / "table2.csv")]
        else:
            cell = self.cells[0]
            rows = [(cell.design, cell.rho, r[0], r[3]) for r in _csv_rows(out / "report.csv")]
        errors += _check_unbiased(rows, self)
        if self.command == "scenario":
            errors += _check_pair_term(self.cells[0], *self.built(self.cells[0]))
        return errors


#: Worker count of each workload.
WORKLOADS = {"paper-study": 1, "paper-study-par": NPROC, "large-srs": 1, "fit-large": 1}


def prepare(name: str, seed: int, work: Path) -> Prepared:
    """Generate the workload's inputs for ``seed`` under ``work``."""
    if name in ("paper-study", "paper-study-par"):
        cells = []
        for design in STUDY_DESIGNS:
            for rho_index, rho in enumerate(STUDY_RHOS):
                cells.append(Cell(design, STUDY_N, STUDY_n, rho,
                                  mix_seed(seed, rho_index, TAG_POPULATION),
                                  mix_seed(seed, len(cells), TAG_SCENARIO), STUDY_REPS))
        args = ["study", "--emit-raw", "--seed", str(seed), "--reps", str(STUDY_REPS)]
        return Prepared(args, cells, STUDY_REPS * len(cells))
    if name == "large-srs":
        config = work / "large-srs.cfg"
        config.write_text(
            f"N = {LARGE_N}\nn = {LARGE_n}\nrho = {LARGE_RHO}\nreps = {LARGE_REPS}\nseed = {seed}\n"
        )
        cell = Cell("srs", LARGE_N, LARGE_n, LARGE_RHO,
                    mix_seed(seed, STUDY_RHOS.index(LARGE_RHO), TAG_POPULATION),
                    mix_seed(seed, 0, TAG_SCENARIO), LARGE_REPS)
        args = ["scenario", "--config", str(config), "--design", "srs", "--emit-raw"]
        return Prepared(args, [cell], LARGE_REPS)
    if name == "fit-large":
        data = _fit_input(seed, work / "fit-large.csv")
        args = ["fit", "--input", str(work / "fit-large.csv"), "--totals", data["totals_arg"],
                "--variants", ",".join(FITTED)]
        return Prepared(args, [], 1, fit_data=data)
    raise ValueError(f"unknown workload {name!r}")


def _fit_input(seed: int, path: Path) -> dict:
    pop = generate_population(GenConfig(N=FIT_N, rho=FIT_RHO, seed=mix_seed(seed, TAG_POPULATION)))
    design = poisson_design(pop, float(FIT_n))
    sample = draw_sample(design, mix_seed(seed, TAG_SAMPLING))
    resp = draw_response(sample, pop.true_p[sample.indices], mix_seed(seed, TAG_RESPONSE))
    units = sample.indices
    x = pop.aux[units]
    y = pop.y[units]
    r = resp.r
    rows = ["unit,pi,r,x1,y"]
    for u, p, ri, x1, yi in zip(units.tolist(), sample.pi_s.tolist(), r.tolist(), x[:, 1].tolist(), y.tolist()):
        rows.append(f"{u},{p!r},{ri},{x1!r},{yi!r}" if ri else f"{u},{p!r},0,{x1!r},")
    path.write_text("\n".join(rows) + "\n")
    totals = [float(FIT_N), math.fsum(pop.aux[:, 1])]
    return {
        "units": units, "pi": sample.pi_s, "r": r, "x": x, "y": y, "totals": totals,
        "totals_arg": ",".join(repr(t) for t in totals),
    }


# ---------------------------------------------------------------- outputs


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def recompute_replicate(pop, design, master_seed: int, index: int) -> dict[str, list]:
    """One replicate through the public step API: per variant the raw-CSV
    fields estimate, v_sam, v_nr, ci_low, ci_high, max_w and status."""
    controls = SolverControls()
    sample = draw_sample(design, mix_seed(master_seed, index, TAG_SAMPLING))
    p_s = pop.true_p[sample.indices]
    resp = draw_response(sample, p_s, mix_seed(master_seed, index, TAG_RESPONSE))
    x_s, y_s, pi_s, r = pop.aux[sample.indices], pop.y[sample.indices], sample.pi_s, resp.r
    mask = resp.resp_mask
    x_r, y_r, pi_r, p_r = x_s[mask], y_s[mask], pi_s[mask], p_s[mask]
    out = {
        "ht": [ht_estimate(pi_s, y_s), None, None, None, None, float(np.max(1.0 / pi_s)), "ok"],
        "p": [two_phase_estimate(pi_r, p_r, y_r), None, None, None, None,
              float(np.max(1.0 / (pi_r * p_r))) if mask.any() else None, "ok"],
    }
    equations = {
        "mle_1": (EstimatingEquation.mle(x_s, pi_s, r, survey_weighted=False),
                  lambda p: var_hat_mle(design, pi_r, x_r, y_r, p, survey_weighted=False)),
        "mle_invpi": (EstimatingEquation.mle(x_s, pi_s, r, survey_weighted=True),
                      lambda p: var_hat_mle(design, pi_r, x_r, y_r, p, survey_weighted=True)),
        "cal_U": (EstimatingEquation.cal_population(x_s, pi_s, r, pop.aux.sum(axis=0)),
                  lambda p: var_hat_calU(design, pi_r, x_r, y_r, p)),
        "cal_S": (EstimatingEquation.cal_sample(x_s, pi_s, r),
                  lambda p: var_hat_calS(design, pi_r, x_r, y_r, p)),
    }
    for name, (eq, variance) in equations.items():
        if mask.sum() < pop.n_aux:
            out[name] = [None] * 6 + ["degenerate"]
            continue
        fit = solve(eq, controls)
        if not fit.converged:
            out[name] = [None] * 6 + [fit.status.value]
            continue
        p_hat_r = fit.p_hat[mask]
        est = nwa_estimate(Variant(name), pi_r, y_r, p_hat_r, fit)
        ve = variance(p_hat_r)
        ci = confidence_interval(est.value, ve.total) if math.isfinite(ve.total) else None
        lo, hi = ci if ci is not None else (None, None)
        out[name] = [est.value, ve.v_sam, ve.v_nr, lo, hi, float(np.max(est.weights)), "ok"]
    return out


def _check_replicates(path: Path, cell: Cell, pop, design) -> list[str]:
    rows = {(int(r[0]), r[1]): r[2:] for r in _csv_rows(path)}
    errors = []
    if len(rows) != 6 * cell.reps:
        errors.append(f"{path.name}: {len(rows)} rows, expected {6 * cell.reps}")
    for index in sorted({0, cell.reps // 2, cell.reps - 1}):
        for variant, want in recompute_replicate(pop, design, cell.master_seed, index).items():
            got = rows.get((index, variant))
            if got is None:
                errors.append(f"{path.name}: replicate {index} {variant} missing")
                continue
            if got[6] != want[6]:
                errors.append(f"{path.name}: replicate {index} {variant} status {got[6]} != {want[6]}")
            for field_name, g, w in zip(("estimate", "v_sam", "v_nr", "ci_low", "ci_high", "max_w"), got, want):
                if (g == "") != (w is None) or (w is not None and not _close(float(g), w, REL_TOL_RECOMPUTED)):
                    errors.append(f"{path.name}: replicate {index} {variant} {field_name} {g!r} != {w!r}")
    return errors


def _check_unbiased(rows, prep: Prepared) -> list[str]:
    """|rb| of the HT and true-p estimators within RB_STANDARD_ERRORS
    standard errors, the standard error taken from the exact variance oracle."""
    cells = {(c.design, round(c.rho, 6)): c for c in prep.cells}
    errors = []
    seen = 0
    for design, rho, variant, rb in rows:
        if variant not in ("ht", "p"):
            continue
        seen += 1
        cell = cells[(design, round(rho, 6))]
        pop, des = prep.built(cell)
        v = theoretical_variance(pop, des, Variant(variant)).total
        se = math.sqrt(v / cell.reps) / pop.total
        # rb is printed with 4 significant digits
        if abs(float(rb)) > RB_STANDARD_ERRORS * se + 5e-4 * abs(float(rb)):
            errors.append(f"{design} rho={rho} {variant}: |rb|={rb} exceeds {RB_STANDARD_ERRORS} SE = {RB_STANDARD_ERRORS * se:.3g}")
    if seen != 2 * len(prep.cells):
        errors.append(f"expected ht and p rows for {len(prep.cells)} cells, found {seen}")
    return errors


def _check_pair_term(cell: Cell, pop, design) -> list[str]:
    """SRSWOR pair term of var_hat_ht against the O(m) closed form
    c * ((sum u)^2 - sum u^2)."""
    sample = draw_sample(design, mix_seed(cell.master_seed, 0, TAG_SAMPLING))
    pi_s, y_s = sample.pi_s, pop.y[sample.indices]
    single = float(np.sum((1.0 - pi_s) / pi_s**2 * y_s**2))
    pair = var_hat_ht(design, pi_s, y_s) - single
    N, n = cell.N, float(cell.n)
    pi_ij = n * (n - 1.0) / (N * (N - 1.0))
    c = (pi_ij - (n / N) ** 2) / pi_ij
    u = (y_s / pi_s).tolist()
    closed = c * (math.fsum(u) ** 2 - math.fsum(v * v for v in u))
    if not _close(pair, closed, REL_TOL_PAIR_TERM):
        return [f"SRSWOR pair term {pair!r} != closed form {closed!r}"]
    return []


def _check_fit(out: Path, data: dict) -> list[str]:
    errors = []
    estimates = {row[0]: row for row in _csv_rows(out / "estimates.csv")}
    weights: dict[str, list] = {v: [] for v in FITTED}
    units: dict[str, list] = {v: [] for v in FITTED}
    with (out / "weights.csv").open() as fh:
        next(fh)
        for line in fh:
            unit, variant, w = line.split(",")
            units[variant].append(int(unit))
            weights[variant].append(float(w))
    mask = data["r"] == 1
    resp_units = data["units"][mask]
    x_r, y_r = data["x"][mask], data["y"][mask]
    targets = {
        "cal_U": data["totals"],
        "cal_S": [math.fsum((data["x"][:, k] / data["pi"]).tolist()) for k in range(data["x"].shape[1])],
    }
    for variant in FITTED:
        row = estimates.get(variant)
        if row is None or row[5] != "converged":
            errors.append(f"fit {variant}: not converged ({row})")
            continue
        if not np.array_equal(np.asarray(units[variant]), resp_units):
            errors.append(f"fit {variant}: weights.csv units differ from the respondents")
            continue
        w = np.asarray(weights[variant])
        total = math.fsum((w * y_r).tolist())
        if not _close(float(row[1]), total, REL_TOL_RECOMPUTED):
            errors.append(f"fit {variant}: value {row[1]} != sum(w*y) {total!r}")
        if variant in targets:
            for k, t in enumerate(targets[variant]):
                got = math.fsum((w * x_r[:, k]).tolist())
                if not _close(got, t, REL_TOL_CALIBRATION):
                    errors.append(f"fit {variant}: sum(w*x{k}) {got!r} != target {t!r}")
    return errors
