import math

import numpy as np
import pytest
from oracles import calibration_margin, draw_replicates_loop, mle_margin, write_raw_records_loop

from nwacal import (
    GenConfig,
    Population,
    Variant,
    confidence_interval,
    draw_response,
    draw_sample,
    generate_population,
    ht_estimate,
    poisson_design,
    solve,
    srs_design,
    two_phase_estimate,
    var_hat,
)
from nwacal.cli import RunConfig, study_scenarios
from nwacal.estimators import VARIANT_TO_EEKIND, estimating_equation, nwa_estimate
from nwacal.montecarlo import (
    BLOCK,
    STATUS_DEGENERATE,
    STATUS_OK,
    TAG_RESPONSE,
    TAG_SAMPLING,
    ReplicateRecords,
    Scenario,
    _block_seeds,
    _Columns,
    coverage_rate,
    mix_seed,
    relative_bias,
    rrvar,
    run_replicate,
    run_study,
    write_raw_records,
)
from nwacal.response import _draw_replicates


def _scenario(pop, design, reps=50, seed=11):
    return Scenario(population=pop, design=design, reps=reps, master_seed=seed)


def test_mix_seed_deterministic_and_spread():
    a = mix_seed(1, 2, 3)
    assert a == mix_seed(1, 2, 3)
    vals = {mix_seed(5, i, 7) for i in range(1000)}
    assert len(vals) == 1000
    assert all(0 <= v < 2**64 for v in vals)
    assert mix_seed(5, 0, 1) != mix_seed(5, 0, 2)


def test_block_seeds_match_mix_seed():
    for master in (0, 11, 1729, 2**64 - 1, -3, 2**70 + 5):
        for tag in (TAG_SAMPLING, TAG_RESPONSE):
            got = _block_seeds(master, range(200, 457), tag)
            assert got.dtype == np.uint64
            assert got.tolist() == [mix_seed(master, i, tag) for i in range(200, 457)]


def test_replicate_deterministic(study_population, study_srs):
    sc = _scenario(study_population, study_srs)
    a = run_replicate(sc, 3)
    b = run_replicate(sc, 3)
    assert a.n_respondents == b.n_respondents
    for v in sc.variants:
        oa, ob = a.outcomes[v], b.outcomes[v]
        assert oa.status == ob.status
        assert oa.estimate == ob.estimate
        assert oa.v_sam == ob.v_sam
        assert oa.ci == ob.ci


def test_replicates_differ_across_indices(study_population, study_srs):
    sc = _scenario(study_population, study_srs)
    a = run_replicate(sc, 0)
    b = run_replicate(sc, 1)
    assert a.outcomes[Variant.HT].estimate != b.outcomes[Variant.HT].estimate


def test_full_response_population_flags_fitted_variants(study_population, study_srs):
    pop = study_population
    ones = Population(
        aux=pop.aux, y=pop.y, true_lambda=None, true_p=np.ones(pop.size), rho=pop.rho
    )
    sc = _scenario(ones, study_srs)
    rec = run_replicate(sc, 0)
    assert rec.outcomes[Variant.HT].status == STATUS_OK
    assert rec.outcomes[Variant.TRUE_P].status == STATUS_OK
    for v in (Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S):
        assert rec.outcomes[v].status == "diverged"
        assert rec.outcomes[v].estimate is None


def test_respondent_count_near_study_mean(study_population, study_srs):
    sc = _scenario(study_population, study_srs, reps=300)
    counts = [run_replicate(sc, i).n_respondents for i in range(300)]
    # mean respondent count sits near 84 out of n=100
    se = math.sqrt(100 * 0.84 * 0.16 / 300)
    assert abs(np.mean(counts) - 84.0) <= 4.0 * se + 1.0


def test_relative_bias_and_rrvar_two_point_oracle():
    vals = np.array([90.0, 110.0])
    assert relative_bias(vals, 100.0) == 0.0
    assert rrvar(vals, 100.0) == pytest.approx(0.1414213562373095, abs=1e-15)


def test_rrvar_degenerate_cases():
    assert rrvar(np.array([5.0]), 100.0) is None
    assert rrvar(np.array([7.0, 7.0]), 7.0) == 0.0


def test_empty_streams_give_absent_metrics():
    assert relative_bias(np.array([]), 10.0) is None
    assert rrvar(np.array([]), 10.0) is None
    assert coverage_rate([], 10.0) is None


def test_coverage_rate_cases():
    assert coverage_rate([], 10.0) is None
    assert coverage_rate([(9.0, 11.0), (9.5, 10.5)], 10.0) == 1.0
    assert coverage_rate([(11.0, 12.0)], 10.0) == 0.0


def test_identical_estimates_give_zero_spread():
    vals = np.full(10, 42.0)
    assert relative_bias(vals, 42.0) == 0.0
    assert rrvar(vals, 42.0) == 0.0
    assert coverage_rate([(41.0, 43.0)] * 10, 42.0) == 1.0


def test_study_report_deterministic(study_population, study_srs):
    sc = _scenario(study_population, study_srs, reps=40)
    a = run_study(sc)
    b = run_study(sc)
    for v in sc.variants:
        ma, mb = a.metrics[v], b.metrics[v]
        assert ma.rb == mb.rb
        assert ma.rrvar == mb.rrvar
        assert ma.mean_ci_length == mb.mean_ci_length
        assert ma.max_weight == mb.max_weight


def test_parallel_equals_serial(study_population, study_srs):
    sc = _scenario(study_population, study_srs, reps=60)
    serial = run_study(sc, threads=1)
    parallel = run_study(sc, threads=4)
    for v in sc.variants:
        ms, mp_ = serial.metrics[v], parallel.metrics[v]
        assert ms.rb == mp_.rb
        assert ms.rrvar == mp_.rrvar
        assert ms.variance_rb == mp_.variance_rb
        assert ms.coverage == mp_.coverage
        assert ms.max_weight == mp_.max_weight
        assert ms.failure_rate == mp_.failure_rate


def test_failure_accounting_excludes_per_variant(study_population):
    # Poisson + population-level calibration fails on some replicates; those
    # replicates still contribute to every other variant.
    pop = study_population
    design = poisson_design(pop, 100.0)
    sc = _scenario(pop, design, reps=150, seed=5)
    report, records = run_study(sc, return_records=True)
    m = report.metrics[Variant.CAL_U]
    assert m.n_ok + m.n_failed == 150
    assert report.metrics[Variant.CAL_S].failure_rate == 0.0
    assert report.metrics[Variant.HT].n_ok == 150
    failed = [r for r in records if not r.outcomes[Variant.CAL_U].ok]
    if failed:
        assert failed[0].outcomes[Variant.HT].estimate is not None


def test_unbiasedness_of_reference_estimators(small_population):
    design = srs_design(small_population.size, 30)
    sc = _scenario(small_population, design, reps=800, seed=8)
    report = run_study(sc, threads=2)
    Y = small_population.total
    for v in (Variant.HT, Variant.TRUE_P):
        m = report.metrics[v]
        se_rel = m.rrvar / math.sqrt(m.n_ok)
        assert abs(m.rb) <= 4.0 * se_rel


def test_write_raw_records_round_trip(tmp_path, study_population, study_srs):
    sc = _scenario(study_population, study_srs, reps=5)
    report, records = run_study(sc, return_records=True)
    path = tmp_path / "raw.csv"
    write_raw_records(path, records, header_comment="seed=11")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1] == "replicate,variant,estimate,v_sam,v_nr,ci_low,ci_high,max_w,status"
    assert len(lines) == 2 + 5 * len(sc.variants)
    cells = lines[2].split(",")
    est = records[0].outcomes[Variant.HT].estimate
    assert float(cells[2]) == est  # 17 significant digits round-trip
    with pytest.raises(TypeError, match="return_records=True"):
        write_raw_records(path, list(records))


def test_raw_csv_matches_the_record_writer(tmp_path, study_population):
    # The column writer prints the bytes of the per-record writer: on a
    # Poisson study with cal_U failures, and on hand-made columns with every
    # quirk of the format (a fitted ok row with NaN variances and no
    # interval, an infinite estimate, no respondents, failed fits).
    sc = _scenario(study_population, poisson_design(study_population, 100.0), reps=150, seed=5)
    _, records = run_study(sc, return_records=True)
    assert any(not r.outcomes[Variant.CAL_U].ok for r in records)
    nan, inf = math.nan, math.inf
    values = np.full((3, 6, 6), nan)
    values[:, 0] = [1.5, nan, nan, nan, nan, 10.0]
    values[:, 1] = [0.0, nan, nan, nan, nan, nan]
    values[0, 2] = [2.0, nan, nan, nan, nan, 3.25]
    values[0, 3] = [-inf, 1.0, 2.0, -inf, nan, 4.0]
    values[1, 2] = [inf, 1.0, 2.0, nan, inf, 5.0]
    values[1, 3] = [1 / 3, 0.1, 0.2, 0.0, 2 / 3, nan]
    status = np.zeros((3, 6), dtype=np.int8)
    status[2, 2:] = [1, 2, 3, 4]
    hand = ReplicateRecords(sc.variants, _Columns(np.full(3, 9), np.full(3, 5), status, values, np.ones((3, 6), int)))
    for i, recs in enumerate((records, hand)):
        write_raw_records(tmp_path / f"new{i}.csv", recs, header_comment="seed=5")
        write_raw_records_loop(tmp_path / f"old{i}.csv", recs, header_comment="seed=5")
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()
    assert ",nan,nan,,," in (tmp_path / "new1.csv").read_text()


def test_scenario_validation(study_population, study_srs):
    with pytest.raises(ValueError):
        Scenario(population=study_population, design=study_srs, reps=0, master_seed=1)
    small = generate_population(GenConfig(N=50, seed=1))
    with pytest.raises(ValueError):
        Scenario(population=small, design=study_srs, reps=5, master_seed=1)


_FIELDS = ("estimate", "v_sam", "v_nr", "ci_low", "ci_high", "max_w")


def _scalar_replicate(scenario, index):
    """One replicate through the public step API: per variant the status,
    iterations and (estimate, v_sam, v_nr, ci_low, ci_high, max_w)."""
    pop, design = scenario.population, scenario.design
    sample = draw_sample(design, mix_seed(scenario.master_seed, index, TAG_SAMPLING))
    p_s = pop.true_p[sample.indices]
    resp = draw_response(sample, p_s, mix_seed(scenario.master_seed, index, TAG_RESPONSE))
    x_s, y_s, mask = pop.aux[sample.indices], pop.y[sample.indices], resp.resp_mask
    ht = ht_estimate(sample.pi_s, y_s)
    true_p = two_phase_estimate(sample.pi_s[mask], p_s[mask], y_s[mask])
    out = {
        Variant.HT: (STATUS_OK, 0, (ht, None, None, None, None, float(np.max(1.0 / sample.pi_s)))),
        Variant.TRUE_P: (
            STATUS_OK, 0,
            (true_p, None, None, None, None, float(np.max(1.0 / (sample.pi_s * p_s)[mask]))),
        ),
    }
    for variant in (Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S):
        if mask.sum() < pop.n_aux:
            out[variant] = (STATUS_DEGENERATE, 0, None)
            continue
        eq = estimating_equation(variant, x_s, sample.pi_s, resp.r, pop.aux.sum(axis=0))
        fit = solve(eq, scenario.controls)
        if not fit.converged:
            out[variant] = (fit.status.value, fit.iterations, None)
            continue
        pi_r, y_r, p_hat_r = sample.pi_s[mask], y_s[mask], fit.p_hat[mask]
        est = nwa_estimate(variant, pi_r, y_r, p_hat_r, fit)
        ve = var_hat(variant, design, pi_r, x_s[mask], y_r, p_hat_r)
        lo, hi = confidence_interval(est.value, ve.total) or (None, None)
        values = (est.value, ve.v_sam, ve.v_nr, lo, hi, float(np.max(est.weights)))
        out[variant] = (STATUS_OK, fit.iterations, values)
    return out


@pytest.fixture(scope="module")
def study_cells():
    return study_scenarios(RunConfig(reps=BLOCK + BLOCK // 2))


@pytest.mark.parametrize("cell", range(6))
def test_block_engine_matches_scalar_step_api(study_cells, cell):
    design_name, rho, scenario = study_cells[cell]
    _, records = run_study(scenario, return_records=True)
    statuses = set()
    for rec in records:
        for variant, (status, iterations, values) in _scalar_replicate(scenario, rec.index).items():
            o = rec.outcomes[variant]
            statuses.add((variant, status))
            assert (o.status, o.iterations) == (status, iterations), (rec.index, variant)
            if values is None:
                assert o.estimate is None
                continue
            lo, hi = o.ci if o.ci is not None else (None, None)
            got = (o.estimate, o.v_sam, o.v_nr, lo, hi, o.max_weight)
            for name, g, w in zip(_FIELDS, got, values):
                assert (g is None) == (w is None), (rec.index, variant, name)
                assert g == pytest.approx(w, rel=1e-10, nan_ok=True), (rec.index, variant, name)
    if (design_name, rho) == ("poisson", 0.6):
        # The replicates include cal_U fits that solve reports diverged.
        assert (Variant.CAL_U, "diverged") in statuses


def test_study_identical_for_any_worker_count_across_blocks(
    tmp_path, study_population, study_poisson
):
    sc = _scenario(study_population, study_poisson, reps=2 * BLOCK + 7, seed=3)
    outputs = []
    for threads in (1, 2, 3):
        report, records = run_study(sc, threads=threads, return_records=True)
        path = tmp_path / f"raw{threads}.csv"
        write_raw_records(path, records)
        outputs.append((report, path.read_bytes()))
    assert [r.index for r in records] == list(range(2 * BLOCK + 7))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _seeds(scenario, indices):
    return [
        (mix_seed(scenario.master_seed, i, TAG_SAMPLING), mix_seed(scenario.master_seed, i, TAG_RESPONSE))
        for i in indices
    ]


def _draw_scenario(cell):
    """A study cell at 300 replicates; "large-srs" and "poisson-20000" (20
    replicates at N=20000, n=2000); "srs-N-n" (64 replicates); or
    "srs-block-B" and "poisson-block-B" (study cells 0 and 3 at B
    replicates)."""
    if isinstance(cell, int):
        return study_scenarios(RunConfig(reps=300))[cell][2]
    if cell in ("large-srs", "poisson-20000"):
        pop = generate_population(GenConfig(N=20_000, rho=0.6, seed=5))
        design = srs_design(20_000, 2_000) if cell == "large-srs" else poisson_design(pop, 2_000.0)
        return _scenario(pop, design, reps=20, seed=9)
    kind, size, arg = cell.split("-")
    if size == "block":
        return study_scenarios(RunConfig(reps=int(arg)))[0 if kind == "srs" else 3][2]
    N, n = int(size), int(arg)
    return _scenario(generate_population(GenConfig(N=N, rho=0.6, seed=5)), srs_design(N, n), reps=64, seed=9)


@pytest.mark.parametrize(
    "cell",
    [
        *range(6), "large-srs",
        "srs-1000-1", "srs-1000-999", "srs-150-120", "poisson-20000",
        "srs-block-1", "srs-block-63", "srs-block-65",
        "poisson-block-1", "poisson-block-63", "poisson-block-65",
    ],
)
def test_draw_kernel_matches_per_replicate_draws(cell):
    # The block kernel draws every replicate's units and r bit for bit as
    # the old per-replicate loop and the public draw_sample -> draw_response:
    # 300 replicates of each study cell, 20 of SRSWOR at N=20000, n=2000.
    # The other cases take the shuffle to its edges (n=1, n=N-1, and
    # N=150, n=120, where most steps land on displaced positions), a large
    # Poisson cell, and blocks of 1, 63 and 65 replicates.
    scenario = _draw_scenario(cell)
    pop, design = scenario.population, scenario.design
    seeds = _seeds(scenario, range(scenario.reps))
    units, r, sizes = _draw_replicates(design, pop.true_p, seeds)
    want = draw_replicates_loop(design, pop.true_p, seeds)
    for got, ref in zip((units, r, sizes), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    samples = [draw_sample(design, s) for s, _ in seeds]
    responses = [draw_response(x, pop.true_p[x.indices], t) for x, (_, t) in zip(samples, seeds)]
    assert np.array_equal(units, np.concatenate([x.indices for x in samples]))
    assert np.array_equal(r, np.concatenate([resp.r for resp in responses]))


@pytest.mark.parametrize("cell", range(6))
def test_fit_status_matches_lp_margin(cell):
    # Every converged fit of the first 256 replicates has a finite solution
    # and every diverged one has none, by linear programs that share no code
    # with the solver: the calibration margin, and for the MLE kinds the
    # margin of the signed rows (both MLE kinds share it).
    _, _, scenario = study_scenarios(RunConfig(reps=256))[cell]
    pop, design = scenario.population, scenario.design
    _, records = run_study(scenario, return_records=True)
    for rec, (s, t) in zip(records, _seeds(scenario, range(256))):
        sample = draw_sample(design, s)
        resp = draw_response(sample, pop.true_p[sample.indices], t)
        margins = {}
        for variant, kind in VARIANT_TO_EEKIND.items():
            status = rec.outcomes[variant].status
            if status == STATUS_DEGENERATE:
                continue
            assert status in (STATUS_OK, "diverged"), (rec.index, variant, status)
            eq = estimating_equation(
                variant, pop.aux[sample.indices], sample.pi_s, resp.r, pop.aux.sum(axis=0)
            )
            if kind.value.startswith("mle"):
                margin = margins.setdefault("mle", mle_margin(eq))
            else:
                margin = calibration_margin(eq)[0]
            assert (margin > 0.0) == (status == STATUS_OK), (rec.index, variant, status, margin)
