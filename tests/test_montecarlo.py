import math

import numpy as np
import pytest
from conftest import assert_pool_ran
from oracles import calibration_margin, draw_replicates_loop, mle_margin, write_raw_records_loop

from nwacal import (
    DesignKind,
    GenConfig,
    Population,
    Variant,
    confidence_interval,
    draw_response,
    draw_sample,
    generate_population,
    ht_estimate,
    montecarlo,
    poisson_design,
    Stack,
    solve,
    srs_design,
    two_phase_estimate,
    var_hat,
)
from nwacal.cli import RunConfig, study_scenarios
from nwacal.estimators import (
    FITTED_VARIANTS,
    estimating_equation,
    linearized_block,
    nwa_estimate,
)
from nwacal.montecarlo import (
    BLOCK_UNITS,
    STATUS_DEGENERATE,
    STATUS_OK,
    STATUSES,
    TAG_RESPONSE,
    TAG_SAMPLING,
    VARIANTS,
    ReplicateColumns,
    Scenario,
    _block_seeds,
    _stack_draws,
    block_replicates,
    coverage_rate,
    linearization_gap,
    mix_seed,
    relative_bias,
    rrvar,
    run_study,
    write_raw_records,
)
from nwacal.response import _draw_replicates


def _scenario(pop, design, reps=50, seed=11):
    return Scenario(population=pop, design=design, reps=reps, master_seed=seed)


def _replicates(scenario):
    return run_study(scenario)[1]


HT, CAL_U = VARIANTS.index(Variant.HT), VARIANTS.index(Variant.CAL_U)


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
    sc = _scenario(study_population, study_srs, reps=5)
    a, b = _replicates(sc), _replicates(sc)
    for field, x, y in zip(ReplicateColumns._fields, a, b):
        assert np.array_equal(x[3], y[3], equal_nan=True), field
    assert np.isfinite(a.values[3, HT, 0])


def test_replicates_differ_across_indices(study_population, study_srs):
    cols = _replicates(_scenario(study_population, study_srs, reps=2))
    assert cols.values[0, HT, 0] != cols.values[1, HT, 0]


def test_full_response_population_flags_fitted_variants(study_population, study_srs):
    pop = study_population
    ones = Population(aux=pop.aux, y=pop.y, true_p=np.ones(pop.size))
    cols = _replicates(_scenario(ones, study_srs, reps=1))
    assert cols.n_respondents[0] == cols.n_sampled[0] == 100
    for vi, v in enumerate(VARIANTS):
        status, estimate = STATUSES[cols.status[0, vi]], cols.values[0, vi, 0]
        if v in (Variant.HT, Variant.TRUE_P):
            assert status == STATUS_OK and np.isfinite(estimate), v
        else:
            assert status == "diverged" and np.isnan(cols.values[0, vi]).all(), v


def test_respondent_count_near_study_mean(study_population, study_srs):
    counts = _replicates(_scenario(study_population, study_srs, reps=300)).n_respondents
    assert counts.shape == (300,)
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
    a, _ = run_study(sc)
    b, _ = run_study(sc)
    for v in VARIANTS:
        ma, mb = a[v], b[v]
        assert ma.rb == mb.rb
        assert ma.rrvar == mb.rrvar
        assert ma.mean_ci_length == mb.mean_ci_length
        assert ma.max_weight == mb.max_weight


def test_parallel_equals_serial(study_population, study_srs, pool_tasks):
    sc = _scenario(study_population, study_srs, reps=2 * block_replicates(study_srs) + 7)
    serial, _ = run_study(sc, threads=1)
    assert pool_tasks() == [(False, 0, 3)]
    parallel, _ = run_study(sc, threads=4)
    assert_pool_ran(pool_tasks(), 3)
    for v in VARIANTS:
        ms, mp_ = serial[v], parallel[v]
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
    metrics, cols = run_study(sc)
    m = metrics[Variant.CAL_U]
    assert metrics[Variant.CAL_S].failure_rate == 0.0
    assert metrics[Variant.HT].n_ok == 150
    failed = cols.status[:, CAL_U] != STATUSES.index(STATUS_OK)
    assert failed.sum() == 150 - m.n_ok > 0
    assert m.failure_rate == failed.sum() / 150
    assert np.isfinite(cols.values[failed, HT, 0]).all()


def test_unbiasedness_of_reference_estimators(small_population, pool_tasks):
    design = srs_design(small_population.size, 30)
    sc = _scenario(small_population, design, reps=800, seed=8)
    n_blocks = -(-sc.reps // block_replicates(design))
    metrics, _ = run_study(sc, threads=2)
    assert_pool_ran(pool_tasks(), n_blocks)
    Y = small_population.total
    for v in (Variant.HT, Variant.TRUE_P):
        m = metrics[v]
        se_rel = m.rrvar / math.sqrt(m.n_ok)
        assert abs(m.rb) <= 4.0 * se_rel


def test_write_raw_records_round_trip(tmp_path, study_population, study_srs):
    sc = _scenario(study_population, study_srs, reps=5)
    cols = _replicates(sc)
    path = tmp_path / "raw.csv"
    write_raw_records(path, cols, "seed=11")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1] == "replicate,variant,estimate,v_sam,v_nr,ci_low,ci_high,max_w,status"
    assert len(lines) == 2 + 5 * len(VARIANTS)
    cells = lines[2].split(",")
    assert float(cells[2]) == cols.values[0, HT, 0]  # 17 significant digits round-trip
    with pytest.raises(TypeError, match="the ReplicateColumns of run_study"):
        write_raw_records(path, tuple(cols), "seed=11")


def test_raw_csv_matches_the_record_writer(tmp_path, study_population):
    # The column writer prints the bytes of the per-record writer: on a
    # Poisson study with cal_U failures, and on hand-made columns with every
    # quirk of the format (a fitted ok row with NaN variances and no
    # interval, an infinite estimate, no respondents, failed fits).
    sc = _scenario(study_population, poisson_design(study_population, 100.0), reps=150, seed=5)
    cols = _replicates(sc)
    assert (cols.status[:, CAL_U] != STATUSES.index(STATUS_OK)).any()
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
    hand = ReplicateColumns(np.full(3, 9), np.full(3, 5), status, values, np.ones((3, 6), int))
    for i, recs in enumerate((cols, hand)):
        write_raw_records(tmp_path / f"new{i}.csv", recs, "seed=5")
        write_raw_records_loop(tmp_path / f"old{i}.csv", recs, "seed=5")
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()
    assert ",nan,nan,,," in (tmp_path / "new1.csv").read_text()


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_raw_csv_chunks_match_the_record_writer(tmp_path, monkeypatch, study_population, chunk):
    # 150 replicates span several chunks, the last one partial unless the
    # chunk is 1; the replicate numbers carry on across chunk boundaries.
    cols = _replicates(_scenario(study_population, poisson_design(study_population, 100.0), reps=150, seed=5))
    monkeypatch.setattr(montecarlo, "_RAW_CHUNK", chunk)
    write_raw_records(tmp_path / "new.csv", cols, "seed=5")
    write_raw_records_loop(tmp_path / "old.csv", cols, "seed=5")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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


#: The step-API comparisons run the study cells (n = 100) in blocks of 64
#: replicates, at a unit budget of their own, so that 96 replicates span two
#: blocks whatever BLOCK_UNITS is.
SMALL_BUDGET = 6_400


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_UNITS", SMALL_BUDGET)


@pytest.fixture(scope="module")
def study_cells():
    return study_scenarios(RunConfig(reps=96))


@pytest.mark.parametrize("cell", range(6))
def test_block_engine_matches_scalar_step_api(study_cells, cell, small_blocks):
    design_name, rho, scenario = study_cells[cell]
    assert block_replicates(scenario.design) == 64
    cols = _replicates(scenario)
    statuses = set()
    for i in range(scenario.reps):
        for variant, (status, iterations, values) in _scalar_replicate(scenario, i).items():
            vi = VARIANTS.index(variant)
            statuses.add((variant, status))
            assert (STATUSES[cols.status[i, vi]], cols.iterations[i, vi]) == (status, iterations), (i, variant)
            if values is None:
                assert np.isnan(cols.values[i, vi]).all(), (i, variant)
                continue
            for name, g, w in zip(_FIELDS, cols.values[i, vi].tolist(), values):
                w = math.nan if w is None else w
                assert g == pytest.approx(w, rel=1e-10, nan_ok=True), (i, variant, name)
    if (design_name, rho) == ("poisson", 0.6):
        # The replicates include cal_U fits that solve reports diverged.
        assert (Variant.CAL_U, "diverged") in statuses


@pytest.mark.parametrize("cell", [0, 3])
def test_respondent_stack_holds_each_equations_respondents(study_cells, cell, small_blocks):
    # The engine's sample stack: row b must be replicate b's public draws
    # (x, pi, y, true p and r) in sample order. solve_block takes a
    # calibration equation's rows from its respondent stack: row b must be
    # eq.x[eq.r == 1] of replicate b's step-API equation, with its pi, y
    # and true p, in sample order. Both stacks end in padding rows x = 0,
    # pi = 1, y = 0, p = 1 (and r = 0) that add exact zeros. Stack.of_one,
    # the stack that solve and fit take, holds each field's real rows.
    _, _, scenario = study_cells[cell]
    pop, design, seed = scenario.population, scenario.design, scenario.master_seed
    indices = range(block_replicates(design), scenario.reps)
    st = _stack_draws(scenario, indices)
    assert st.r.dtype == bool
    for b, index in enumerate(indices):
        sample = draw_sample(design, mix_seed(seed, index, TAG_SAMPLING))
        resp = draw_response(sample, pop.true_p[sample.indices], mix_seed(seed, index, TAG_RESPONSE))
        eq = estimating_equation(Variant.CAL_S, pop.aux[sample.indices], sample.pi_s, resp.r)
        keep = eq.r == 1
        y, p = pop.y[sample.indices], pop.true_p[sample.indices]
        for n_b, width, valid, rows in (
            (st.n_s, st.valid.shape[1], st.valid,
             ((st.x, eq.x, 0.0), (st.pi, eq.pi, 1.0), (st.y, y, 0.0), (st.p, p, 1.0), (st.r, keep, False))),
            (st.n_r, st.valid_r.shape[1], st.valid_r,
             ((st.x_r, eq.x[keep], 0.0), (st.pi_r, eq.pi[keep], 1.0), (st.y_r, y[keep], 0.0), (st.p_r, p[keep], 1.0))),
        ):
            m = len(rows[0][1])
            assert (n_b[b], width) == (m, n_b.max()), index
            assert valid[b].tolist() == [True] * m + [False] * (width - m), index
            for got, want, fill in rows:
                assert np.array_equal(got[b, :m], want), index
                assert np.all(got[b, m:] == fill), index
        one = Stack.of_one(eq.x, eq.pi, eq.r, y)
        for name, got, want in zip(Stack._fields, one, st):
            if name in ("p", "p_r"):
                assert got is None  # of_one knows no true probabilities
            elif name in ("n_s", "n_r"):
                assert got.tolist() == [want[b]], (index, name)
            else:
                m = (st.n_r if name.endswith("_r") else st.n_s)[b]
                assert np.array_equal(got, want[b, None, :m]), (index, name)
    # The sample stack of a Poisson cell has padding rows to check.
    assert design.kind is DesignKind.SRSWOR or not st.valid.all()


@pytest.mark.parametrize("cell", range(6))
def test_linearized_block_matches_linearized_estimate(study_cells, cell, small_blocks):
    # The stacked linearized estimator on the engine's padded draws against
    # an unpadded stack of one on the public draws of each replicate.
    _, _, scenario = study_cells[cell]
    pop, design, seed = scenario.population, scenario.design, scenario.master_seed
    size = block_replicates(design)
    for start in range(0, scenario.reps, size):
        indices = range(start, min(start + size, scenario.reps))
        st = _stack_draws(scenario, indices)
        for variant in (Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S):
            got = linearized_block(variant, pop, st.x, st.y, st.pi, st.p, st.r)
            for b, index in enumerate(indices):
                sample = draw_sample(design, mix_seed(seed, index, TAG_SAMPLING))
                resp = draw_response(sample, pop.true_p[sample.indices], mix_seed(seed, index, TAG_RESPONSE))
                idx = sample.indices
                want = linearized_block(
                    variant, pop, pop.aux[idx][None], pop.y[idx][None], sample.pi_s[None],
                    pop.true_p[idx][None], resp.r[None],
                )[0]
                assert got[b] == pytest.approx(want, rel=1e-12, abs=0.0), (index, variant)


@pytest.fixture
def block_draws(monkeypatch):
    """The replicates of each _draw_replicates call since the fixture began."""
    draws = []
    draw = montecarlo._draw_replicates

    def counted(design, p, seeds):
        draws.append(len(seeds))
        return draw(design, p, seeds)

    monkeypatch.setattr(montecarlo, "_draw_replicates", counted)
    return draws


def test_linearization_gap_draws_each_block_once(block_draws, study_population, study_srs):
    size = block_replicates(study_srs)
    scenario = Scenario(population=study_population, design=study_srs, reps=2 * size + 7, master_seed=3)
    gaps = linearization_gap(scenario, (Variant.MLE_K1, Variant.CAL_U, Variant.CAL_S))
    assert block_draws == [size, size, 7]
    assert set(gaps) == {Variant.MLE_K1, Variant.CAL_U, Variant.CAL_S}


@pytest.mark.parametrize("n", [100, 2_000])
def test_blocks_hold_a_budget_of_sampled_units(block_draws, n):
    # A block holds BLOCK_UNITS // n replicates at the design's expected
    # sample size n: 200 at the study's n = 100 and 10 at n = 2,000 under
    # the budget of 20,000 units, so its arrays take about the same memory
    # at either size. run_study and linearization_gap cut the same blocks.
    pop = generate_population(GenConfig(N=10 * n, rho=0.6, seed=5))
    design = srs_design(pop.size, n) if n == 100 else poisson_design(pop, float(n))
    size = BLOCK_UNITS // n
    assert block_replicates(design) == size
    scenario = _scenario(pop, design, reps=2 * size + 3, seed=4)
    run_study(scenario)
    study_draws = block_draws[:]
    linearization_gap(scenario, (Variant.CAL_S,))
    assert study_draws == [size, size, 3]
    assert block_draws == study_draws * 2


def test_block_replicates_depend_on_the_design_alone(study_population):
    # At least one replicate, however large the sample; the expected size
    # of a Poisson design need not be a whole number.
    assert block_replicates(srs_design(study_population.size, 999)) == BLOCK_UNITS // 999
    assert block_replicates(srs_design(BLOCK_UNITS + 2, BLOCK_UNITS + 1)) == 1
    assert block_replicates(poisson_design(study_population, 62.5)) == int(BLOCK_UNITS // 62.5)


def test_run_study_holds_no_copy_of_the_population():
    # The tracemalloc peak of run_study on one block of 3 SRSWOR replicates
    # of n = 50 from N = 200,000 units (q = 2), bounded by one float column
    # of the population, N 8 bytes = 1.6 MB. The block's stacks hold 150
    # sampled units at (q + 3) 8 bytes each for x, pi, y and the true p;
    # its fits, estimates and variances take a few times that, the O(m^2)
    # pair terms included: about 0.05 MB in all. A run that copies the
    # population's columns aux, pi, y and true p, N (q + 3) 8 = 8 MB, or
    # any one of them, exceeds the bound.
    import tracemalloc

    N = 200_000
    pop = generate_population(GenConfig(N=N, rho=0.6, seed=5))
    scenario = _scenario(pop, srs_design(N, 50), reps=3, seed=7)
    run_study(scenario)
    tracemalloc.start()
    try:
        run_study(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * 8, peak / (N * 8)


def test_study_identical_for_any_worker_count_across_blocks(
    tmp_path, study_population, study_poisson, pool_tasks
):
    reps = 2 * block_replicates(study_poisson) + 7
    sc = _scenario(study_population, study_poisson, reps=reps, seed=3)
    outputs = []
    for threads in (1, 2, 3):
        metrics, cols = run_study(sc, threads=threads)
        tasks = pool_tasks()
        if threads == 1:
            assert tasks == [(False, 0, 3)]
        else:
            assert_pool_ran(tasks, 3)
        path = tmp_path / f"raw{threads}.csv"
        write_raw_records(path, cols, "seed=3")
        outputs.append((metrics, path.read_bytes()))
    assert cols.status.shape == (reps, len(VARIANTS))
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
    cols = _replicates(scenario)
    for i, (s, t) in enumerate(_seeds(scenario, range(256))):
        sample = draw_sample(design, s)
        resp = draw_response(sample, pop.true_p[sample.indices], t)
        margins = {}
        for variant in FITTED_VARIANTS:
            status = STATUSES[cols.status[i, VARIANTS.index(variant)]]
            if status == STATUS_DEGENERATE:
                continue
            assert status in (STATUS_OK, "diverged"), (i, variant, status)
            eq = estimating_equation(
                variant, pop.aux[sample.indices], sample.pi_s, resp.r, pop.aux.sum(axis=0)
            )
            if variant in (Variant.MLE_K1, Variant.MLE_KINVPI):
                margin = margins.setdefault("mle", mle_margin(eq))
            else:
                margin = calibration_margin(eq)[0]
            assert (margin > 0.0) == (status == STATUS_OK), (i, variant, status, margin)
