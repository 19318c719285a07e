import math

import numpy as np
import pytest
from oracles import gamma_normal_equations

from nwacal import (
    EstimatingEquation,
    FitNotConvergedError,
    FitResult,
    FitStatus,
    GenConfig,
    Population,
    Variant,
    draw_response,
    draw_sample,
    estimating_equation,
    gamma,
    generate_population,
    ht_estimate,
    linearized_block,
    nwa_estimate,
    solve,
    srs_design,
    two_phase_estimate,
    var_hat,
    var_hat_block,
)
from nwacal.montecarlo import mix_seed


def _converged_dummy_fit(p_hat):
    return FitResult(
        lambda_hat=np.zeros(2),
        p_hat=np.asarray(p_hat, dtype=float),
        status=FitStatus.CONVERGED,
        iterations=0,
        residual_norm=0.0,
    )


def test_ht_census_is_exact(small_population):
    pi = np.ones(small_population.size)
    assert ht_estimate(pi, small_population.y) == pytest.approx(
        small_population.total, rel=1e-14
    )


def test_ht_srs_constant_weights(small_population):
    d = srs_design(200, 20)
    s = draw_sample(d, 0)
    y_s = small_population.y[s.indices]
    assert ht_estimate(s.pi_s, y_s) == pytest.approx(10.0 * y_s.sum(), rel=1e-14)


def test_ht_monte_carlo_unbiased(small_population):
    d = srs_design(200, 20)
    reps = 10_000
    vals = np.empty(reps)
    for seed in range(reps):
        s = draw_sample(d, seed)
        vals[seed] = ht_estimate(s.pi_s, small_population.y[s.indices])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - small_population.total) <= 4.0 * se


def test_two_phase_full_response_equals_ht(small_population):
    d = srs_design(200, 20)
    s = draw_sample(d, 1)
    y_s = small_population.y[s.indices]
    got = two_phase_estimate(s.pi_s, np.ones(s.size), y_s)
    assert got == ht_estimate(s.pi_s, y_s)


def test_two_phase_single_respondent_hand_value():
    assert two_phase_estimate([0.5], [0.8], [2.0]) == pytest.approx(5.0, abs=1e-15)


def test_two_phase_zero_probability_rejected():
    with pytest.raises(ValueError):
        two_phase_estimate([0.5], [0.0], [2.0])


def test_two_phase_monte_carlo_unbiased(small_population):
    d = srs_design(200, 20)
    reps = 10_000
    vals = np.empty(reps)
    for seed in range(reps):
        s = draw_sample(d, mix_seed(3, seed, 1))
        p_s = small_population.true_p[s.indices]
        resp = draw_response(s, p_s, mix_seed(3, seed, 2))
        mask = resp.resp_mask
        vals[seed] = two_phase_estimate(
            s.pi_s[mask], p_s[mask], small_population.y[s.indices][mask]
        )
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - small_population.total) <= 4.0 * se


def test_nwa_with_unit_probabilities_reduces_to_ht(small_population):
    d = srs_design(200, 20)
    s = draw_sample(d, 2)
    y_s = small_population.y[s.indices]
    fit = _converged_dummy_fit(np.ones(s.size))
    rec = nwa_estimate(Variant.CAL_S, s.pi_s, y_s, fit.p_hat, fit)
    assert rec.value == ht_estimate(s.pi_s, y_s)
    assert np.all(rec.weights > 0)


def test_nwa_refuses_unconverged_fit():
    bad = FitResult(
        lambda_hat=np.zeros(2),
        p_hat=np.full(3, 0.5),
        status=FitStatus.DIVERGED,
        iterations=50,
        residual_norm=1.0,
    )
    with pytest.raises(FitNotConvergedError):
        nwa_estimate(Variant.CAL_U, np.full(3, 0.5), np.ones(3), bad.p_hat, bad)


def _gamma_over_u(pop):
    # Calibration's population-level system reads no pi.
    return gamma(Variant.CAL_U, pop.aux, pop.y, 1.0, pop.true_p, "U")


def _linear_population(seed=15, N=300, beta=(2.0, 0.75)):
    pop = generate_population(GenConfig(N=N, seed=seed))
    y = pop.aux @ np.asarray(beta)
    return Population(aux=pop.aux, y=y, true_p=pop.true_p)


def test_calibration_transfer_exact_for_linear_y():
    # With y in the span of the auxiliaries, the population-level calibration
    # total reproduces beta . sum_U x and the sample-level one the HT total.
    beta = np.array([2.0, 0.75])
    pop = _linear_population(beta=tuple(beta))
    d = srs_design(pop.size, 40)
    s = draw_sample(d, 5)
    resp = draw_response(s, pop.true_p[s.indices], 6)
    x_s = pop.aux[s.indices]
    y_s = pop.y[s.indices]
    mask = resp.resp_mask

    fit_u = solve(EstimatingEquation.cal_population(x_s, s.pi_s, resp.r, pop.aux.sum(axis=0)))
    assert fit_u.converged
    rec_u = nwa_estimate(Variant.CAL_U, s.pi_s[mask], y_s[mask], fit_u.p_hat[mask], fit_u)
    assert rec_u.value == pytest.approx(float(beta @ pop.aux.sum(axis=0)), rel=1e-8)

    fit_s = solve(EstimatingEquation.cal_sample(x_s, s.pi_s, resp.r))
    assert fit_s.converged
    rec_s = nwa_estimate(Variant.CAL_S, s.pi_s[mask], y_s[mask], fit_s.p_hat[mask], fit_s)
    assert rec_s.value == pytest.approx(ht_estimate(s.pi_s, y_s), rel=1e-8)


def test_estimate_value_permutation_invariant(small_population):
    d = srs_design(200, 30)
    s = draw_sample(d, 7)
    y_s = small_population.y[s.indices]
    p_hat = np.linspace(0.5, 0.9, s.size)
    fit = _converged_dummy_fit(p_hat)
    rec = nwa_estimate(Variant.MLE_K1, s.pi_s, y_s, p_hat, fit)
    perm = np.random.default_rng(0).permutation(s.size)
    rec_p = nwa_estimate(Variant.MLE_K1, s.pi_s[perm], y_s[perm], p_hat[perm], fit)
    assert rec.value == pytest.approx(rec_p.value, rel=1e-14)


def test_gamma_recovers_exact_linear_fit():
    beta = np.array([1.5, -0.5])
    pop = _linear_population(beta=tuple(beta))
    gamma = _gamma_over_u(pop)
    assert np.allclose(gamma, beta, atol=1e-10)


def test_gamma_constant_p_equals_unweighted_solution():
    rng = np.random.default_rng(8)
    n = 12
    x = np.column_stack([np.ones(n), rng.normal(4, 1, n)])
    y = rng.normal(4, 1, n)
    pop = Population(aux=x, y=y, true_p=np.full(n, 0.7))
    gamma = _gamma_over_u(pop)
    unweighted = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.allclose(gamma, unweighted, atol=1e-12)


def test_gamma_small_instance_cramer_oracle():
    rng = np.random.default_rng(9)
    N = 8
    x = np.column_stack([np.ones(N), rng.normal(4, 1, N)])
    y = rng.normal(4, 1, N)
    p = rng.uniform(0.5, 0.9, N)
    pop = Population(aux=x, y=y, true_p=p)
    gamma = _gamma_over_u(pop)
    # Cramer's rule on the 2x2 weighted normal equations.
    w = 1.0 - p
    a11 = np.sum(w * x[:, 0] * x[:, 0])
    a12 = np.sum(w * x[:, 0] * x[:, 1])
    a22 = np.sum(w * x[:, 1] * x[:, 1])
    b1 = np.sum(w * x[:, 0] * y)
    b2 = np.sum(w * x[:, 1] * y)
    det = a11 * a22 - a12 * a12
    oracle = np.array([(b1 * a22 - b2 * a12) / det, (a11 * b2 - a12 * b1) / det])
    assert np.allclose(gamma, oracle, atol=1e-10)


def test_gamma_singular_system_flagged():
    x = np.column_stack([np.ones(4), np.full(4, 2.0)])
    pop = Population(aux=x, y=np.ones(4), true_p=np.full(4, 0.5))
    assert np.isnan(_gamma_over_u(pop)).all()


def test_stacked_normal_equations_share_the_solver_singular_rule():
    # One stack of gamma systems: an exactly collinear (rank-1) system, padded
    # like a replicate of a block, all-zero weights, non-finite entries in the
    # matrix and in the right-hand side, then well-conditioned systems. A bare
    # "pivot > 0" Cholesky test solves the collinear system to [1.6e-16, 0.5].
    rng = np.random.default_rng(3)
    B, n = 12, 20
    x = np.ones((B, n, 2))
    x[..., 1] = rng.normal(4.0, 1.0, (B, n))
    w = rng.uniform(0.2, 2.0, (B, n))
    y = rng.normal(size=(B, n))
    x[0], w[0], y[0] = 0.0, 0.0, 0.0
    x[0, :4], w[0, :4], y[0, :4] = [1.0, 2.0], 0.5, 1.0
    w[1] = 0.0
    x[2, 3, 1] = np.nan
    y[3, 5] = np.inf
    # cal_S at level "S" with pi = 1 weighs both sides by 1 - p.
    p = 1.0 - w
    g = gamma(Variant.CAL_S, x, y, 1.0, p, "S")
    assert np.isnan(g[:4]).all()
    for b in range(4, B):
        wb = 1.0 - p[b]
        a = (x[b].T * wb) @ x[b]
        want = np.linalg.solve(a, (wb * y[b]) @ x[b])
        tol = 1e-13 * np.linalg.cond(a) * np.abs(want).max()
        assert np.all(np.abs(g[b] - want) <= tol), b


def test_gamma_coefficients_bundle(study_population, study_srs):
    # the sample coefficient approximates the population one
    pop = study_population
    s = draw_sample(study_srs, 40)
    p_s = pop.true_p[s.indices]
    gamma_calU_n = _gamma_over_u(pop)
    gamma_calS_n = gamma(Variant.CAL_S, pop.aux[s.indices], pop.y[s.indices], s.pi_s, p_s, "S")
    assert np.allclose(gamma_calS_n, gamma_calU_n, atol=0.5)


@pytest.mark.parametrize("level", ["U", "S", "S_r"])
@pytest.mark.parametrize("variant", [Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S])
def test_gamma_matches_the_paper_normal_equations(study_population, study_poisson, variant, level):
    # Unequal pi (Poisson) and, over S_r, a fitted p_hat, against the scalar
    # sums of tests/oracles.py; one system alone and in a padded stack.
    pop = study_population
    s = draw_sample(study_poisson, 40)
    if level == "U":
        x, y, pi, p = pop.aux, pop.y, study_poisson.pi, pop.true_p
    elif level == "S":
        x, y, pi, p = pop.aux[s.indices], pop.y[s.indices], s.pi_s, pop.true_p[s.indices]
    else:
        x_s, pi_s = pop.aux[s.indices], s.pi_s
        resp = draw_response(s, pop.true_p[s.indices], 41)
        fit = solve(EstimatingEquation.cal_sample(x_s, pi_s, resp.r))
        mask = resp.resp_mask
        x, y, pi, p = x_s[mask], pop.y[s.indices][mask], pi_s[mask], fit.p_hat[mask]
    want = gamma_normal_equations(variant, x, y, pi, p, level)
    got = gamma(variant, x, y, pi, p, level)
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)

    def pad(a, v):
        return np.concatenate([a, np.full((3, *a.shape[1:]), v)])[None]

    stacked = gamma(variant, pad(x, 0.0), pad(y, 0.0), pad(pi, 1.0), pad(p, 1.0), level)[0]
    assert np.allclose(stacked, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("variant", [Variant.HT, Variant.TRUE_P])
def test_unfitted_variants_have_no_variance_or_linearization(study_population, study_srs, variant):
    pop = study_population
    s = draw_sample(study_srs, 50)
    resp = draw_response(s, pop.true_p[s.indices], 51)
    x, y, pi, p = pop.aux[s.indices], pop.y[s.indices], s.pi_s, pop.true_p[s.indices]
    calls = (
        lambda: var_hat(variant, study_srs, pi, x, y, p),
        lambda: var_hat_block(variant, study_srs, pi[None], x[None], y[None], p[None]),
        lambda: linearized_block(variant, pop, x[None], y[None], pi[None], p[None], resp.r[None].astype(float)),
        lambda: linearized_block(variant, pop, x[None], y[None], pi[None], p[None], resp.r[None], coef=np.ones(2)),
        lambda: gamma(variant, x, y, pi, p, "S"),
        # Nor an estimating equation: EstimatingEquation takes a fitted variant.
        lambda: EstimatingEquation(variant, x, pi, resp.r, np.zeros(2)),
        lambda: estimating_equation(variant, x, pi, resp.r, pop.aux.sum(axis=0)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"variant {variant.value} fits no response model"):
            call()


def test_linearized_cal_U_exact_for_linear_y():
    pop = _linear_population()
    d = srs_design(pop.size, 40)
    s = draw_sample(d, 10)
    resp = draw_response(s, pop.true_p[s.indices], 11)
    idx = s.indices
    got = linearized_block(
        Variant.CAL_U, pop, pop.aux[idx][None], pop.y[idx][None], s.pi_s[None], pop.true_p[idx][None], resp.r[None]
    )[0]
    assert got == pytest.approx(pop.total, rel=1e-10)


def test_linearized_full_response_equals_ht(small_population):
    # With p == 1 injected and everyone responding, the correction term keeps
    # only the HT sum, whatever gamma is used (the data-driven gamma system is
    # degenerate at p == 1, so pass one explicitly).
    pop = small_population
    ones = Population(aux=pop.aux, y=pop.y, true_p=np.ones(pop.size))
    d = srs_design(pop.size, 40)
    s = draw_sample(d, 12)
    resp = draw_response(s, np.ones(s.size), 13)
    idx = s.indices
    x, y, pi, p, r = pop.aux[idx][None], pop.y[idx][None], s.pi_s[None], ones.true_p[idx][None], resp.r[None]
    ht = ht_estimate(s.pi_s, pop.y[s.indices])
    for coef in (np.zeros(2), np.array([1.5, -2.0])):
        for variant in (Variant.CAL_S, Variant.MLE_K1, Variant.MLE_KINVPI):
            got = linearized_block(variant, ones, x, y, pi, p, r, coef=coef)[0]
            assert got == pytest.approx(ht, rel=1e-10)


def test_linearized_gap_shrinks_with_sample_size(study_population):
    # O(1/n) linearization gap: median |plug-in - linearized|/N drops from
    # n=60 to n=240 (small-scale version of the two-scale comparison).
    from nwacal import linearization_gap
    from nwacal.montecarlo import Scenario

    pop = study_population
    gaps = {}
    for n in (60, 240):
        sc = Scenario(
            population=pop, design=srs_design(pop.size, n), reps=120, master_seed=77
        )
        gaps[n] = linearization_gap(sc, (Variant.CAL_S,))[Variant.CAL_S]
    assert gaps[240] < gaps[60]
