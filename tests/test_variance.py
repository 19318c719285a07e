import math

import numpy as np
import pytest
from oracles import gamma_normal_equations

from nwacal import (
    DesignKind,
    DesignSpec,
    Population,
    Variant,
    VarianceEstimate,
    confidence_interval,
    draw_response,
    draw_sample,
    gamma,
    joint_inclusion,
    poisson_design,
    srs_design,
    theoretical_variance,
    two_phase_estimate,
    var_hat,
    var_hat_ht,
)
from nwacal.montecarlo import mix_seed
from nwacal.variance import _cross_term, var_hat_calS, var_hat_calU, var_hat_mle


def _srs_pair_coeff(design):
    N, n = design.size, design.n_target
    pi_ij = n * (n - 1.0) / (N * (N - 1.0))
    return (pi_ij - (n / N) ** 2) / pi_ij


def _brute_force_mle(design, pi_r, x_r, y_r, p_hat_r, survey_weighted=False):
    # Literal transcription of the written formulas, scalar loops only.
    variant = Variant.MLE_KINVPI if survey_weighted else Variant.MLE_K1
    gamma = gamma_normal_equations(variant, x_r, y_r, pi_r, p_hat_r, "S_r")
    m = len(pi_r)
    v_sam = 0.0
    for i in range(m):
        v_sam += (1 - pi_r[i]) / pi_r[i] ** 2 * y_r[i] ** 2 / p_hat_r[i]
    coeff = 0.0 if design.kind is DesignKind.POISSON else _srs_pair_coeff(design)
    for i in range(m):
        for j in range(m):
            if i != j:
                v_sam += (
                    coeff
                    * (y_r[i] / (pi_r[i] * p_hat_r[i]))
                    * (y_r[j] / (pi_r[j] * p_hat_r[j]))
                )
    k = (1.0 / pi_r) if survey_weighted else np.ones_like(pi_r)
    v_nr = 0.0
    for i in range(m):
        resid = y_r[i] - k[i] * pi_r[i] * p_hat_r[i] * float(x_r[i] @ gamma)
        v_nr += (1 - p_hat_r[i]) / (pi_r[i] * p_hat_r[i]) ** 2 * resid**2
    return v_sam, v_nr


def _brute_force_cal(design, pi_r, x_r, y_r, p_hat_r, population_level):
    variant = Variant.CAL_U if population_level else Variant.CAL_S
    gamma = gamma_normal_equations(variant, x_r, y_r, pi_r, p_hat_r, "S_r")
    e = np.array([y_r[i] - float(x_r[i] @ gamma) for i in range(len(y_r))])
    base = e if population_level else y_r
    m = len(pi_r)
    v_sam = 0.0
    for i in range(m):
        v_sam += (1 - pi_r[i]) / pi_r[i] ** 2 * base[i] ** 2 / p_hat_r[i]
    coeff = 0.0 if design.kind is DesignKind.POISSON else _srs_pair_coeff(design)
    for i in range(m):
        for j in range(m):
            if i != j:
                v_sam += (
                    coeff
                    * (base[i] / (pi_r[i] * p_hat_r[i]))
                    * (base[j] / (pi_r[j] * p_hat_r[j]))
                )
    v_nr = 0.0
    for i in range(m):
        v_nr += (1 - p_hat_r[i]) / (pi_r[i] * p_hat_r[i]) ** 2 * e[i] ** 2
    return v_sam, v_nr


def _toy_respondents(seed, m=4):
    rng = np.random.default_rng(seed)
    x_r = np.column_stack([np.ones(m), rng.normal(4, 1, m)])
    pi_r = rng.uniform(0.2, 0.8, m)
    y_r = rng.normal(4, 1, m)
    p_hat_r = rng.uniform(0.5, 0.95, m)
    return pi_r, x_r, y_r, p_hat_r


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["srs", "poisson"])
def test_var_hat_mle_matches_hand_expansion(seed, kind):
    pi_r, x_r, y_r, p_hat_r = _toy_respondents(seed, m=3)
    if kind == "srs":
        design = srs_design(50, 10)
        pi_r = np.full(3, 0.2)
    else:
        design = DesignSpec(kind=DesignKind.POISSON, pi=pi_r, n_target=float(pi_r.sum()))
    for sw, variant in ((False, Variant.MLE_K1), (True, Variant.MLE_KINVPI)):
        got = var_hat(variant, design, pi_r, x_r, y_r, p_hat_r)
        v_sam, v_nr = _brute_force_mle(design, pi_r, x_r, y_r, p_hat_r, survey_weighted=sw)
        assert got.v_sam == pytest.approx(v_sam, rel=1e-12)
        assert got.v_nr == pytest.approx(v_nr, rel=1e-12)
        assert got.total == got.v_sam + got.v_nr


@pytest.mark.parametrize("seed", [3, 4])
def test_var_hat_cal_matches_hand_expansion(seed):
    pi_r, x_r, y_r, p_hat_r = _toy_respondents(seed, m=4)
    design = srs_design(60, 12)
    pi_r = np.full(4, 0.2)
    got_u = var_hat(Variant.CAL_U, design, pi_r, x_r, y_r, p_hat_r)
    v_sam, v_nr = _brute_force_cal(design, pi_r, x_r, y_r, p_hat_r, population_level=True)
    assert got_u.v_sam == pytest.approx(v_sam, rel=1e-12)
    assert got_u.v_nr == pytest.approx(v_nr, rel=1e-12)

    got_s = var_hat(Variant.CAL_S, design, pi_r, x_r, y_r, p_hat_r)
    v_sam, v_nr = _brute_force_cal(design, pi_r, x_r, y_r, p_hat_r, population_level=False)
    assert got_s.v_sam == pytest.approx(v_sam, rel=1e-12)
    assert got_s.v_nr == pytest.approx(v_nr, rel=1e-12)


def test_cal_variants_share_nonresponse_component():
    pi_r, x_r, y_r, p_hat_r = _toy_respondents(7, m=5)
    design = DesignSpec(kind=DesignKind.POISSON, pi=pi_r, n_target=float(pi_r.sum()))
    u = var_hat(Variant.CAL_U, design, pi_r, x_r, y_r, p_hat_r)
    s = var_hat(Variant.CAL_S, design, pi_r, x_r, y_r, p_hat_r)
    assert u.v_nr == s.v_nr
    assert np.array_equal(u.gamma_hat, s.gamma_hat)


def test_poisson_cross_terms_exactly_zero():
    pi_r, x_r, y_r, p_hat_r = _toy_respondents(8, m=6)
    design = DesignSpec(kind=DesignKind.POISSON, pi=pi_r, n_target=float(pi_r.sum()))
    got = var_hat(Variant.MLE_K1, design, pi_r, x_r, y_r, p_hat_r)
    single = float(np.sum((1 - pi_r) / pi_r**2 * y_r**2 / p_hat_r))
    assert got.v_sam == single  # bit-exact: the pair term is short-circuited


def test_srswor_pair_term_matches_literal_double_sum():
    design = srs_design(200, 30)
    s = draw_sample(design, 5)
    rng = np.random.default_rng(5)
    u = rng.normal(40.0, 10.0, s.size) / s.pi_s
    literal = 0.0
    for i in range(s.size):
        for j in range(s.size):
            if i != j:
                pi_ij = joint_inclusion(design, int(s.indices[i]), int(s.indices[j]))
                literal += (pi_ij - s.pi_s[i] * s.pi_s[j]) / pi_ij * u[i] * u[j]
    assert _cross_term(design, u) == pytest.approx(literal, rel=1e-12)
    stack = np.stack([u, 2.0 * u])
    assert np.allclose(_cross_term(design, stack), [literal, 4.0 * literal], rtol=1e-12, atol=0.0)


def test_unit_probabilities_reduce_to_ht_variance():
    pi_r, x_r, y_r, _ = _toy_respondents(9, m=5)
    design = srs_design(40, 8)
    pi_r = np.full(5, 0.2)
    ones = np.ones(5)
    got = var_hat(Variant.MLE_K1, design, pi_r, x_r, y_r, ones)
    assert got.v_nr == 0.0
    assert got.v_sam == pytest.approx(var_hat_ht(design, pi_r, y_r), rel=1e-14)


def test_linear_y_zeroes_calU_components():
    rng = np.random.default_rng(10)
    m = 6
    x_r = np.column_stack([np.ones(m), rng.normal(4, 1, m)])
    beta = np.array([2.0, 0.5])
    y_r = x_r @ beta
    pi_r = np.full(m, 0.25)
    p_hat_r = rng.uniform(0.6, 0.9, m)
    design = srs_design(40, 10)
    got = var_hat(Variant.CAL_U, design, pi_r, x_r, y_r, p_hat_r)
    scale = float(np.max(y_r) ** 2)
    assert abs(got.v_sam) <= 1e-16 * scale * m * 100
    assert 0.0 <= got.v_nr <= 1e-16 * scale * m * 100
    got_s = var_hat(Variant.CAL_S, design, pi_r, x_r, y_r, p_hat_r)
    assert got_s.v_nr == got.v_nr
    assert got_s.v_sam > 1.0  # raw-y sampling variance remains


def test_nonresponse_component_nonnegative():
    for seed in range(12):
        pi_r, x_r, y_r, p_hat_r = _toy_respondents(seed, m=7)
        design = DesignSpec(kind=DesignKind.POISSON, pi=pi_r, n_target=float(pi_r.sum()))
        assert var_hat(Variant.MLE_K1, design, pi_r, x_r, y_r, p_hat_r).v_nr >= 0.0
        assert var_hat(Variant.CAL_U, design, pi_r, x_r, y_r, p_hat_r).v_nr >= 0.0
        assert var_hat(Variant.CAL_S, design, pi_r, x_r, y_r, p_hat_r).v_nr >= 0.0


def test_sampling_component_can_be_negative_under_srswor():
    # Constant y over a near-census respondent set: the estimator lands below
    # zero (the true HT variance of a constant is 0 under a fixed-size design).
    design = srs_design(1000, 100)
    m = 100
    pi_r = np.full(m, 0.1)
    x_r = np.column_stack([np.ones(m), np.linspace(3, 5, m)])
    y_r = np.ones(m)
    p_hat_r = np.ones(m)
    got = var_hat(Variant.CAL_S, design, pi_r, x_r, y_r, p_hat_r)
    assert got.v_sam < 0.0
    if got.total < 0.0:
        assert confidence_interval(0.0, got.total) is None


@pytest.mark.parametrize(
    "shim, variant",
    [
        (lambda *a: var_hat_mle(*a, survey_weighted=False), Variant.MLE_K1),
        (lambda *a: var_hat_mle(*a, survey_weighted=True), Variant.MLE_KINVPI),
        (var_hat_calU, Variant.CAL_U),
        (var_hat_calS, Variant.CAL_S),
    ],
    ids=["mle_1", "mle_invpi", "cal_U", "cal_S"],
)
def test_benchmark_variance_names_return_var_hat(shim, variant):
    # The names perfbench/workloads.py imports, for as long as they exist.
    pi_r, x_r, y_r, p_hat_r = _toy_respondents(11, m=6)
    for design in (srs_design(60, 12), DesignSpec(kind=DesignKind.POISSON, pi=pi_r, n_target=float(pi_r.sum()))):
        got = shim(design, pi_r, x_r, y_r, p_hat_r)
        want = var_hat(variant, design, pi_r, x_r, y_r, p_hat_r)
        assert (got.v_sam, got.v_nr) == (want.v_sam, want.v_nr)
        assert got.gamma_hat.tobytes() == want.gamma_hat.tobytes()


@pytest.mark.parametrize("variant", [Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S])
def test_var_hat_singular_gamma_is_a_nan_row(variant):
    # x1 is constant over the respondents, so the gamma system is exactly
    # collinear: gamma_hat and every component that needs it read NaN, while
    # the sampling component of the variants that run it on y stays finite.
    m = 6
    pi_r = np.full(m, 0.4)
    x_r = np.column_stack([np.ones(m), np.full(m, 2.0)])
    y_r = np.linspace(1.0, 3.0, m)
    p_hat_r = np.full(m, 0.6)
    design = DesignSpec(kind=DesignKind.POISSON, pi=pi_r, n_target=float(pi_r.sum()))
    got = var_hat(variant, design, pi_r, x_r, y_r, p_hat_r)
    assert got.gamma_hat.shape == (2,) and np.isnan(got.gamma_hat).all()
    assert math.isnan(got.v_nr)
    assert math.isnan(got.v_sam) == (variant is Variant.CAL_U)


@pytest.mark.parametrize("variant", [Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S])
def test_theoretical_singular_population_system_raises(variant):
    # x1 is constant, so every population gamma system is exactly collinear.
    pop = Population(
        aux=np.column_stack([np.ones(4), np.full(4, 2.0)]),
        y=np.ones(4),
        true_p=np.full(4, 0.5),
    )
    with pytest.raises(ValueError, match="singular population gamma system"):
        theoretical_variance(pop, srs_design(4, 2), variant)


def test_theoretical_full_response_no_nonresponse_variance(small_population):
    pop = small_population
    ones = Population(aux=pop.aux, y=pop.y, true_p=np.ones(pop.size))
    design = srs_design(pop.size, 20)
    for v in (Variant.TRUE_P, Variant.MLE_K1, Variant.CAL_U, Variant.CAL_S):
        tv = theoretical_variance(ones, design, v)
        assert tv.v_nr == 0.0


def test_theoretical_variance_is_a_variance_estimate_with_the_population_gamma(small_population):
    pop = small_population
    design = poisson_design(pop, 30.0)
    for v in Variant:
        tv = theoretical_variance(pop, design, v)
        assert isinstance(tv, VarianceEstimate)
        assert tv.total == tv.v_sam + tv.v_nr
        if v in (Variant.HT, Variant.TRUE_P):
            assert tv.gamma_hat is None
        else:
            assert np.array_equal(tv.gamma_hat, gamma(v, pop.aux, pop.y, design.pi, pop.true_p, "U"))
    ones = Population(aux=pop.aux, y=pop.y, true_p=np.ones(pop.size))
    assert theoretical_variance(ones, design, Variant.CAL_S).gamma_hat is None


def test_theoretical_truep_poisson_closed_form(small_population):
    pop = small_population
    design = poisson_design(pop, 30.0)
    tv = theoretical_variance(pop, design, Variant.TRUE_P)
    pi, p, y = design.pi, pop.true_p, pop.y
    v_sam = float(np.sum((1 - pi) / pi * y**2))
    v_nr = float(np.sum((1 - p) / (pi * p) * y**2))
    assert tv.v_sam == pytest.approx(v_sam, rel=1e-14)
    assert tv.v_nr == pytest.approx(v_nr, rel=1e-14)


def test_theoretical_srswor_uses_population_variance(small_population):
    pop = small_population
    design = srs_design(pop.size, 20)
    tv = theoretical_variance(pop, design, Variant.HT)
    N, n = pop.size, 20
    s2 = float(np.var(pop.y, ddof=1))
    assert tv.v_sam == pytest.approx(N * N * (1 - n / N) / n * s2, rel=1e-14)
    assert tv.v_nr == 0.0


def test_true_p_monte_carlo_variance_matches_oracle(small_population):
    # Two-phase estimator with known probabilities: MC variance within 10%
    # of the exact decomposition.
    pop = small_population
    design = srs_design(pop.size, 40)
    tv = theoretical_variance(pop, design, Variant.TRUE_P)
    reps = 10_000
    vals = np.empty(reps)
    for i in range(reps):
        s = draw_sample(design, mix_seed(21, i, 1))
        p_s = pop.true_p[s.indices]
        resp = draw_response(s, p_s, mix_seed(21, i, 2))
        mask = resp.resp_mask
        vals[i] = two_phase_estimate(s.pi_s[mask], p_s[mask], pop.y[s.indices][mask])
    mc_var = float(np.var(vals, ddof=1))
    assert abs(mc_var - tv.total) / tv.total < 0.10


def test_confidence_interval_arithmetic():
    assert confidence_interval(100.0, 25.0) == pytest.approx((90.2, 109.8), abs=1e-12)
    lo, hi = confidence_interval(5.0, 0.0)
    assert lo == hi == 5.0
    assert confidence_interval(1.0, -0.5) is None


def test_confidence_interval_length_identity():
    for v in (0.1, 4.0, 123.4):
        lo, hi = confidence_interval(0.0, v)
        assert hi - lo == pytest.approx(2 * 1.96 * math.sqrt(v), rel=1e-14)
