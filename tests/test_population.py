import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from nwacal import (
    GenConfig,
    Population,
    generate_population,
    logistic_probs,
    population_from_csv,
    population_to_csv,
    population_total,
)
from nwacal.cli import STUDY_RHOS, RunConfig
from nwacal.montecarlo import TAG_POPULATION, mix_seed
from nwacal.population import _ndtri, _standard_normal, expit

# Independent high-precision evaluation of 1/(1+e^-1.7) (mpmath, 25 digits).
LOGISTIC_1P7 = 0.8455347349164652956660462


def logistic(x, lam) -> float:
    """The response probability of one unit, through logistic_probs."""
    return float(logistic_probs(x, lam))


def test_logistic_zero_coefficients():
    assert logistic([1.0, 4.0], [0.0, 0.0]) == 0.5


def test_logistic_eta_1p7():
    assert logistic([1.0, 4.0], [0.1, 0.4]) == pytest.approx(LOGISTIC_1P7, abs=1e-15)


def test_logistic_length_mismatch():
    with pytest.raises(ValueError):
        logistic([1.0, 4.0], [0.1])


def test_logistic_extreme_eta_stable():
    # No overflow on either branch; saturation to the float endpoints is the
    # expected double-precision behavior at |eta| = 700.
    hi = logistic([1.0, 700.0], [0.0, 1.0])
    lo = logistic([1.0, -700.0], [0.0, 1.0])
    assert math.isfinite(hi) and math.isfinite(lo)
    assert 0.0 < lo < 1e-300
    assert hi == pytest.approx(1.0, abs=1e-15)
    mid_hi = logistic([1.0, 30.0], [0.0, 1.0])
    assert 0.0 < mid_hi < 1.0


@given(
    x1=st.floats(-50, 50),
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
)
def test_logistic_complement_identity(x1, a, b):
    x = [1.0, x1]
    lam = [a, b]
    neg = [-a, -b]
    assert logistic(x, lam) + logistic(x, neg) == pytest.approx(1.0, abs=1e-15)


@given(
    etas=st.lists(
        st.integers(-3000, 3000).map(lambda k: k / 100.0),
        min_size=2, max_size=6, unique=True,
    )
)
def test_logistic_strictly_increasing(etas):
    vals = [logistic([1.0, e], [0.0, 1.0]) for e in sorted(etas)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mean_response_rate_near_84_percent(study_population):
    assert 0.82 <= study_population.true_p.mean() <= 0.86


def test_generated_probabilities_interior(study_population):
    assert np.all(study_population.true_p > 0.0)
    assert np.all(study_population.true_p < 1.0)
    assert np.all(study_population.aux[:, 0] == 1.0)


def test_zero_correlation_config():
    pop = generate_population(GenConfig(N=1000, rho=0.0, seed=11))
    r = np.corrcoef(pop.y, pop.aux[:, 1])[0, 1]
    assert abs(r) <= 3.0 / math.sqrt(1000)


def test_requested_correlation_is_realized():
    pop = generate_population(GenConfig(N=1000, rho=0.6, seed=5))
    r = np.corrcoef(pop.y, pop.aux[:, 1])[0, 1]
    assert abs(r - 0.6) <= 3.0 / math.sqrt(1000)


def test_generation_deterministic():
    a = generate_population(GenConfig(N=500, seed=123))
    b = generate_population(GenConfig(N=500, seed=123))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.aux, b.aux)
    assert np.array_equal(a.true_p, b.true_p)


def test_different_seeds_differ():
    a = generate_population(GenConfig(N=500, seed=123))
    b = generate_population(GenConfig(N=500, seed=124))
    assert not np.array_equal(a.y, b.y)


def test_population_total_simple():
    pop = Population(
        aux=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
        y=np.array([1.0, 2.0, 3.0]),
        true_lambda=None,
        true_p=np.full(3, 0.5),
        rho=0.0,
    )
    assert population_total(pop) == 6.0
    assert pop.total == 6.0


def test_population_total_zeros():
    pop = Population(
        aux=np.ones((4, 1)),
        y=np.zeros(4),
        true_lambda=None,
        true_p=np.full(4, 0.5),
        rho=0.0,
    )
    assert population_total(pop) == 0.0


def test_population_total_matches_decimal_oracle():
    rng = np.random.default_rng(99)
    y = rng.normal(0, 1, 1000) * 10.0 ** rng.integers(-3, 4, 1000)
    pop = Population(
        aux=np.ones((1000, 1)),
        y=y,
        true_lambda=None,
        true_p=np.full(1000, 0.5),
        rho=0.0,
    )
    oracle = float(sum(Decimal(float(v)) for v in y))
    assert population_total(pop) == pytest.approx(oracle, rel=1e-12)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(N=1, seed=0)
    with pytest.raises(ValueError):
        GenConfig(N=10, rho=1.0, seed=0)
    with pytest.raises(ValueError):
        GenConfig(N=10, seed=-1)


def test_population_invariant_violations():
    with pytest.raises(ValueError):
        Population(
            aux=np.array([[2.0], [1.0]]),
            y=np.zeros(2),
            true_lambda=None,
            true_p=np.full(2, 0.5),
            rho=0.0,
        )
    with pytest.raises(ValueError):
        Population(
            aux=np.ones((2, 1)),
            y=np.zeros(2),
            true_lambda=None,
            true_p=np.array([0.5, 0.0]),
            rho=0.0,
        )
    # probabilities inconsistent with the stated coefficients
    with pytest.raises(ValueError):
        Population(
            aux=np.array([[1.0, 1.0], [1.0, 2.0]]),
            y=np.zeros(2),
            true_lambda=np.array([0.0, 0.0]),
            true_p=np.array([0.4, 0.6]),
            rho=0.0,
        )


def test_population_arrays_read_only(study_population):
    with pytest.raises(ValueError):
        study_population.y[0] = 99.0


def test_csv_round_trip(tmp_path):
    pop = generate_population(GenConfig(N=50, seed=3))
    path = tmp_path / "pop.csv"
    population_to_csv(pop, path)
    back = population_from_csv(path)
    assert np.array_equal(back.aux, pop.aux)
    assert np.array_equal(back.y, pop.y)
    assert np.array_equal(back.true_p, pop.true_p)
    assert np.array_equal(back.true_lambda, pop.true_lambda)
    assert back.rho == pop.rho


def test_csv_without_metadata(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text("unit,x1,y,p_true\n0,4.0,3.5,0.8\n1,5.0,4.5,0.9\n")
    pop = population_from_csv(path)
    assert pop.true_lambda is None
    assert pop.size == 2
    assert pop.total == 8.0


def _ulps(a, b):
    """Distance between two float arrays in units of the larger one's last place."""
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


def _generator_uniforms(k):
    return (k.astype(np.float64) + 0.5) * 2.0**-64


def test_ndtri_matches_cephes_on_generator_draws():
    k = np.random.default_rng(2024).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    edges = np.array([0, 1, 2**63, 2**64 - 4096, 2**64 - 1], dtype=np.uint64)
    u = _generator_uniforms(np.concatenate([k, edges]))
    assert np.array_equal(_ndtri(u), scipy.special.ndtri(u))


def test_ndtri_matches_cephes_in_tails_and_at_branch_points():
    tail = np.logspace(-300, math.log10(0.5), 100_001)
    cuts = [math.exp(-2.0), 1.0 - math.exp(-2.0), 1.0 - 0.13533528323661269189]
    near_cuts = [np.nextafter(c, d) for c in cuts for d in (0.0, 1.0)]
    u = np.concatenate([tail, 1.0 - tail, cuts, near_cuts, [1.0 - 1e-16, 5e-324, 0.5]])
    assert np.array_equal(_ndtri(u), scipy.special.ndtri(u))
    special = _ndtri(np.array([0.0, 1.0, -0.1, 1.1]))
    assert special[0] == -np.inf and special[1] == np.inf
    assert np.isnan(special[2:]).all()


class _FixedDraws:
    """A generator stub whose raw 64-bit draws are given."""

    def __init__(self, k):
        self.k = np.array(k, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        return self.k[:size]


def test_standard_normal_finite_at_the_top_draws():
    # k >= 2^64 - 1024 rounds (k + 0.5) 2^-64 to 1.0; the clamp keeps the
    # normal finite, at the value of the largest double below 1.
    top = [2**64 - 1, 2**64 - 1024]
    z = _standard_normal(_FixedDraws(top), 2)
    assert np.all(np.isfinite(z))
    assert np.array_equal(z, _ndtri(np.full(2, np.nextafter(1.0, 0.0))))
    below = np.array([2**64 - 1025, 0], dtype=np.uint64)
    z = _standard_normal(_FixedDraws(below), 2)
    assert np.array_equal(z, _ndtri(_generator_uniforms(below)))


def test_expit_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]
        assert expit(-800.0) == 0.0 and expit(800.0) == 1.0


def test_expit_formula_matches_scipy_where_exp_agrees_with_libm():
    # Same operations in the same order as scipy's expit, so the two differ
    # only where numpy's exp and libm's exp round differently.
    x = np.linspace(-700.0, 800.0, 300_001)
    libm_agrees = np.exp(-x) == np.array([math.exp(-v) for v in x.tolist()])
    assert libm_agrees.mean() > 0.9
    assert np.array_equal(expit(x)[libm_agrees], scipy.special.expit(x)[libm_agrees])


def test_expit_within_four_ulps_of_scipy():
    # A one-ulp difference in exp(-x) can grow to two ulps of 1 + exp(-x)
    # where that sum rounds at a tie, and to four ulps of its reciprocal;
    # the largest distance on this grid is 4, near x = -36.8.
    x = np.linspace(-800.0, 800.0, 1_600_001)
    assert _ulps(expit(x), scipy.special.expit(x)).max() <= 4.0


def _scipy_reference_population(cfg):
    rng = np.random.default_rng(cfg.seed)
    k1 = rng.integers(0, 2**64, size=cfg.N, dtype=np.uint64)
    k2 = rng.integers(0, 2**64, size=cfg.N, dtype=np.uint64)
    z1 = scipy.special.ndtri(_generator_uniforms(k1))
    z2 = scipy.special.ndtri(_generator_uniforms(k2))
    y = cfg.mean_mu[0] + z1
    x1 = cfg.mean_mu[1] + cfg.rho * z1 + math.sqrt(1.0 - cfg.rho * cfg.rho) * z2
    aux = np.column_stack([np.ones(cfg.N), x1])
    return aux, y, scipy.special.expit(aux @ np.asarray(cfg.lam))


@pytest.mark.parametrize("rho_index", range(len(STUDY_RHOS)))
def test_study_populations_match_scipy_reference(rho_index):
    cfg = GenConfig(
        N=RunConfig.N,
        rho=STUDY_RHOS[rho_index],
        seed=mix_seed(RunConfig.seed, rho_index, TAG_POPULATION),
    )
    pop = generate_population(cfg)
    aux, y, p = _scipy_reference_population(cfg)
    # The reference takes no clamp of u: the clamp leaves the populations of
    # all six study cells (three correlations, two designs) bit-identical.
    assert np.array_equal(pop.aux, aux)
    assert np.array_equal(pop.y, y)
    # Every linear predictor here is positive, so 1 + exp(-eta) lies in
    # [1, 2): a one-ulp difference in exp moves it by at most one ulp, and
    # the probability in [0.5, 1) by at most two.
    assert np.all(aux @ np.asarray(cfg.lam) > 0.0)
    assert _ulps(pop.true_p, p).max() <= 2.0
