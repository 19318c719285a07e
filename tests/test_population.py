import hashlib
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
    poisson_design,
)
from nwacal.cli import STUDY_RHOS, RunConfig
from nwacal.montecarlo import TAG_POPULATION, mix_seed
from nwacal.population import _CHUNK, _ndtri, _standard_normal, expit

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
        true_p=np.full(3, 0.5),
    )
    assert pop.total == 6.0


def test_population_total_zeros():
    pop = Population(
        aux=np.ones((4, 1)),
        y=np.zeros(4),
        true_p=np.full(4, 0.5),
    )
    assert pop.total == 0.0


def test_population_total_matches_decimal_oracle():
    rng = np.random.default_rng(99)
    y = rng.normal(0, 1, 1000) * 10.0 ** rng.integers(-3, 4, 1000)
    pop = Population(
        aux=np.ones((1000, 1)),
        y=y,
        true_p=np.full(1000, 0.5),
    )
    oracle = float(sum(Decimal(float(v)) for v in y))
    assert pop.total == pytest.approx(oracle, rel=1e-12)


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
            true_p=np.full(2, 0.5),
        )
    with pytest.raises(ValueError):
        Population(
            aux=np.ones((2, 1)),
            y=np.zeros(2),
            true_p=np.array([0.5, 0.0]),
        )


#: Values of one Population field (or of GenConfig's mean_mu) that must be
#: refused, by field.
_NONFINITE = {
    "true_p": [[0.5, np.nan], [np.nan, 0.5], [np.nan, np.nan]],
    "aux": [[[1.0, 2.0], [1.0, v]] for v in (np.nan, np.inf, -np.inf)],
    "y": [[0.0, v] for v in (np.nan, np.inf, -np.inf)],
    "mean_mu": [(np.nan, 4.0)],
}


@pytest.mark.parametrize(
    "field, values",
    [(f, v) for f, vs in _NONFINITE.items() for v in vs],
    ids=[f"{f}{k}" for f, vs in _NONFINITE.items() for k in range(len(vs))],
)
def test_population_rejects_nan_probabilities(field, values):
    # min and max carry a NaN or an infinity into the checks, and a NaN
    # still fails them: nan <= 0 and nan > 1 are both False.
    if field == "mean_mu":
        with pytest.raises(ValueError, match="aux and y must be finite"):
            generate_population(GenConfig(N=10, mean_mu=values))
        return
    columns = {"aux": np.ones((2, 2)), "y": np.zeros(2), "true_p": np.full(2, 0.5)}
    columns[field] = np.array(values)
    message = r"true_p must lie in \(0, 1\]" if field == "true_p" else "aux and y must be finite"
    with pytest.raises(ValueError, match=message):
        Population(**columns)


def test_population_arrays_read_only(study_population):
    with pytest.raises(ValueError):
        study_population.y[0] = 99.0


def test_population_keeps_only_read_only_arrays_that_own_their_data():
    aux, y, p = np.ones((3, 2)), np.arange(3.0), np.full(3, 0.5)
    aux[:, 1] = [1.0, 2.0, 3.0]
    pop = Population(aux=aux, y=y, true_p=p)
    # Writeable arrays are copied: the caller's later writes do not reach them.
    assert pop.aux is not aux and pop.y is not y and pop.true_p is not p
    aux[0, 1], y[0], p[0] = 9.0, 9.0, 0.9
    assert (pop.aux[0, 1], pop.y[0], pop.true_p[0]) == (1.0, 0.0, 0.5)
    assert pop.aux_total.tolist() == [3.0, 6.0] and not pop.aux_total.flags.writeable
    # A read-only float64 array that owns its data is kept; a read-only view
    # of a writeable array, or another dtype, is copied.
    for a in (aux, y, p):
        a.flags.writeable = False
    pop = Population(aux=aux, y=y[::-1].view(), true_p=p.astype(np.float32))
    assert pop.aux is aux and pop.y.flags.owndata and pop.true_p.dtype == np.float64
    assert not (pop.aux.flags.writeable or pop.y.flags.writeable or pop.true_p.flags.writeable)


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


@pytest.mark.parametrize("N", [3 * _CHUNK + 17, _CHUNK - 1])
@pytest.mark.parametrize("rho_index", range(len(STUDY_RHOS)))
def test_chunked_generator_matches_the_unchunked_reference(N, rho_index):
    # The generator fills its outputs _CHUNK units at a time: across chunk
    # boundaries, and with a single partial chunk, every bit is the one of
    # the whole-array computation.
    cfg = GenConfig(N=N, rho=STUDY_RHOS[rho_index], seed=mix_seed(RunConfig.seed, rho_index, TAG_POPULATION))
    pop = generate_population(cfg)
    aux, y, _ = _scipy_reference_population(cfg)
    assert np.array_equal(pop.aux, aux)
    assert np.array_equal(pop.y, y)
    assert np.array_equal(pop.true_p, expit(aux @ np.asarray(cfg.lam)))
    assert np.array_equal(pop.aux_total, aux.sum(axis=0))


# sha256 of the bytes of aux, y, true_p and the poisson_design pi at n, as
# the unchunked generator and design wrote them, for (N, rho, seed, n).
_DIGESTS = {
    (200_000, 0.6, 1729, 20_000.0): (
        "9a321d80fa80dde7cbdf52840fae1d2b731252a368ae972b006fb0b67fc87496",
        "cf940f73fd995edc245a98b09590949b9017ca27972299907feda9d923df17a9",
        "b0074288377b8d9a1dc7f564952331563874fed5c9ab84a2e4afc26e064ff029",
        "fa832625357b61e014a34ee9550e9fc126db02775c97e70ac8ae0d2b72362abb",
    ),
    (1_000, 0.3, 5, 100.0): (
        "444cb9ff2b851fc87cc1426975729f659a8dc38b4494a4f312c38381ed540687",
        "5ea36213a1b02298016b773833042c00151ad8ec7e52de9ae7fbe14668479e7e",
        "96e2a5705b3de09a27b27119b61471d9ee7268566f5fd234ee95693dfa7b9e52",
        "e180c1b02c1044368d494dccc856a341143c2613d28914a6f440c66cd93f5f37",
    ),
    (12_305, 0.8, 2024, 1234.5): (
        "3338058ae4998d2e6608843cec95bf04bc75cee67099aeecd495cf16b5bfd6f2",
        "9e2e442cbe055d1ef0b34718f8a0953025b7c7c0d2f8ded9f7c000e495292300",
        "46f647f2872900cfbea58efb085a0f25c875d07cbdad668602b4ef295fd0d2cd",
        "b03dea2019ff6e25665ffeb49dcbc2e243488b8dcf4153377522bd38c0bbe808",
    ),
}


@pytest.mark.parametrize("N, rho, seed, n", list(_DIGESTS))
def test_population_and_poisson_design_keep_their_bytes(N, rho, seed, n):
    pop = generate_population(GenConfig(N=N, rho=rho, seed=seed))
    arrays = (pop.aux, pop.y, pop.true_p, poisson_design(pop, n).pi)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == _DIGESTS[N, rho, seed, n]
