import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nwacal import draw_response, draw_sample, srs_design
from nwacal.streams import seed_state, streams

# Seeds at the edges of SeedSequence's uint32 words: one word, two words,
# and the largest seed a stream takes.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _default_rng_state(seed):
    state = np.random.default_rng(seed).bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


def test_seed_state_matches_default_rng_at_word_edges():
    assert seed_state(EDGE_SEEDS) == [_default_rng_state(s) for s in EDGE_SEEDS]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
def test_seed_state_matches_default_rng(seeds):
    assert seed_state(seeds) == [_default_rng_state(s) for s in seeds]


def test_streams_restart_every_stream():
    # Three uint32 draws leave half of a 64-bit output buffered in the
    # reused generator; the next stream must not start from it.
    seeds = EDGE_SEEDS + list(range(100, 110))
    for seed, rng in zip(seeds, streams(seeds)):
        ref = np.random.default_rng(seed)
        assert np.array_equal(rng.integers(0, 2**32, 3, dtype=np.uint32), ref.integers(0, 2**32, 3, dtype=np.uint32))
        assert np.array_equal(rng.random(4), ref.random(4))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_out_of_range(study_srs, seed):
    with pytest.raises(ValueError, match="seed"):
        draw_sample(study_srs, seed)
    s = draw_sample(study_srs, 1)
    with pytest.raises(ValueError, match="seed"):
        draw_response(s, np.full(s.size, 0.5), seed)


def test_certain_response(study_srs):
    s = draw_sample(study_srs, 1)
    resp = draw_response(s, np.ones(s.size), seed=2)
    assert resp.n_respondents == s.size
    assert np.array_equal(resp.respondents, s.indices)
    assert resp.nonrespondents.size == 0


def test_probability_out_of_range(study_srs):
    s = draw_sample(study_srs, 1)
    with pytest.raises(ValueError):
        draw_response(s, np.zeros(s.size), seed=2)
    with pytest.raises(ValueError):
        draw_response(s, np.full(s.size, 1.5), seed=2)


def test_half_probability_binomial_mean():
    # 10^4 draws with p=0.5 over 100 units: replicate mean within 4 SEs of 50.
    d = srs_design(1000, 100)
    s = draw_sample(d, 0)
    p = np.full(100, 0.5)
    reps = 10_000
    counts = [draw_response(s, p, seed).n_respondents for seed in range(reps)]
    se_mean = math.sqrt(100 * 0.25 / reps)
    assert abs(np.mean(counts) - 50.0) <= 4.0 * se_mean


def test_poisson_binomial_mean(study_population, study_srs):
    s = draw_sample(study_srs, 3)
    p = study_population.true_p[s.indices]
    reps = 4000
    counts = [draw_response(s, p, seed).n_respondents for seed in range(reps)]
    expected = p.sum()
    se_mean = math.sqrt(float(np.sum(p * (1 - p))) / reps)
    assert abs(np.mean(counts) - expected) <= 4.0 * se_mean


def test_study_settings_mean_response_fraction(study_population, study_srs):
    # Mean respondent fraction over replicates sits near 84%.
    fractions = []
    for seed in range(300):
        s = draw_sample(study_srs, seed)
        resp = draw_response(s, study_population.true_p[s.indices], seed + 10_000)
        fractions.append(resp.n_respondents / s.size)
    assert abs(np.mean(fractions) - 0.84) < 0.02


def test_empty_respondent_set_representable(study_srs):
    s = draw_sample(study_srs, 4)
    resp = draw_response(s, np.full(s.size, 1e-300), seed=5)
    assert resp.n_respondents == 0
    assert resp.respondents.size == 0
    assert np.array_equal(resp.nonrespondents, s.indices)


def test_deterministic_per_seed(study_population, study_srs):
    s = draw_sample(study_srs, 6)
    p = study_population.true_p[s.indices]
    a = draw_response(s, p, 77)
    b = draw_response(s, p, 77)
    assert np.array_equal(a.r, b.r)


def test_seed_streams_independent(study_population, study_srs):
    # The response stream is driven by its own seed, not the sampling seed.
    s = draw_sample(study_srs, 6)
    p = study_population.true_p[s.indices]
    a = draw_response(s, p, 77)
    b = draw_response(s, p, 78)
    assert not np.array_equal(a.r, b.r)


def test_partition_invariant(study_population, study_srs):
    s = draw_sample(study_srs, 8)
    resp = draw_response(s, study_population.true_p[s.indices], 9)
    merged = np.sort(np.concatenate([resp.respondents, resp.nonrespondents]))
    assert np.array_equal(merged, np.sort(s.indices))
