import itertools
import math

import numpy as np
import pytest
from oracles import srswor_indices_loop

from nwacal import (
    Population,
    Sample,
    draw_sample,
    joint_inclusion,
    poisson_design,
    srs_design,
)


def _toy_population(x1, y=None):
    x1 = np.asarray(x1, dtype=float)
    n = x1.shape[0]
    return Population(
        aux=np.column_stack([np.ones(n), x1]),
        y=np.zeros(n) if y is None else np.asarray(y, dtype=float),
        true_lambda=None,
        true_p=np.full(n, 0.5),
        rho=0.0,
    )


def test_srs_first_order():
    d = srs_design(1000, 100)
    assert np.all(d.pi == 0.1)
    assert d.n_target == 100.0


def test_srs_range_errors():
    with pytest.raises(ValueError):
        srs_design(10, 0)
    with pytest.raises(ValueError):
        srs_design(10, 10)


def test_srs_single_draw_joint_zero():
    d = srs_design(2, 1)
    assert joint_inclusion(d, 0, 1) == 0.0


def test_srs_joint_matches_enumeration():
    # Enumerate all C(5,2) samples and count joint memberships directly.
    N, n = 5, 2
    d = srs_design(N, n)
    samples = list(itertools.combinations(range(N), n))
    for i, j in itertools.combinations(range(N), 2):
        freq = sum(1 for s in samples if i in s and j in s) / len(samples)
        assert joint_inclusion(d, i, j) == pytest.approx(freq, abs=1e-15)
    assert joint_inclusion(d, 1, 3) == pytest.approx(0.1, abs=1e-15)


def test_joint_diagonal_convention(study_srs, study_poisson):
    assert joint_inclusion(study_srs, 4, 4) == study_srs.pi[4]
    assert joint_inclusion(study_poisson, 4, 4) == study_poisson.pi[4]


def test_joint_bad_index(study_srs):
    with pytest.raises(IndexError):
        joint_inclusion(study_srs, 0, 2000)


def test_poisson_equal_x_gives_srs_probabilities():
    pop = _toy_population(np.full(10, 3.0))
    d = poisson_design(pop, 4.0)
    assert np.allclose(d.pi, 0.4, atol=1e-12)


def test_poisson_two_unit_hand_computation():
    pop = _toy_population([1.0, 2.0])
    d = poisson_design(pop, 1.0)
    assert d.pi[0] == pytest.approx(0.8, abs=1e-12)
    assert d.pi[1] == pytest.approx(0.2, abs=1e-12)


def test_poisson_zero_x_rejected():
    pop = _toy_population([0.0, 2.0])
    with pytest.raises(ValueError):
        poisson_design(pop, 1.0)


def test_poisson_expected_size(study_poisson):
    assert math.fsum(study_poisson.pi) == pytest.approx(100.0, abs=1e-6)
    assert np.all(study_poisson.pi > 0.0)
    assert np.all(study_poisson.pi <= 1.0)


def test_poisson_upper_clamp_renormalizes():
    # One near-zero x forces its probability to the cap; the rest absorb it.
    pop = _toy_population([0.05, 3.0, 4.0, 5.0, 6.0])
    d = poisson_design(pop, 2.0)
    assert d.pi[0] == 1.0
    assert math.fsum(d.pi) == pytest.approx(2.0, abs=1e-12)


def test_poisson_lower_clamp_renormalizes():
    # Heavy-weight units push the tiny-weight ones below the floor; they are
    # clamped up and the free units still absorb the exact remainder.
    pop = _toy_population([1.0, 1.0] + [1000.0] * 8)
    d = poisson_design(pop, 1.5)
    assert np.all(d.pi[2:] == 0.001)
    assert d.pi[0] == pytest.approx(0.746, abs=1e-12)
    assert math.fsum(d.pi) == pytest.approx(1.5, abs=1e-12)


def test_poisson_joint_is_product(study_poisson):
    got = joint_inclusion(study_poisson, 3, 17)
    assert got == study_poisson.pi[3] * study_poisson.pi[17]


def test_design_construction_pure(study_population):
    a = poisson_design(study_population, 100.0)
    b = poisson_design(study_population, 100.0)
    assert np.array_equal(a.pi, b.pi)


def test_srs_draw_fixed_size(study_srs):
    for seed in range(5):
        s = draw_sample(study_srs, seed)
        assert s.size == 100
        assert len(np.unique(s.indices)) == 100


@pytest.mark.parametrize(
    "N, n, seeds", [(20_000, 2_000, range(20)), (1000, 100, range(200)), (2, 1, range(20))]
)
def test_srs_draw_keeps_the_per_step_stream(N, n, seeds):
    design = srs_design(N, n)
    for seed in seeds:
        assert np.array_equal(draw_sample(design, seed).indices, srswor_indices_loop(N, n, seed))


def test_draw_deterministic(study_srs, study_poisson):
    for design in (study_srs, study_poisson):
        a = draw_sample(design, 31415)
        b = draw_sample(design, 31415)
        assert np.array_equal(a.indices, b.indices)


def test_srs_inclusion_frequencies():
    # 10^4 draws on a small design: each unit's frequency within 4 SEs of n/N.
    d = srs_design(30, 6)
    reps = 10_000
    counts = np.zeros(30)
    for seed in range(reps):
        counts[draw_sample(d, seed).indices] += 1
    freq = counts / reps
    band = 4.0 * math.sqrt(0.2 * 0.8 / reps)
    assert np.all(np.abs(freq - 0.2) <= band)


def test_poisson_inclusion_frequencies():
    pop = _toy_population(np.linspace(1.0, 6.0, 40))
    d = poisson_design(pop, 8.0)
    reps = 10_000
    counts = np.zeros(40)
    for seed in range(reps):
        counts[draw_sample(d, seed).indices] += 1
    freq = counts / reps
    band = 4.0 * np.sqrt(d.pi * (1.0 - d.pi) / reps)
    assert np.all(np.abs(freq - d.pi) <= band)


def test_sample_validation(study_srs):
    with pytest.raises(ValueError):
        Sample(indices=np.array([1, 1]), pi_s=np.array([0.1, 0.1]), design=study_srs)
    with pytest.raises(ValueError):
        Sample(indices=np.array([1, 2]), pi_s=np.array([0.5, 0.1]), design=study_srs)
