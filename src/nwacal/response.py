"""Response mechanism: independent Bernoulli response per sampled unit. A
RespondentSet stores the sample and its indicators r, and no derived copies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import DesignSpec, Sample, _sample_units
from .streams import checked_seed, streams

__all__ = ["RespondentSet", "draw_response"]


@dataclass(frozen=True)
class RespondentSet:
    """Realized response indicators over a sample.

    ``r`` aligns with ``sample.indices``; ``respondents`` and
    ``nonrespondents`` are read from the two and partition the sample.
    """

    sample: Sample
    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=np.int64, copy=True)
        r.flags.writeable = False
        if r.shape != self.sample.indices.shape:
            raise ValueError("r must align with the sample")
        if not np.all((r == 0) | (r == 1)):
            raise ValueError("r must be 0/1")
        object.__setattr__(self, "r", r)

    @property
    def respondents(self) -> np.ndarray:
        return self.sample.indices[self.r == 1]

    @property
    def nonrespondents(self) -> np.ndarray:
        return self.sample.indices[self.r == 0]

    @property
    def n_respondents(self) -> int:
        return int(self.r.sum())

    @property
    def resp_mask(self) -> np.ndarray:
        return self.r == 1


def _respond(p: np.ndarray, sizes: np.ndarray, seeds) -> np.ndarray:
    """The response indicators of draw_response for each seed, over its run
    of ``sizes`` consecutive probabilities of p."""
    u = np.concatenate([rng.random(m) for rng, m in zip(streams(seeds), sizes.tolist())])
    return (u < p).astype(np.int64)


def draw_response(sample: Sample, p: np.ndarray, seed: int) -> RespondentSet:
    """Independent Bernoulli(p_i) response per sampled unit.

    ``p`` aligns with ``sample.indices``. The seed, in [0, 2**64), is the
    caller's to manage and is independent of the sampling stream, so the two
    phases can be varied separately.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != sample.indices.shape:
        raise ValueError("p must provide one probability per sampled unit")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("response probabilities must lie in (0, 1]")
    r = _respond(p, np.array([p.size]), [checked_seed(seed)])
    return RespondentSet(sample=sample, r=r)


def _draw_replicates(design: DesignSpec, p: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of a block of replicates without building a Sample or a
    RespondentSet: for each (sampling seed, response seed) pair, the units
    of draw_sample(design, sampling seed) and the r of
    draw_response(sample, p[units], response seed), bit for bit. ``p`` holds
    a response probability for every unit of the population. The block's
    streams come from nwacal.streams, one generator call each, and SRSWOR
    resolves the shuffles of the whole block with one sort.

    Returns the replicates' unit indices and r, concatenated, and their
    sample sizes.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 2)
    units, sizes = _sample_units(design, seeds[:, 0])
    return units, _respond(p[units], sizes, seeds[:, 1]), sizes
