"""Response mechanism: independent Bernoulli response per sampled unit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import DesignSpec, Sample, _sample_units

__all__ = ["RespondentSet", "draw_response"]


@dataclass(frozen=True)
class RespondentSet:
    """Realized response indicators over a sample.

    ``r`` aligns with ``sample.indices``; ``respondents`` and
    ``nonrespondents`` hold the corresponding unit indices and partition the
    sample.
    """

    sample: Sample
    r: np.ndarray
    respondents: np.ndarray
    nonrespondents: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=np.int64, copy=True)
        r.flags.writeable = False
        if r.shape != self.sample.indices.shape:
            raise ValueError("r must align with the sample")
        if not np.all((r == 0) | (r == 1)):
            raise ValueError("r must be 0/1")
        resp = np.array(self.respondents, dtype=np.int64, copy=True)
        nonresp = np.array(self.nonrespondents, dtype=np.int64, copy=True)
        resp.flags.writeable = False
        nonresp.flags.writeable = False
        if not np.array_equal(resp, self.sample.indices[r == 1]):
            raise ValueError("respondents inconsistent with r")
        if not np.array_equal(nonresp, self.sample.indices[r == 0]):
            raise ValueError("nonrespondents inconsistent with r")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "respondents", resp)
        object.__setattr__(self, "nonrespondents", nonresp)

    @property
    def n_respondents(self) -> int:
        return int(self.r.sum())

    @property
    def resp_mask(self) -> np.ndarray:
        return self.r == 1


def _respond(p: np.ndarray, seed: int) -> np.ndarray:
    """The response indicators of draw_response for probabilities p."""
    return (np.random.default_rng(int(seed)).random(p.size) < p).astype(np.int64)


def draw_response(sample: Sample, p: np.ndarray, seed: int) -> RespondentSet:
    """Independent Bernoulli(p_i) response per sampled unit.

    ``p`` aligns with ``sample.indices``. The seed stream is the caller's to
    manage and is independent of the sampling stream, so the two phases can
    be varied separately.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != sample.indices.shape:
        raise ValueError("p must provide one probability per sampled unit")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("response probabilities must lie in (0, 1]")
    r = _respond(p, seed)
    return RespondentSet(
        sample=sample,
        r=r,
        respondents=sample.indices[r == 1],
        nonrespondents=sample.indices[r == 0],
    )


def _draw_replicates(design: DesignSpec, p: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of a run of replicates without building a Sample or a
    RespondentSet: for each (sampling seed, response seed) pair, the units
    of draw_sample(design, sampling seed) and the r of
    draw_response(sample, p[units], response seed), bit for bit. ``p`` holds
    a response probability for every unit of the population.

    Returns the replicates' unit indices and r, concatenated, and their
    sample sizes.
    """
    units = [_sample_units(design, s) for s, _ in seeds]
    r = [_respond(p[u], t) for u, (_, t) in zip(units, seeds)]
    return np.concatenate(units), np.concatenate(r), np.array([u.size for u in units])
