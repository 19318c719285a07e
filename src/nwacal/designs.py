"""Sampling designs: first- and second-order inclusion probabilities, sample drawing.

Two designs are supported: simple random sampling without replacement and
Poisson sampling with inclusion probabilities proportional to 1/x1^2 (clamped
away from 0 and 1 and renormalized to the target expected size).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .population import Population

__all__ = [
    "DesignKind",
    "DesignSpec",
    "Sample",
    "srs_design",
    "poisson_design",
    "draw_sample",
    "joint_inclusion",
    "PI_MIN",
]

# Lower clamp for Poisson inclusion probabilities: 1/x1^2 has no finite mean
# under a normal x1, so unclamped weights can degenerate single replicates.
PI_MIN = 0.001


class DesignKind(enum.Enum):
    SRSWOR = "srswor"
    POISSON = "poisson"


@dataclass(frozen=True)
class DesignSpec:
    """A sampling design: per-unit inclusion probabilities plus the joint rule."""

    kind: DesignKind
    pi: np.ndarray
    n_target: float

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float, copy=True)
        pi.flags.writeable = False
        if np.any(pi <= 0.0) or np.any(pi > 1.0):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        total = math.fsum(pi)
        if abs(total - self.n_target) > 1e-9 * max(1.0, abs(self.n_target)):
            raise ValueError(
                f"inclusion probabilities sum to {total}, expected n_target={self.n_target}"
            )
        object.__setattr__(self, "pi", pi)

    @property
    def size(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True)
class Sample:
    """A realized sample: selected unit indices with their inclusion probabilities."""

    indices: np.ndarray
    pi_s: np.ndarray
    design: DesignSpec

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64, copy=True)
        idx.flags.writeable = False
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("sample indices must be distinct")
        pi_s = np.array(self.pi_s, dtype=float, copy=True)
        pi_s.flags.writeable = False
        if pi_s.shape != idx.shape:
            raise ValueError("pi_s must align with indices")
        if not np.array_equal(pi_s, self.design.pi[idx]):
            raise ValueError("pi_s inconsistent with the design")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "pi_s", pi_s)

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def srs_design(N: int, n: int) -> DesignSpec:
    """Simple random sampling without replacement of n out of N units."""
    if not 0 < n < N:
        raise ValueError(f"sample size n={n} must satisfy 0 < n < N={N}")
    pi = np.full(N, n / N)
    return DesignSpec(kind=DesignKind.SRSWOR, pi=pi, n_target=float(n))


def poisson_design(pop: Population, n: float, pi_min: float = PI_MIN) -> DesignSpec:
    """Poisson design with inclusion probabilities proportional to 1/x1^2.

    Raw probabilities n*w/sum(w) are clamped into [pi_min, 1]; the unclamped
    ones are rescaled so the expected sample size stays n, iterating until no
    new unit hits a bound.
    """
    if not 0 < n < pop.size:
        raise ValueError(f"expected size n={n} must satisfy 0 < n < N={pop.size}")
    x1 = pop.aux[:, 1]
    if np.any(x1 == 0.0):
        raise ValueError("degenerate input: some x1 is exactly 0, weights 1/x1^2 undefined")
    w = 1.0 / (x1 * x1)
    pi = np.empty(pop.size)
    at_hi = np.zeros(pop.size, dtype=bool)
    at_lo = np.zeros(pop.size, dtype=bool)
    while True:
        free = ~(at_hi | at_lo)
        remaining = n - at_hi.sum() * 1.0 - at_lo.sum() * pi_min
        if not free.any() or remaining <= 0.0:
            raise ValueError("degenerate input: clamping cannot reach the target size")
        pi[free] = remaining * w[free] / w[free].sum()
        pi[at_hi] = 1.0
        pi[at_lo] = pi_min
        new_hi = free & (pi > 1.0)
        if new_hi.any():
            # Clamp the upper bound first: the mass it frees can lift units
            # that only looked sub-floor because a dominant weight hogged it.
            at_hi |= new_hi
            continue
        new_lo = free & (pi < pi_min)
        if not new_lo.any():
            break
        at_lo |= new_lo
    return DesignSpec(kind=DesignKind.POISSON, pi=pi, n_target=float(n))


def _sample_units(design: DesignSpec, seed: int) -> np.ndarray:
    """The sorted unit indices of draw_sample(design, seed)."""
    rng = np.random.default_rng(int(seed))
    if design.kind is DesignKind.POISSON:
        return np.flatnonzero(rng.random(design.size) < design.pi)
    # A partial Fisher-Yates shuffle of range(N) that keeps only the
    # positions a swap displaced: step i takes the unit at position j >= i
    # and leaves position i's unit at j. One call draws the same stream as
    # rng.integers(i, N) for i = 0..n-1.
    n = int(round(design.n_target))
    moved: dict[int, int] = {}
    chosen = []
    for i, j in enumerate(rng.integers(np.arange(n), design.size).tolist()):
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.sort(np.array(chosen, dtype=np.int64))


def draw_sample(design: DesignSpec, seed: int) -> Sample:
    """Draw one sample from the design, deterministically for a fixed seed.

    SRSWOR uses a partial Fisher-Yates shuffle (n swap steps); Poisson draws
    an independent Bernoulli(pi_i) per unit.
    """
    chosen = _sample_units(design, seed)
    return Sample(indices=chosen, pi_s=design.pi[chosen], design=design)


def joint_inclusion(design: DesignSpec, i: int, j: int) -> float:
    """Second-order inclusion probability pi_ij (pi_i on the diagonal)."""
    N = design.size
    if not (0 <= i < N and 0 <= j < N):
        raise IndexError(f"unit index out of range for population of size {N}")
    if i == j:
        return float(design.pi[i])
    if design.kind is DesignKind.POISSON:
        return float(design.pi[i] * design.pi[j])
    n = design.n_target
    return n * (n - 1.0) / (N * (N - 1.0))
