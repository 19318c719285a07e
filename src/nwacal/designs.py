"""Sampling designs: first- and second-order inclusion probabilities, sample drawing.

Two designs are supported: simple random sampling without replacement and
Poisson sampling with inclusion probabilities proportional to 1/x1^2 (clamped
into [PI_MIN, 1] and renormalized to the target expected size). A Sample
stores only its unit indices and reads their probabilities from the design.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .population import Population
from .streams import checked_seed, streams

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
    """A realized sample: the selected unit indices of a design, and their
    inclusion probabilities pi_s read from it."""

    indices: np.ndarray
    design: DesignSpec

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64, copy=True)
        idx.flags.writeable = False
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("sample indices must be distinct")
        # Checked here, so that reading pi_s can never be the first failure.
        if ordered.size and not (0 <= ordered[0] and ordered[-1] < self.design.size):
            raise ValueError(f"sample indices must lie in [0, {self.design.size})")
        object.__setattr__(self, "indices", idx)

    @property
    def pi_s(self) -> np.ndarray:
        return self.design.pi[self.indices]

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def srs_design(N: int, n: int) -> DesignSpec:
    """Simple random sampling without replacement of n out of N units."""
    if not 0 < n < N:
        raise ValueError(f"sample size n={n} must satisfy 0 < n < N={N}")
    pi = np.full(N, n / N)
    return DesignSpec(kind=DesignKind.SRSWOR, pi=pi, n_target=float(n))


def poisson_design(pop: Population, n: float) -> DesignSpec:
    """Poisson design with inclusion probabilities proportional to 1/x1^2.

    Raw probabilities n*w/sum(w) are clamped into [PI_MIN, 1]; the unclamped
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
        remaining = n - at_hi.sum() * 1.0 - at_lo.sum() * PI_MIN
        if not free.any() or remaining <= 0.0:
            raise ValueError("degenerate input: clamping cannot reach the target size")
        pi[free] = remaining * w[free] / w[free].sum()
        pi[at_hi] = 1.0
        pi[at_lo] = PI_MIN
        new_hi = free & (pi > 1.0)
        if new_hi.any():
            # Clamp the upper bound first: the mass it frees can lift units
            # that only looked sub-floor because a dominant weight hogged it.
            at_hi |= new_hi
            continue
        new_lo = free & (pi < PI_MIN)
        if not new_lo.any():
            break
        at_lo |= new_lo
    return DesignSpec(kind=DesignKind.POISSON, pi=pi, n_target=float(n))


def _partial_shuffle(J: np.ndarray, N: int) -> np.ndarray:
    """The sorted samples of partial Fisher-Yates shuffles of range(N), one
    per row of J: step i of row b swaps positions i and J[b, i] >= i, and
    the sample is what the n steps leave at positions 0..n-1.

    Step i takes the unit at position J[b, i]. That is J[b, i] itself unless
    an earlier step m swapped into the same position; then it is the unit
    that sat at position m just before step m, which in turn is m unless an
    earlier step swapped into position m, and so on down a chain of
    positions below n. One sort of all steps by (row, position, step) puts
    the steps into each position next to each other, in step order.
    """
    B, n = J.shape
    step_bits, position_bits = (n - 1).bit_length(), (N - 1).bit_length()
    keys = ((np.arange(B)[:, None] << position_bits | J) << step_bits | np.arange(n)).ravel()
    keys.sort()
    # Each sorted step as an index into the flattened (B, n) steps, and its
    # (row, position) group.
    row_start = (keys >> (step_bits + position_bits)) * n
    at = row_start + (keys & ((1 << step_bits) - 1))
    group = keys >> step_bits
    follows = group[1:] == group[:-1]
    # took[s]: the last step before s that swapped into the same position.
    took = np.full(B * n, -1)
    took[at[1:][follows]] = at[:-1][follows]
    # into[s]: the last step before s that swapped into position s. The
    # steps into position s are at most s, and one equal to s is step s
    # itself, so then it is the step before that one.
    position = group & ((1 << position_bits) - 1)
    last = np.append(~follows, True) & (position < n)
    into = np.full(B * n, -1)
    target, source = (row_start + position)[last], at[last]
    into[target] = np.where(source == target, took[source], source)
    chosen = J.ravel().copy()
    steps = np.flatnonzero(took >= 0)
    origin = took[steps]
    while (more := into[origin] >= 0).any():
        origin = np.where(more, into[origin], origin)
    chosen[steps] = origin % n
    return np.sort(chosen.reshape(B, n), axis=1)


def _sample_units(design: DesignSpec, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unit indices of draw_sample(design, seed) for each seed,
    concatenated, and the sample sizes."""
    if design.kind is DesignKind.POISSON:
        units = [np.flatnonzero(rng.random(design.size) < design.pi) for rng in streams(seeds)]
        return np.concatenate(units), np.array([u.size for u in units])
    # One call draws the same stream as rng.integers(i, N) for i = 0..n-1.
    n = int(round(design.n_target))
    J = np.stack([rng.integers(np.arange(n), design.size) for rng in streams(seeds)])
    return _partial_shuffle(J, design.size).ravel(), np.full(len(J), n)


def draw_sample(design: DesignSpec, seed: int) -> Sample:
    """Draw one sample from the design, deterministically for a fixed seed
    in [0, 2**64); the stream is that of ``np.random.default_rng(seed)``.

    SRSWOR draws a partial Fisher-Yates shuffle of range(N) (n steps, each
    swapping position i with a uniform position j >= i); Poisson draws an
    independent Bernoulli(pi_i) per unit.
    """
    chosen, _ = _sample_units(design, [checked_seed(seed)])
    return Sample(indices=chosen, design=design)


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
