"""Point estimators of the population total and the linearization diagnostics.

Six estimator variants are tracked: the full-sample HT estimator, the
two-phase estimator with true response probabilities, and the four
reweighted variants whose response probabilities come from a fitted
estimating equation. The linearized forms need true response probabilities
(and, for the population-level variant, full-population data), so they are
simulation diagnostics only; their gamma system, over the respondents with
the fitted probabilities, also serves the variance estimators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .population import Population
from .designs import Sample
from .response import RespondentSet
from .solvers import EEKind, EstimatingEquation, FitNotConvergedError, FitResult, _CAL_KINDS, _cholesky_solve

__all__ = [
    "Variant",
    "EstimateRecord",
    "estimating_equation",
    "ht_estimate",
    "two_phase_estimate",
    "nwa_estimate",
    "gamma",
    "linearized_block",
    "linearized_estimate",
]


class Variant(enum.Enum):
    HT = "ht"
    TRUE_P = "p"
    MLE_K1 = "mle_1"
    MLE_KINVPI = "mle_invpi"
    CAL_U = "cal_U"
    CAL_S = "cal_S"


#: Variants whose weights come from a fitted estimating equation.
FITTED_VARIANTS = (Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S)

VARIANT_TO_EEKIND = {
    Variant.MLE_K1: EEKind.MLE_K1,
    Variant.MLE_KINVPI: EEKind.MLE_KINVPI,
    Variant.CAL_U: EEKind.CAL_POPULATION,
    Variant.CAL_S: EEKind.CAL_SAMPLE,
}


def estimating_equation(
    variant: Variant, x_s, pi_s, r, population_totals=None
) -> EstimatingEquation:
    """The estimating equation that fits a variant's response probabilities
    over one sample; population-level calibration needs the totals."""
    kind = VARIANT_TO_EEKIND[variant]
    if kind is EEKind.CAL_POPULATION:
        return EstimatingEquation.cal_population(x_s, pi_s, r, population_totals)
    if kind is EEKind.CAL_SAMPLE:
        return EstimatingEquation.cal_sample(x_s, pi_s, r)
    return EstimatingEquation.mle(x_s, pi_s, r, survey_weighted=kind is EEKind.MLE_KINVPI)


@dataclass(frozen=True)
class EstimateRecord:
    """A total estimate with the final per-unit weights that produced it."""

    value: float
    weights: np.ndarray


def ht_estimate(pi_s: np.ndarray, y_s: np.ndarray) -> float:
    """Horvitz-Thompson total sum_S y_i / pi_i."""
    pi_s = np.asarray(pi_s, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    return float(np.sum(y_s / pi_s))


def two_phase_estimate(pi_r: np.ndarray, p_r: np.ndarray, y_r: np.ndarray) -> float:
    """Double-expansion total sum_{S_r} y_i / (pi_i p_i) with known probabilities."""
    pi_r = np.asarray(pi_r, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    y_r = np.asarray(y_r, dtype=float)
    if np.any(p_r <= 0.0):
        raise ValueError("response probabilities must be strictly positive")
    return float(np.sum(y_r / (pi_r * p_r)))


def nwa_estimate(
    variant: Variant,
    pi_r: np.ndarray,
    y_r: np.ndarray,
    p_hat_r: np.ndarray,
    fit: FitResult,
) -> EstimateRecord:
    """Reweighted total sum_{S_r} y_i / (pi_i p_hat_i) from a converged fit.

    Refuses non-converged fits; the caller decides how to account for them.
    """
    if not fit.converged:
        raise FitNotConvergedError(
            f"cannot build a {variant.value} estimate from a {fit.status.value} fit"
        )
    pi_r = np.asarray(pi_r, dtype=float)
    y_r = np.asarray(y_r, dtype=float)
    p_hat_r = np.asarray(p_hat_r, dtype=float)
    w = 1.0 / (pi_r * p_hat_r)
    return EstimateRecord(value=float(w @ y_r), weights=w)


def _solve_normal_equations(
    x: np.ndarray, y: np.ndarray, w_matrix: np.ndarray, w_rhs: np.ndarray
) -> np.ndarray | None:
    """Solve [sum w_matrix_i x_i x_i^T] g = sum w_rhs_i x_i y_i.

    The sums run over the units, the second-to-last axis of x; a leading
    axis indexes a stack of independent systems. The system is solved by
    the solver's Cholesky factorization, whose rule decides which systems
    are singular (a non-finite entry, or a pivot lost to rounding): a
    single system then gives None, a stack gives a NaN row.
    """
    a = (np.swapaxes(x, -1, -2) * w_matrix[..., None, :]) @ x
    b = ((w_rhs * y)[..., None, :] @ x)[..., 0, :]
    if x.ndim == 3:
        return _cholesky_solve(a, b)
    g = _cholesky_solve(a[None], b[None])[0]
    return None if np.isnan(g).any() else g


class _Linearization(NamedTuple):
    """A fitted variant's estimator to first order, read off its estimating
    equation's kind: the total of the fitted values scale_i x_i'gamma plus
    the HT total of the residuals y_i - scale_i x_i'gamma. The scale is
    k pi p for the MLE kinds, with k = 1/pi for the survey-weighted score
    (as solvers._terms weights it) and 1 otherwise, and 1 for calibration.
    Population-level calibration knows the fitted total over U, so its
    sampling component runs on the residuals; the others run on y."""

    k_inv_pi: bool
    mle: bool
    population_level: bool

    @classmethod
    def of(cls, variant: Variant) -> "_Linearization":
        kind = VARIANT_TO_EEKIND.get(variant)
        if kind is None:
            raise ValueError(f"variant {variant.value} fits no response model, so it has no linearization")
        return cls(kind is EEKind.MLE_KINVPI, kind not in _CAL_KINDS, kind is EEKind.CAL_POPULATION)

    def k(self, pi):
        return 1.0 / pi if self.k_inv_pi else 1.0

    def scale(self, pi, p):
        return self.k(pi) * pi * p if self.mle else 1.0


def gamma(variant: Variant, x: np.ndarray, y: np.ndarray, pi, p: np.ndarray, level: str):
    """The gamma of a fitted variant's linearization: the solution of

        [sum_i omega_i a_i x_i x_i'] gamma = sum_i omega_i b_i x_i y_i,

    with b = 1 - p, and a = k pi p (1 - p) for the MLE kinds or a = b for
    calibration (Kim & Riddles 2012; Deville & Sarndal 1992). The sums run
    at one of three levels: over U with omega = 1 (level "U"), over S with
    omega = 1/pi ("S") or over the respondents with omega = 1/(pi p) ("S_r",
    with p the fitted p_hat). a is written with the factors of pi p that
    omega leaves; calibration reads no pi at level "U". Arrays are (n,) and
    (n, q), or a stack (B, n) and (B, n, q): a system singular by the
    solver's Cholesky rule gives None, or a NaN row of the stack."""
    lin = _Linearization.of(variant)
    d, kept = {"U": (1.0, (pi, p)), "S": (pi, (p,)), "S_r": (pi * p, ())}[level]
    b = (1.0 - p) / d
    a = math.prod(kept, start=lin.k(pi)) * (1.0 - p) if lin.mle else b
    return _solve_normal_equations(x, y, a, b)


def linearized_block(
    variant: Variant,
    pop: Population,
    x_s: np.ndarray,
    y_s: np.ndarray,
    pi_s: np.ndarray,
    p_s: np.ndarray,
    r: np.ndarray,
    coef: np.ndarray | None = None,
) -> np.ndarray:
    """First-order expansion of a reweighted estimator around the true model,
    for a stack of samples: the fitted total plus the HT total of the
    residuals, with gamma at level "U" for population-level calibration and
    at level "S" otherwise.

    Arrays are (B, n) and (B, n, q) over the sampled units of B replicates,
    padded to a common n with rows x = 0, y = 0, pi = 1, p = 1, r = 0, which
    add exact zeros. ``coef`` ((q,) or (B, q)) replaces the gamma the
    variant computes from the data. Returns the B estimates, NaN where the
    gamma system is singular.
    """
    lin = _Linearization.of(variant)
    if coef is None:
        coef = (gamma(variant, pop.aux, pop.y, 1.0, pop.true_p, "U") if lin.population_level
                else gamma(variant, x_s, y_s, pi_s, p_s, "S"))
    coef = np.broadcast_to(np.nan if coef is None else coef, (len(x_s), x_s.shape[-1]))
    fitted = lin.scale(pi_s, p_s) * (x_s @ coef[..., None])[..., 0]
    fitted_total = coef @ pop.aux.sum(axis=0) if lin.population_level else np.sum(fitted / pi_s, axis=-1)
    return fitted_total + np.sum(r / (pi_s * p_s) * (y_s - fitted), axis=-1)


def linearized_estimate(
    variant: Variant,
    pop: Population,
    sample: Sample,
    resp: RespondentSet,
    gamma: np.ndarray | None = None,
) -> float:
    """First-order expansion of a reweighted estimator around the true model:
    a stack of one for linearized_block.

    Simulation-only diagnostic: uses the true response probabilities, and the
    population-level variant also reads the whole population. When ``gamma``
    is omitted it is computed from the same data; a singular gamma system
    raises ValueError.
    """
    idx = sample.indices
    lin = linearized_block(
        variant, pop, pop.aux[idx][None], pop.y[idx][None], sample.pi_s[None],
        pop.true_p[idx][None], resp.r[None].astype(float), gamma,
    )[0]
    if np.isnan(lin):
        raise ValueError(f"singular gamma system for the {variant.value} linearization")
    return float(lin)
