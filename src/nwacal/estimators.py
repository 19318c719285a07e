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

import math
from dataclasses import dataclass

import numpy as np

from .population import Population
from .solvers import EstimatingEquation, FitNotConvergedError, FitResult, Variant, _cholesky_solve, _require_fitted

__all__ = [
    "Variant",
    "EstimateRecord",
    "estimating_equation",
    "ht_estimate",
    "two_phase_estimate",
    "nwa_estimate",
    "gamma",
    "linearized_block",
]


#: Variants whose weights come from a fitted estimating equation, in Variant order.
FITTED_VARIANTS = tuple(v for v in Variant if v.fitted)


def estimating_equation(
    variant: Variant, x_s, pi_s, r, population_totals=None
) -> EstimatingEquation:
    """The estimating equation that fits a variant's response probabilities
    over one sample; population-level calibration needs the totals."""
    _require_fitted(variant)
    if variant.mle:
        return EstimatingEquation.mle(x_s, pi_s, r, survey_weighted=variant.k_inv_pi)
    if variant.population_level:
        return EstimatingEquation.cal_population(x_s, pi_s, r, population_totals)
    return EstimatingEquation.cal_sample(x_s, pi_s, r)


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


def _k(variant: Variant, pi):
    """The score weight k of an MLE variant, as solvers._terms weights it:
    1/pi for mle_invpi, 1 otherwise."""
    return 1.0 / pi if variant.k_inv_pi else 1.0


def _scale(variant: Variant, pi, p):
    """The scale of a fitted variant's fitted values scale_i x_i'gamma. Its
    estimator to first order is the total of the fitted values plus the HT
    total of the residuals y_i - scale_i x_i'gamma; the scale is k pi p for
    the MLE variants and 1 for calibration. cal_U knows the fitted total
    over U, so its sampling component runs on the residuals; the others run
    on y."""
    return _k(variant, pi) * pi * p if variant.mle else 1.0


def gamma(variant: Variant, x: np.ndarray, y: np.ndarray, pi, p: np.ndarray, level: str):
    """The gamma of a fitted variant's linearization: the solution of

        [sum_i omega_i a_i x_i x_i'] gamma = sum_i omega_i b_i x_i y_i,

    with b = 1 - p, and a = k pi p (1 - p) for the MLE variants or a = b for
    calibration (Kim & Riddles 2012; Deville & Sarndal 1992). The sums run
    at one of three levels: over U with omega = 1 (level "U"), over S with
    omega = 1/pi ("S") or over the respondents with omega = 1/(pi p) ("S_r",
    with p the fitted p_hat). a is written with the factors of pi p that
    omega leaves; calibration reads no pi at level "U". Arrays are (n,) and
    (n, q), giving gamma (q,), or a stack (B, n) and (B, n, q), giving (B, q).
    The systems are solved by the solver's Cholesky factorization, whose
    rule decides which are singular (a non-finite entry, or a pivot lost to
    rounding): a singular system gives a NaN gamma."""
    _require_fitted(variant)
    d, kept = {"U": (1.0, (pi, p)), "S": (pi, (p,)), "S_r": (pi * p, ())}[level]
    b = (1.0 - p) / d
    a = math.prod(kept, start=_k(variant, pi)) * (1.0 - p) if variant.mle else b
    lhs = (np.swapaxes(x, -1, -2) * a[..., None, :]) @ x
    rhs = ((b * y)[..., None, :] @ x)[..., 0, :]
    q = x.shape[-1]
    return _cholesky_solve(lhs.reshape(-1, q, q), rhs.reshape(-1, q)).reshape(rhs.shape)


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
    _require_fitted(variant)
    if coef is None:
        coef = (gamma(variant, pop.aux, pop.y, 1.0, pop.true_p, "U") if variant.population_level
                else gamma(variant, x_s, y_s, pi_s, p_s, "S"))
    coef = np.broadcast_to(coef, (len(x_s), x_s.shape[-1]))
    fitted = _scale(variant, pi_s, p_s) * (x_s @ coef[..., None])[..., 0]
    fitted_total = coef @ pop.aux_total if variant.population_level else np.sum(fitted / pi_s, axis=-1)
    return fitted_total + np.sum(r / (pi_s * p_s) * (y_s - fitted), axis=-1)

