"""Point estimators of the population total and the linearization diagnostics.

Six estimator variants are tracked: the full-sample HT estimator, the
two-phase estimator with true response probabilities, and the four
reweighted variants whose response probabilities come from a fitted
estimating equation. The linearized forms and their gamma coefficients
require true response probabilities (and, for the population-level variant,
full-population data), so they live behind a simulation-diagnostics
boundary and are never part of production estimation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .population import Population
from .designs import Sample
from .response import RespondentSet
from .solvers import EEKind, EstimatingEquation, FitNotConvergedError, FitResult, _cholesky_solve

__all__ = [
    "Variant",
    "EstimateRecord",
    "estimating_equation",
    "ht_estimate",
    "two_phase_estimate",
    "nwa_estimate",
    "gamma_cal_population",
    "gamma_cal_sample",
    "gamma_mle_sample",
    "gamma_hat_mle",
    "gamma_hat_cal",
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

    variant: Variant
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
    return EstimateRecord(variant=variant, value=float(w @ y_r), weights=w)


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


def gamma_cal_population(pop: Population) -> np.ndarray | None:
    """Population regression coefficient with weights (1 - p_i), over all of U."""
    w = 1.0 - pop.true_p
    return _solve_normal_equations(pop.aux, pop.y, w, w)


def gamma_cal_sample(x_s, y_s, pi_s, p_s) -> np.ndarray | None:
    """Sample-level coefficient with weights (1 - p_i)/pi_i over S."""
    x_s = np.atleast_2d(np.asarray(x_s, dtype=float))
    w = (1.0 - np.asarray(p_s, dtype=float)) / np.asarray(pi_s, dtype=float)
    return _solve_normal_equations(x_s, np.asarray(y_s, dtype=float), w, w)


def gamma_mle_sample(x_s, y_s, pi_s, p_s, survey_weighted: bool = False) -> np.ndarray | None:
    """Sample-level MLE coefficient: [sum k p(1-p) xx^T]^{-1} sum (1-p)/pi x y."""
    x_s = np.atleast_2d(np.asarray(x_s, dtype=float))
    pi_s = np.asarray(pi_s, dtype=float)
    p_s = np.asarray(p_s, dtype=float)
    k = 1.0 / pi_s if survey_weighted else np.ones_like(pi_s)
    w_matrix = k * p_s * (1.0 - p_s)
    w_rhs = (1.0 - p_s) / pi_s
    return _solve_normal_equations(x_s, np.asarray(y_s, dtype=float), w_matrix, w_rhs)


def gamma_hat_mle(x_r, y_r, pi_r, p_hat_r, survey_weighted: bool = False) -> np.ndarray | None:
    """Respondent plug-in MLE coefficient: [sum k(1-p) xx^T]^{-1} sum (1/pi)((1-p)/p) x y."""
    x_r = np.atleast_2d(np.asarray(x_r, dtype=float))
    pi_r = np.asarray(pi_r, dtype=float)
    p_hat_r = np.asarray(p_hat_r, dtype=float)
    k = 1.0 / pi_r if survey_weighted else np.ones_like(pi_r)
    w_matrix = k * (1.0 - p_hat_r)
    w_rhs = (1.0 - p_hat_r) / (pi_r * p_hat_r)
    return _solve_normal_equations(x_r, np.asarray(y_r, dtype=float), w_matrix, w_rhs)


def gamma_hat_cal(x_r, y_r, pi_r, p_hat_r) -> np.ndarray | None:
    """Respondent plug-in calibration coefficient with weights (1/pi)((1-p)/p)."""
    x_r = np.atleast_2d(np.asarray(x_r, dtype=float))
    w = (1.0 - np.asarray(p_hat_r, dtype=float)) / (
        np.asarray(pi_r, dtype=float) * np.asarray(p_hat_r, dtype=float)
    )
    return _solve_normal_equations(x_r, np.asarray(y_r, dtype=float), w, w)


def linearized_block(
    variant: Variant,
    pop: Population,
    x_s: np.ndarray,
    y_s: np.ndarray,
    pi_s: np.ndarray,
    p_s: np.ndarray,
    r: np.ndarray,
    gamma: np.ndarray | None = None,
) -> np.ndarray:
    """First-order expansion of a reweighted estimator around the true model,
    for a stack of samples.

    Arrays are (B, n) and (B, n, q) over the sampled units of B replicates,
    padded to a common n with rows x = 0, y = 0, pi = 1, p = 1, r = 0, which
    add exact zeros. ``gamma`` ((q,) or (B, q)) replaces the coefficients
    the variant computes from the data: the sample-level gamma systems, as
    one stack, or the population-level one. Returns the B estimates, NaN
    where the gamma system is singular.
    """
    if variant in (Variant.MLE_K1, Variant.MLE_KINVPI):
        sw = variant is Variant.MLE_KINVPI
        if gamma is None:
            gamma = gamma_mle_sample(x_s, y_s, pi_s, p_s, survey_weighted=sw)
        k = 1.0 / pi_s if sw else np.ones_like(pi_s)
        scale = k * pi_s * p_s
    elif variant is Variant.CAL_U:
        if gamma is None:
            gamma = gamma_cal_population(pop)
        if gamma is None:
            gamma = np.full(pop.n_aux, np.nan)
        scale = 1.0
    elif variant is Variant.CAL_S:
        if gamma is None:
            gamma = gamma_cal_sample(x_s, y_s, pi_s, p_s)
        scale = 1.0
    else:
        raise ValueError(f"no linearized form for variant {variant}")
    gamma = np.broadcast_to(gamma, (len(x_s), x_s.shape[-1]))
    fitted = scale * (x_s @ gamma[..., None])[..., 0]
    # The total of the fitted values (known over U for the population-level
    # variant, its HT estimate otherwise) plus the expanded residuals.
    if variant is Variant.CAL_U:
        fitted_total = gamma @ pop.aux.sum(axis=0)
    else:
        fitted_total = np.sum(fitted / pi_s, axis=-1)
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
