"""Variance estimators for the reweighted totals and the exact variance oracle.

Each estimator splits into a sampling component (a double sum over respondent
pairs with the design's joint inclusion probabilities) and a nonresponse
component (a single sum of squared residuals, hence nonnegative). For Poisson
designs the pair term vanishes identically and is short-circuited to an exact
zero. The theoretical decomposition evaluates both components in closed form
from the full population and true probabilities, for oracle use in tests and
simulations only; it returns the same VarianceEstimate as the estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import DesignKind, DesignSpec, joint_inclusion
from .estimators import Variant, _scale, gamma
from .population import Population

__all__ = [
    "Z_95",
    "VarianceEstimate",
    "var_hat_ht",
    "var_hat",
    "var_hat_block",
    "var_hat_mle",
    "var_hat_calU",
    "var_hat_calS",
    "theoretical_variance",
    "confidence_interval",
]

# Normal critical value for the nominal 95% interval, fixed by convention.
Z_95 = 1.96


@dataclass(frozen=True)
class VarianceEstimate:
    """Sampling + nonresponse variance components for one reweighted total.

    A singular gamma system (by the solver's Cholesky rule, see
    estimators.gamma) leaves ``gamma_hat`` and the dependent pieces NaN; the
    sampling component of the sample-level variants never needs gamma and
    stays usable. ``v_sam`` may be negative under SRSWOR in pathological
    samples and is reported as-is.
    """

    v_sam: float
    v_nr: float
    gamma_hat: np.ndarray | None

    @property
    def total(self) -> float:
        return self.v_sam + self.v_nr


def _cross_term(design: DesignSpec, u: np.ndarray):
    """Pair term sum_{i != j} (pi_ij - pi_i pi_j)/pi_ij * u_i u_j over the last axis of u.

    ``u`` already carries the 1/pi expansion (u_i = z_i / (pi_i p_i)). Zero
    for Poisson designs (pi_ij = pi_i pi_j exactly). For SRSWOR the
    coefficient c is constant, so the double sum is c * ((sum u)^2 - sum u^2),
    evaluated in O(m).
    """
    if design.kind is DesignKind.POISSON:
        return 0.0
    pi_ij = joint_inclusion(design, 0, 1)
    pi_i = design.pi[0]
    coeff = (pi_ij - pi_i * pi_i) / pi_ij
    total = np.sum(u, axis=-1)
    return coeff * (total * total - np.sum(u * u, axis=-1))


def var_hat_ht(design: DesignSpec, pi_s: np.ndarray, y_s: np.ndarray) -> float:
    """Design-unbiased variance estimator of the full-sample HT total."""
    pi_s = np.asarray(pi_s, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    single = float(np.sum((1.0 - pi_s) / pi_s**2 * y_s**2))
    return single + float(_cross_term(design, y_s / pi_s))


def var_hat_block(
    variant: Variant,
    design: DesignSpec,
    pi_r: np.ndarray,
    x_r: np.ndarray,
    y_r: np.ndarray,
    p_hat_r: np.ndarray,
):
    """Variance components of a fitted variant for a stack of replicates.

    Arrays are (B, m) and (B, m, q) over the respondents of B replicates,
    padded to a common m with rows x = 0, y = 0, pi = 1, p_hat = 1, which add
    exact zeros. Returns (v_sam, v_nr, gamma_hat), with gamma_hat the
    variant's gamma at level "S_r". The gamma systems are solved as one stack;
    a singular one (a non-finite entry or a Cholesky pivot lost to rounding)
    leaves gamma_hat a NaN row and every component that needs it NaN. The
    full-response edge (every p_hat = 1) takes gamma_hat = 0, since every
    (1 - p_hat) weight vanishes and any coefficient gives the same (zero)
    nonresponse component.
    """
    gamma_hat = gamma(variant, x_r, y_r, pi_r, p_hat_r, "S_r")
    full_response = np.all(p_hat_r == 1.0, axis=-1)
    gamma_hat = np.where(np.isnan(gamma_hat) & full_response[:, None], 0.0, gamma_hat)
    resid = y_r - _scale(variant, pi_r, p_hat_r) * (x_r @ gamma_hat[..., None])[..., 0]
    sam = resid if variant.population_level else y_r
    single = np.sum((1.0 - pi_r) / pi_r**2 * sam**2 / p_hat_r, axis=-1)
    v_sam = single + _cross_term(design, sam / (pi_r * p_hat_r))
    v_nr = np.sum((1.0 - p_hat_r) / (pi_r * p_hat_r) ** 2 * resid**2, axis=-1)
    return v_sam, v_nr, gamma_hat


def var_hat(
    variant: Variant,
    design: DesignSpec,
    pi_r: np.ndarray,
    x_r: np.ndarray,
    y_r: np.ndarray,
    p_hat_r: np.ndarray,
) -> VarianceEstimate:
    """Variance estimate of one replicate's total for a fitted variant."""
    stack = [
        np.asarray(a, dtype=float)[None]
        for a in (pi_r, np.atleast_2d(np.asarray(x_r, dtype=float)), y_r, p_hat_r)
    ]
    v_sam, v_nr, gamma_hat = var_hat_block(variant, design, *stack)
    return VarianceEstimate(v_sam=float(v_sam[0]), v_nr=float(v_nr[0]), gamma_hat=gamma_hat[0])


def var_hat_mle(
    design: DesignSpec,
    pi_r: np.ndarray,
    x_r: np.ndarray,
    y_r: np.ndarray,
    p_hat_r: np.ndarray,
    survey_weighted: bool = False,
) -> VarianceEstimate:
    """Variance estimate for an MLE-reweighted total (k = 1 or 1/pi)."""
    variant = Variant.MLE_KINVPI if survey_weighted else Variant.MLE_K1
    return var_hat(variant, design, pi_r, x_r, y_r, p_hat_r)


def var_hat_calU(
    design: DesignSpec,
    pi_r: np.ndarray,
    x_r: np.ndarray,
    y_r: np.ndarray,
    p_hat_r: np.ndarray,
) -> VarianceEstimate:
    """Variance estimate for the population-level calibration total.

    Both components run over the residuals e_i = y_i - x_i.gamma_hat, since
    the linearized estimator tracks the HT total of those residuals.
    """
    return var_hat(Variant.CAL_U, design, pi_r, x_r, y_r, p_hat_r)


def var_hat_calS(
    design: DesignSpec,
    pi_r: np.ndarray,
    x_r: np.ndarray,
    y_r: np.ndarray,
    p_hat_r: np.ndarray,
) -> VarianceEstimate:
    """Variance estimate for the sample-level calibration total.

    The sampling component runs over the raw y values (the linearized
    estimator keeps the full-sample HT sampling variance); the nonresponse
    component uses the same residuals as the population-level variant.
    """
    return var_hat(Variant.CAL_S, design, pi_r, x_r, y_r, p_hat_r)


def theoretical_variance(
    pop: Population,
    design: DesignSpec,
    variant: Variant,
) -> VarianceEstimate:
    """Exact two-phase variance decomposition under known p and design.

    Sampling component: per-unit closed form for Poisson, the classical
    N^2 (1-f)/n S_z^2 for SRSWOR, with z the raw y or the population
    residual of the variant's linearization (gamma at level "U"), as the
    variant says. Nonresponse component: the design expectation of the
    conditional variance, a single sum over U. gamma_hat is that population
    gamma, or None where none enters (ht, p, full response).
    """
    pi = design.pi
    p = pop.true_p
    y = pop.y
    N = pop.size
    full_response = bool(np.all(p == 1.0))

    # The population residual of the variant's linearization. Under full
    # response every (1 - p) weight, and with it the gamma system, vanishes.
    resid = z = y
    g = None
    if variant.fitted and not full_response:
        g = gamma(variant, pop.aux, y, pi, p, "U")
        if np.isnan(g).any():
            raise ValueError("singular population gamma system")
        resid = y - _scale(variant, pi, p) * (pop.aux @ g)
        z = resid if variant.population_level else y

    if design.kind is DesignKind.POISSON:
        v_sam = float(np.sum((1.0 - pi) / pi * z**2))
    else:
        f = design.n_target / N
        s2 = float(np.var(z, ddof=1))
        v_sam = N * N * (1.0 - f) / design.n_target * s2

    v_nr = 0.0 if variant is Variant.HT or full_response else float(np.sum((1.0 - p) / (pi * p) * resid**2))

    return VarianceEstimate(v_sam=v_sam, v_nr=v_nr, gamma_hat=g)


def confidence_interval(estimate: float, variance: float) -> tuple[float, float] | None:
    """Nominal 95% interval estimate +- 1.96 sqrt(variance); None if variance < 0."""
    if not math.isfinite(variance) or variance < 0.0:
        return None
    half = Z_95 * math.sqrt(variance)
    return (estimate - half, estimate + half)
