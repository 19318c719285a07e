"""Design-based estimation of finite-population totals under unit nonresponse.

Respondents are reweighted by inverse fitted response probabilities, with the
logistic model coefficients estimated either by maximum likelihood or by
calibrating auxiliary totals (raking) at the population or full-sample level.
Includes analytical variance estimators, an exact variance oracle, and a
deterministic Monte Carlo engine.
"""

from .population import (
    GenConfig,
    Population,
    generate_population,
    logistic_probs,
)
from .designs import (
    DesignKind,
    DesignSpec,
    Sample,
    draw_sample,
    joint_inclusion,
    poisson_design,
    srs_design,
)
from .response import RespondentSet, draw_response
from .solvers import (
    EstimatingEquation,
    FitNotConvergedError,
    FitResult,
    FitStatus,
    SolverControls,
    Stack,
    jacobian,
    residual,
    response_probabilities,
    solve,
    solve_block,
)
from .estimators import (
    EstimateRecord,
    estimating_equation,
    Variant,
    gamma,
    ht_estimate,
    linearized_block,
    nwa_estimate,
    two_phase_estimate,
)
from .variance import (
    VarianceEstimate,
    confidence_interval,
    theoretical_variance,
    var_hat,
    var_hat_block,
    var_hat_ht,
)
from .montecarlo import (
    STATUSES,
    VARIANTS,
    ReplicateColumns,
    Scenario,
    VariantMetrics,
    linearization_gap,
    mix_seed,
    run_study,
    write_raw_records,
)

__version__ = "0.1.0"
