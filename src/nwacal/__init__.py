"""Design-based estimation of finite-population totals under unit nonresponse.

Respondents are reweighted by inverse fitted response probabilities, with the
logistic model coefficients estimated either by maximum likelihood or by
calibrating auxiliary totals (raking) at the population or full-sample level.
Includes analytical variance estimators, an exact variance oracle, and a
deterministic Monte Carlo engine.

A name is public here exactly when its module lists it in ``__all__``.
"""

from .population import *
from .designs import *
from .response import *
from .solvers import *
from .estimators import *
from .variance import *
from .montecarlo import *

__version__ = "0.1.0"
