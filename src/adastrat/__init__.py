"""Adaptive stratified sampling for rare-event probability estimation.

The pipeline: fit a cheap linear surrogate to a preliminary batch of
expensive evaluations, slice the surrogate's range into strata around the
critical value, estimate how often random inputs land in each stratum from a
huge surrogate-only pool, predict per-stratum exceedance odds from a Laplace
residual model, and spend the remaining evaluation budget where it shrinks
the estimator variance most. One adaptive iteration or several smaller ones;
the estimate, its variance, and the cost of matching it with naive Monte
Carlo come out the other end.
"""

from .campaign import (
    RunState,
    final_report,
    load_state,
    run_campaign,
    run_iteration,
    run_preliminary,
)
from .config import RunConfig, load_config
from .errors import (
    AdastratError,
    AllocationError,
    BoundsError,
    ConfigError,
    ContractError,
    DegenerateModelError,
    EvaluationThresholdError,
    FitError,
    UnfillableStratumError,
)
from .estimator import RareEventEstimate
from .evaluators import ExternalEvaluator, SyntheticObjective, oracle_probability
from .space import DEFAULT_SPACE, ParameterDef, ParameterSpace

__version__ = "0.1.0"
