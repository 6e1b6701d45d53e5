"""Exception types shared across the package."""


class AdastratError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AdastratError):
    """Invalid run configuration (CLI exit code 2)."""


class BoundsError(AdastratError, ValueError):
    """A parameter vector lies outside its declared box."""


class FitError(AdastratError):
    """Least-squares fit cannot proceed (rank deficiency, too few samples)."""


class DegenerateModelError(AdastratError):
    """The surrogate residual scale is zero or negative where a positive one is required."""


class AllocationError(AdastratError):
    """No feasible sample allocation exists (CLI exit code 4)."""


class UnfillableStratumError(AllocationError):
    """Rejection sampling could not produce enough candidates for a stratum."""

    def __init__(self, stratum: int, requested: int, found: int, estimated_weight: float):
        self.stratum = stratum
        self.requested = requested
        self.found = found
        self.estimated_weight = estimated_weight
        super().__init__(
            f"stratum {stratum}: found only {found} of {requested} candidates within the "
            f"draw cap (estimated stratum weight {estimated_weight:.3e}); widen the strata "
            f"or raise the per-stratum draw cap"
        )


class EvaluationThresholdError(AdastratError):
    """Too many evaluations failed to continue the campaign (CLI exit code 3)."""


class ContractError(AdastratError):
    """An internal data contract was violated by the caller."""
