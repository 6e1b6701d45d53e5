"""Exception types shared across the package; ``cli.EXIT_CODES`` gives the exit code of each the command line expects."""


class AdastratError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AdastratError):
    """Invalid run configuration."""


class BoundsError(AdastratError, ValueError):
    """A parameter vector lies outside its declared box."""


class FitError(AdastratError):
    """Least-squares fit cannot proceed (rank deficiency, too few samples, an objective too large to fit)."""


class DegenerateModelError(AdastratError):
    """The surrogate residual scale is zero or negative where a positive one is required."""


class AllocationError(AdastratError):
    """No feasible sample allocation exists."""


class UnfillableStratumError(AllocationError):
    """Rejection sampling could not produce enough candidates for a stratum."""

    def __init__(self, stratum: int, requested: int, found: int, estimated_weight: float):
        self.stratum = stratum
        self.requested = requested
        self.found = found
        self.estimated_weight = estimated_weight
        super().__init__(
            f"stratum {stratum}: found only {found} of {requested} candidates within the "
            f"draw cap (estimated stratum weight {estimated_weight:.3e}); raise "
            f"allocation_prune_share to leave thin strata out of the plan, or widen the band "
            f"(band_halfwidth_sigmas) or use fewer strata (inner_strata)"
        )


class EvaluationThresholdError(AdastratError):
    """Too many evaluations failed to continue the campaign."""


class ContractError(AdastratError):
    """An internal data contract was violated by the caller."""
