"""The package's exception types: the base class, and each type ``cli.EXIT_CODES`` maps to an exit code."""


class AdastratError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AdastratError):
    """Invalid run configuration."""


class FitError(AdastratError):
    """Least-squares fit cannot proceed (rank deficiency, too few samples, an objective too large to fit)."""


class AllocationError(AdastratError):
    """No feasible sample allocation exists."""


class EvaluationThresholdError(AdastratError):
    """Too many evaluations failed to continue the campaign."""
