"""Exception types raised across the harness."""


class RegimeBenchError(Exception):
    """Base class for all harness errors."""


class ParseError(RegimeBenchError):
    """Malformed input file content (message carries the line number)."""


class OrderingError(RegimeBenchError):
    """Timestamps within a patient stream are not non-decreasing."""


class EmptyEpisodeError(RegimeBenchError):
    """An operation needs at least one observed sample."""


class DimensionError(RegimeBenchError):
    """Vector lengths or spans do not line up."""


class IntegrityError(RegimeBenchError):
    """Data violates a contract (e.g. external values diverge from ground truth)."""


class CoverageError(RegimeBenchError):
    """An external file does not cover every required episode/index."""


class EstimationError(RegimeBenchError):
    """Not enough data to estimate a probability."""


class FitError(RegimeBenchError):
    """Mixture fitting cannot proceed (insufficient data)."""


class ConvergenceError(FitError):
    """The least-squares optimizer did not converge."""


class AllocationError(RegimeBenchError):
    """Stationary masking cannot reach the requested ratio."""


class SelectionError(RegimeBenchError):
    """Fewer eligible events than requested (e.g. post-prandial peaks)."""


class RoutingError(RegimeBenchError):
    """A transient gap has no external imputation to route to."""


class MetricDomainError(RegimeBenchError):
    """Metric preconditions violated (non-positive truth, empty selection)."""


class ConfigError(RegimeBenchError):
    """Invalid configuration: a synthetic-fixture field or a command setting."""
