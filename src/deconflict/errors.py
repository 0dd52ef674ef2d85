"""Exception types shared across the toolkit."""


class DeconflictError(Exception):
    """Base class for all toolkit errors."""


class TooManyAgents(DeconflictError):
    """Exhaustive order search was asked to exceed its permutation cap."""


class TopologyRejectionExhausted(DeconflictError):
    """A random topology's vertiport found no place within its draw budget."""


class DegenerateSamples(DeconflictError):
    """All sample values are equal; no histogram support exists."""


class NonConvergence(DeconflictError):
    """Iterative parameter refinement did not converge within its cap."""


class OutOfProjectionRange(DeconflictError):
    """Point too far from the projection reference for a local plane."""


class UnknownId(DeconflictError):
    """A mission id was not found in the scenario."""


class ScenarioFormatError(DeconflictError):
    """Scenario file failed schema validation."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
