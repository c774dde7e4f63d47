"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario or component configuration is inconsistent or unreadable."""


class QuadratureError(RuntimeError):
    """Harmonic quadrature needs too many nodes or fails its aliasing check."""


class EstimationError(RuntimeError):
    """A stage of the phase/temperature estimation pipeline failed.

    Raised instead of returning a silent number; estimate_temperature
    converts it into a flagged invalid TemperatureEstimate.
    """


class PlanRejection(ValueError):
    """Frequency plan rejected; `violations` lists every failed constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
