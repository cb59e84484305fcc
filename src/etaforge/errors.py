"""Exception hierarchy for etaforge."""


class EtaforgeError(Exception):
    """Base class for all etaforge errors."""


class FitError(EtaforgeError):
    """Asymptotic-expansion fit failed (ill-conditioned basis or residual over threshold)."""


class MissingCoefficientError(EtaforgeError):
    """A required expansion coefficient is absent from the declared model."""


class QuadratureError(EtaforgeError):
    """Quadrature did not converge across refinement levels."""


class SingularFamilyError(EtaforgeError):
    """A matrix family is singular at an evaluation point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class OrderError(EtaforgeError):
    """A symbol's order violates a trace-class precondition."""


class TruncationError(EtaforgeError):
    """Eigenvalue-window tail estimate stayed above tolerance at the maximum window."""


class ConfigError(EtaforgeError):
    """Invalid experiment configuration."""
