"""Exception types shared across the package."""


class DualgiError(Exception):
    """Base class for all library errors."""


class DimensionError(DualgiError, ValueError):
    """Inputs have incompatible or invalid shapes."""


class InverseNotExistError(DualgiError):
    """A requested dual generalized inverse does not exist.

    Carries the existence certificate so callers can inspect the
    residuals that led to the verdict.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class HypothesisError(DualgiError):
    """A theorem hypothesis required by the operation does not hold."""


class NumericalError(DualgiError):
    """A LAPACK routine failed (``LinAlgError``), a witness, residual or
    report came out not finite, or the compact DCEPGI missed ``dcepgi``."""
