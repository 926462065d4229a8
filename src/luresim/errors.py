"""Exception types shared across the package."""


class LuresimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(LuresimError):
    """Invalid dimensions, options, or unsupported structure."""


class EvaluationError(LuresimError):
    """A nonlinearity or signal produced a non-finite value.

    Carries the offending evaluation point when known.
    """

    def __init__(self, message, t=None, point=None):
        super().__init__(message)
        self.t = t
        self.point = point


class UsageError(LuresimError):
    """An operation was applied to data it does not apply to."""


class EmptyFibreError(LuresimError):
    """A selection was requested from an empty fibre.

    Raised by ``select_from_fibre``; a run's stage reports an empty fibre
    as loss of existence, a termination status, before any selection.
    """
