"""Exception hierarchy shared by all billiardlab modules."""

__all__ = ["BilliardLabError", "InvalidArgumentError", "NumericalError", "QualityWarning"]


class BilliardLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(BilliardLabError, ValueError):
    """An argument violates a documented precondition."""


class NumericalError(BilliardLabError):
    """A numerical procedure failed to produce a usable result."""


class QualityWarning(UserWarning):
    """A statistical quality check failed; results may be degraded."""
