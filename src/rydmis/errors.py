"""Shared exception types."""


class RydmisError(Exception):
    """Base class for errors raised by this package."""


class DimensionLimitError(RydmisError):
    """A requested state space exceeds the configured size guard."""


class ConvergenceError(RydmisError):
    """An iterative solver failed to converge."""
