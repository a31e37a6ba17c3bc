"""Exception types shared across the package."""

__all__ = ["ConfigError", "ConvergenceError", "SingularGainError"]


class ConfigError(ValueError):
    """Raised when an experiment config is malformed.

    The message names the offending field (dotted path, e.g. "grid.h") so
    command-line diagnostics can point at the exact key.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ConvergenceError(RuntimeError):
    """Raised when an iterative evaluation fails to meet its tolerance."""


class SingularGainError(ValueError):
    """Raised when an input-gain value is too close to zero to invert."""
