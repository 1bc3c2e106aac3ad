"""Exception taxonomy shared across the package."""


class GasketError(Exception):
    """Base class for all package errors."""


class DomainError(GasketError, ValueError):
    """Arguments outside an operation's mathematical domain."""


class ResourceLimitError(GasketError, RuntimeError):
    """A configured cap (level, record count) would be exceeded."""


class StructuralError(GasketError, RuntimeError):
    """A structural prediction failed (counts, block pattern, mixed levels)."""


class MismatchError(StructuralError):
    """A numerical eigenvalue could not be matched to a predicted record."""


class NumericError(GasketError, RuntimeError):
    """Numerical routine failed (no convergence, residual too large)."""


class ConvergenceError(NumericError):
    """A declared limit or stabilization target was not reached."""


class WindowError(DomainError):
    """Requested cutoff exceeds the resolvable window of the graph level."""


class ConfigError(GasketError, ValueError):
    """Run configuration failed validation; carries the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config.{field}: {message}")
