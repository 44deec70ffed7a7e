"""Exception types shared across the package."""


class ChdbcError(Exception):
    """Base class for all package errors."""


class DomainError(ChdbcError):
    """Argument outside the domain of a singular nonlinearity."""


class NonZeroMeanError(ChdbcError):
    """A zero-mean function was required but the input has nonzero mean."""


class SingularSystemError(ChdbcError):
    """A linear factorization or solve failed."""


class NewtonDivergedError(ChdbcError):
    """Newton iteration did not reach the requested tolerance."""

    def __init__(self, message, residual=None, iterations=None, time=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.time = time


class StaleStateError(ChdbcError):
    """The state does not carry the data required (no step taken yet)."""


class InsufficientDataError(ChdbcError):
    """Too few snapshots for the requested diagnostic."""


class InadmissibleTestFunctionError(ChdbcError):
    """Test function violates mean or range admissibility."""


class StiffnessFailureError(ChdbcError):
    """Adaptive ODE integration step size collapsed, or a stationary root
    find has no bracket or leaves the floating-point range."""


class ConfigError(ChdbcError, ValueError):
    """Invalid or unknown experiment configuration, a run parameter off its
    grid, or an output file that cannot be written (a ValueError too, as any
    rejected argument value)."""


class CorruptSnapshotError(ChdbcError, ValueError):
    """A snapshot file differs from the writer's template for the domain
    outside its u values (header, coordinates, kinds, row layout or row
    count), or holds a u value that does not parse as a float, is not
    finite or holds a line end."""
