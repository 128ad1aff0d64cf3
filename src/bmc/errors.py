"""Exception and warning types shared across the package."""


class InvalidDimensionError(ValueError):
    """Fock-space truncation dimension is out of range."""


class InvalidParameterError(ValueError):
    """A physical parameter is outside its admissible range."""


class InvalidTimeError(ValueError):
    """A propagation time is negative or not finite."""


class DimensionMismatchError(ValueError):
    """Two operands live on different truncated Fock spaces."""


class NotAStateError(ValueError):
    """A matrix violates the density-matrix invariants."""


class StiffnessError(RuntimeError):
    """The adaptive step size underflowed, or the right-hand-side work budget
    ran out, before the integrator reached the target time."""


class TruncationError(RuntimeError):
    """The Fock-space truncation is too small for the requested computation."""


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


class TruncationWarning(UserWarning):
    """The Fock-space truncation is marginal; results may lose accuracy."""
