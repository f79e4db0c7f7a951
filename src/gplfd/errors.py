"""Exception types shared across the toolkit.

Every error raised on purpose derives from ToolkitError so callers (and the
command line driver) can separate anticipated failures from genuine bugs.
Messages should name the violated precondition.
"""


class ToolkitError(Exception):
    """Base class for all anticipated toolkit failures."""


class InvalidInputError(ToolkitError, ValueError):
    """An argument violates a documented precondition."""

    row = None  # set by row-wise checks, so a file reader can name the line


class InsufficientDataError(InvalidInputError):
    """Too few data points for the requested operation."""


class DegenerateTrajectoryError(InvalidInputError):
    """A trajectory has zero path length where positive length is required."""


class InconsistentConstraintError(InvalidInputError):
    """Two exact constraints demand different values at the same input."""


class ParseError(InvalidInputError):
    """A data file could not be parsed.

    Carries the one-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(InvalidInputError):
    """A data file is well formed but declares an unsupported format."""


class NotFittedError(ToolkitError, RuntimeError):
    """A model was used before it was fitted."""


class NumericalConditioningError(ToolkitError, RuntimeError):
    """A linear system stayed numerically singular after regularization."""


class OptimizationFailureError(ToolkitError, RuntimeError):
    """No start point of a hyperparameter search produced a usable optimum."""


class DivergenceError(ToolkitError, RuntimeError):
    """Simulated state stopped being finite.

    Carries the index of the first bad step.
    """

    def __init__(self, message, step=None):
        if step is not None:
            message = f"{message} (first bad step: {step})"
        super().__init__(message)
        self.step = step
