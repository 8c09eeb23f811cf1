"""Exception types and the argument rules shared across the package.

Validation never silently repairs data: a distribution that does not sum
to one, a matrix row that is not stochastic, or an out-of-range quantum
number is reported through one of these exceptions instead of being
normalized away.  Every bad argument raises an InvalidArgumentError or
one of its subclasses, so one except clause turns all of them away.

Integer and real-number arguments are checked by check_int and
check_real, the only implementations of those rules: a bool is never a
number here, and a real number must be finite.
"""

import math


class QmarkovError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(QmarkovError):
    """An argument is outside its documented domain."""


class RangeLimitError(InvalidArgumentError):
    """A size parameter exceeds the supported numerical range."""


class InvalidDistributionError(InvalidArgumentError):
    """A probability vector has a negative entry or does not sum to one."""


class InvalidStateError(InvalidArgumentError):
    """A quantum state vector is not normalized or has the wrong dimension."""


class DimensionMismatchError(InvalidArgumentError):
    """Two objects that must share an outcome label set do not."""


class InternalConsistencyError(QmarkovError):
    """Two redundant internal computations disagree; indicates a bug."""


class ConvergenceError(QmarkovError):
    """Iteration failed to converge within the allowed number of steps.

    Carries the last iterate and its residual so callers can inspect or
    report partial progress.
    """

    def __init__(self, message, last_iterate, residual, iterations):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class UndefinedTestError(QmarkovError):
    """A statistical test has no valid cells left after pooling."""


class FormatError(QmarkovError):
    """A serialized artifact violates its file format.

    ``line`` is the 1-based offending line number when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def check_int(name: str, value, minimum: int | None = None) -> int:
    """value, if it is an int (not a bool) no smaller than minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidArgumentError(f"{name} must be at least {minimum}, got {value}")
    return value


def check_real(name: str, value) -> float:
    """value as a float, if it is a finite int or float (not a bool)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
    return value
