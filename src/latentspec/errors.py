"""Exception and warning types, and the rules for scalars, shared across the package."""

import numbers
import operator


class LatentSpecError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetricError(LatentSpecError):
    """Input matrix is not symmetric within the tolerance."""


class NoConvergenceError(LatentSpecError):
    """The eigensolver reported that it did not converge."""


class OutOfSupportError(LatentSpecError):
    """A mean parameter lies outside the family's admissible region."""


class SupportViolationError(LatentSpecError):
    """Data entries are outside the family support (wrong family choice).

    Carries the first offending (row, col) positions, at most
    ``variance_estimation._MAX_REPORTED_VIOLATIONS`` (20) of them.
    """

    def __init__(self, message, locations=()):
        super().__init__(message)
        self.locations = list(locations)


class LengthMismatchError(LatentSpecError):
    """Vector/matrix dimensions do not agree."""


class DegenerateTailError(LatentSpecError):
    """Residual singular-value sum is empty (t = n)."""


class RankDeficientError(LatentSpecError):
    """A basis matrix does not have full row rank (or is too ill-conditioned)."""


class InvalidParameterError(LatentSpecError):
    """A distribution or configuration parameter is invalid."""


def as_real(value) -> float | None:
    """``value`` as a float if it is a ``numbers.Real`` but no bool, in the float
    range; None otherwise, for the caller to reject with its own message."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return float(value) if real else None
    except OverflowError:  # an integer past the float range
        return None


def as_integer(value, name: str) -> int:
    """``value`` as an int if it is no bool and has ``__index__``, as no float has."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


class NotOrthonormalWarning(UserWarning):
    """Rows expected to be orthonormal failed the check; result still computed."""
