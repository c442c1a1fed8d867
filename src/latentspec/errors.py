"""Exception and warning types shared across the package."""


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

    Carries up to ``max_report`` offending (row, col) positions.
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


class NotOrthonormalWarning(UserWarning):
    """Rows expected to be orthonormal failed the check; result still computed."""
