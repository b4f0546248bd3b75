"""Exception types shared across the package."""


class HeunLabError(Exception):
    """Base class for all package-specific errors."""


class InputError(HeunLabError):
    """Malformed instance file, parameter string, or option combination."""


class InvalidParams(HeunLabError):
    """Structurally invalid equation or recurrence parameters (a in {0,1}, bad root, ...)."""


class IndicialPole(HeunLabError):
    """Chosen indicial root makes a recurrence denominator vanish at an integer index."""


class PoleAtIndex(HeunLabError):
    """Rational coefficient function evaluated at an integer index where its denominator vanishes."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"coefficient denominator vanishes at n = {index}")


class DegreeMismatch(HeunLabError):
    """Numerator/denominator degrees do not satisfy the required deg num = deg den pattern."""


class AllZeroLimits(HeunLabError):
    """Every coefficient limit is zero, so no boundary radius exists."""


class OutsideDomain(HeunLabError):
    """Evaluation point lies outside the guaranteed absolute-convergence domain."""


class InvalidC(HeunLabError):
    """Gauss-series lower parameter c is zero or a negative integer."""


class DomainError(HeunLabError):
    """Arguments fall outside the validity region of a bound or closed form."""


class NotFoundWithin(HeunLabError):
    """Search for a certified constant exhausted its budget without success."""


class InsufficientData(HeunLabError):
    """Not enough terms or samples to run the requested estimate."""


class MagnitudeOverflow(InputError):
    """An exact value past the range of float64, or nonzero and rounding to 0."""


class TruncationTooLarge(HeunLabError):
    """Requested truncation depth exceeds what the exact mode can enumerate."""
