"""Exception types shared across the package, and checks on decoded JSON."""

import math
import numbers


class TenregError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(TenregError):
    pass


class InvalidAxes(TenregError):
    pass


class ZeroTensor(TenregError):
    pass


class UnsupportedKind(TenregError):
    pass


class NoClosedFormProx(TenregError):
    pass


class UnmatchedPair(TenregError):
    pass


class InfeasibleClass(TenregError):
    pass


class BadCovarianceFactor(TenregError):
    pass


class UnstableModel(TenregError):
    pass


class SvdFailure(TenregError):
    pass


class BudgetExhausted(TenregError):
    """Greedy packing accepted fewer than two elements within its candidate
    budget.  `partial` is None, since such a set is no packing.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ValidationError(TenregError):
    """Bad user-supplied configuration (CLI exit code 2)."""


def json_key(obj, key, what):
    """``obj[key]`` from decoded JSON; a ValidationError naming `key` when
    `obj` is not an object that holds it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{what} JSON needs the key {key!r}")
    return obj[key]


def json_tuple(value):
    """A JSON array as a tuple; any other value as it is, for its check."""
    return tuple(value) if isinstance(value, list) else value


def is_int(value):
    """True for an integer that is not a bool (JSON true is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    """True for a finite real number that is not a bool."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )
