"""Exception types shared across the package, and the codec of decoded JSON."""

import math
import numbers
from dataclasses import MISSING, fields


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
    budget."""


class ValidationError(TenregError, ValueError):
    """Bad user-supplied input (CLI exit code 2); a ValueError too."""


def json_key(obj, key, what):
    """``obj[key]`` from decoded JSON; a ValidationError naming `key` when
    `obj` is not an object that holds it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{what} JSON needs the key {key!r}")
    return obj[key]


def json_tuple(value):
    """A JSON array as a tuple; any other value as it is, for its check."""
    return tuple(value) if isinstance(value, list) else value


def fields_to_json(obj):
    """Every field of the dataclass `obj`, in field order: a value with its
    own ``to_json`` through it, a tuple or list as a new list."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if hasattr(value, "to_json"):
            value = value.to_json()
        out[f.name] = list(value) if isinstance(value, (tuple, list)) else value
    return out


def fields_from_json(cls, obj, what, **decode):
    """The dataclass `cls` from decoded JSON. A field with no default is
    read through `json_key`, so every key is checked before any value is
    decoded; any other field keeps its dataclass default when its key is
    left out, and a key that names no field is refused.  ``decode[name]``
    converts the value of field `name`."""
    values = {}
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            values[f.name] = json_key(obj, f.name, what)
        elif f.name in obj:
            values[f.name] = obj[f.name]
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"{what} JSON has unknown keys {unknown}")
    return cls(**{k: decode[k](v) if k in decode else v for k, v in values.items()})


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


def check_count(name, value, least):
    """`value` as a Python int, refused unless it is an integer (a numpy
    integer too, not a bool) of at least `least`: every count's rule."""
    if not (is_int(value) and value >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(name, value, least):
    """Refuse `value` unless it is a finite real number (not a bool) of at
    least `least`: every scale's rule."""
    if not (is_real(value) and value >= least):
        raise ValidationError(f"{name} must be a finite number >= {least}, got {value!r}")
