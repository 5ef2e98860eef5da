"""Exception types shared across the package, the codec of decoded JSON, and
the input rules: one check per kind of input, each refusing with a
`ValidationError`."""

import math
import numbers
from dataclasses import MISSING, fields

import numpy as np


class TenregError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TenregError, ValueError):
    """Bad user-supplied input (CLI exit code 2); a ValueError too.  Every
    refusal of an input raises it; `SvdFailure` and `BudgetExhausted` report
    outcomes instead."""


class SvdFailure(TenregError):
    pass


class BudgetExhausted(TenregError):
    """Greedy packing accepted fewer than two elements within its candidate
    budget."""


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


def check_real(name, value, least, *, strict=False):
    """Refuse `value` unless it is a finite real number (not a bool) of at
    least `least`, or above `least` if `strict`: every scale's rule."""
    if not (is_real(value) and (value > least if strict else value >= least)):
        bound = ">" if strict else ">="
        raise ValidationError(f"{name} must be a finite number {bound} {least}, got {value!r}")


def check_seed(seed):
    """A `np.random.SeedSequence` as it is, or else the count rule's seed, an
    integer >= 0: every generator seed's rule.  A seed that a report echoes
    takes the count rule alone, as JSON holds only the integer."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return check_count("seed", seed, 0)


def check_finite(name, arr):
    """`arr` as a float64 array, refused unless every entry is finite: every
    array's rule."""
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def check_choice(name, value, choices):
    """Refuse `value` unless it is one of the strings `choices`: every named
    option's rule."""
    if value not in tuple(choices):
        raise ValidationError(f"unknown {name} {value!r}: choose one of {', '.join(choices)}")


def check_shape(name, shape):
    """`shape` as a tuple, refused unless it is a tuple or list of three
    integers (not bools) of at least 1: every tensor shape's rule."""
    if not (isinstance(shape, (tuple, list)) and len(shape) == 3
            and all(is_int(d) and d >= 1 for d in shape)):
        raise ValidationError(f"{name} must be three integers >= 1, got {shape!r}")
    return tuple(shape)


def check_split(split, order):
    """Refuse `split` unless it is an integer (not a bool) in 1..`order`, a
    covariate prefix of an order-`order` truth: every split's rule."""
    if not (is_int(split) and 1 <= split <= order):
        raise ValidationError(f"split must be an integer in 1..{order}, got {split!r}")
