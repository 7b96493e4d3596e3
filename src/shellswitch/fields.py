"""Numeric fields of the JSON configs, under one rule: a field holds a JSON
number.  A boolean, a string, NaN or an infinity is rejected, never coerced,
and a missing key is an input error naming it."""

import sys

from .errors import InputError, MissingKeyError

FLOAT_MAX = sys.float_info.max


def finite(value, name: str, error: type[Exception] = InputError) -> float:
    """A finite float; an integer too large for a float is not finite."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not abs(value) <= FLOAT_MAX:
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def required(doc: dict, key: str):
    """doc[key], whatever its type; a missing key is a MissingKeyError."""
    try:
        return doc[key]
    except KeyError:
        raise MissingKeyError(key) from None


def real(doc: dict, key: str, error: type[Exception] = InputError) -> float:
    """A finite float field."""
    return finite(required(doc, key), key, error)


def amplitude(pair, name: str) -> complex:
    """A complex number given as a [re, im] pair of finite numbers."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise InputError(f"{name} must be a [re, im] pair, got {pair!r}")
    re, im = pair
    return complex(finite(re, f"{name}[0]"), finite(im, f"{name}[1]"))


def amplitudes(values, name: str) -> list[complex]:
    """A list of complex numbers, each a [re, im] pair."""
    if not isinstance(values, list):
        raise InputError(f"{name} must be a list of [re, im] pairs, got {values!r}")
    return [amplitude(z, f"{name}[{i}]") for i, z in enumerate(values)]


def integer(doc: dict, key: str, error: type[Exception] = InputError) -> int:
    """An integer field; a fractional number is rejected, not truncated."""
    value = required(doc, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise error(f"{key} must be an integer, got {value!r}")
    return int(value)
