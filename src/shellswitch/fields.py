"""Numeric fields of the JSON configs, under one rule: a field holds a JSON
number.  A boolean, a string, NaN or an infinity is rejected, never coerced."""

import sys

from .errors import InputError

FLOAT_MAX = sys.float_info.max


def real(doc: dict, key: str, error: type[Exception] = InputError) -> float:
    """A finite float field; an integer too large for a float is not finite."""
    value = doc[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not abs(value) <= FLOAT_MAX:
        raise error(f"{key} must be a finite number, got {value!r}")
    return float(value)


def integer(doc: dict, key: str, error: type[Exception] = InputError) -> int:
    """An integer field; a fractional number is rejected, not truncated."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise error(f"{key} must be an integer, got {value!r}")
    return int(value)
