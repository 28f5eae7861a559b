"""Exception types shared across the package, and the setting checks.

Each ``_require_*`` check takes a setting's name and value and returns the
value as the Python type it is stored as (int, float, bool or tuple), or
raises ConfigError naming the setting. The config dataclasses store their
int, float and bool fields, and the grid its sequences, through
``_require_fields(self, check, *names, **bounds)``, so each kind of setting
has one rule, stated here. ``Dataset`` and ``Conjunction`` read their
sequence and bool fields through the same checks, raising DataError.
"""

import contextlib
import numbers
import operator

import numpy as np


class RulecoverError(Exception):
    """Base class for all rulecover errors."""


class DataError(RulecoverError, ValueError):
    """Malformed input data: bad values, length mismatch, or parse failure."""


class ConfigError(RulecoverError, ValueError):
    """Invalid configuration or an algorithm applied to unsuitable data."""


class InfeasibleError(RulecoverError, RuntimeError):
    """Computation refused because it would not finish at a sane scale."""


def _require_int(name, value, minimum):
    """``value`` as a Python int of at least ``minimum``; ConfigError for a
    smaller value or what ``operator.index`` refuses (1.5, "2"; not bools or
    numpy integers), instead of truncating it or failing later."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_real(name, value, low, high, closed=False, what=None):
    """``value`` as a Python float in (low, high), or [low, high] when
    ``closed``; ConfigError "``name`` must be ``what``" (by default, a real
    number in that interval) for a value outside it, NaN, a bool or a
    non-real such as "0.5" or None, instead of a TypeError or a coercion."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond any float
            value = float(value)
            if (low <= value <= high) if closed else (low < value < high):
                return value
    if what is None:
        bounds = f"[{low}, {high}]" if closed else f"({low}, {high})"
        what = f"a real number in {bounds}"
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def _require_bool(name, value, error=ConfigError):
    """``value`` as a Python bool; ``error`` (a setting's ConfigError, or a
    data type's DataError) for anything but a bool or numpy bool, such as
    "no", 0 or None, which would be read as truthiness."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _require_sequence(name, value, error=ConfigError):
    """``value`` as a tuple; ``error`` (as for ``_require_bool``) for a str or
    bytes (one word, not a sequence of them) and for what is not iterable,
    such as None or 5, instead of a TypeError or a split into letters."""
    if not isinstance(value, (str, bytes)):
        with contextlib.suppress(TypeError):
            return tuple(value)
    raise error(f"{name} must be a sequence, got {value!r}")


def _require_fields(config, check, *names, **bounds):
    """``check(name, value, **bounds)`` on fields of a frozen dataclass,
    storing what it returns."""
    for name in names:
        value = check(name, getattr(config, name), **bounds)
        object.__setattr__(config, name, value)
