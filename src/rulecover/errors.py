"""Exception types shared across the package, and the integer setting check."""

import operator


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


def _require_int_fields(config, **minimums):
    """``_require_int`` on fields of a frozen dataclass, storing each int."""
    for name, minimum in minimums.items():
        value = _require_int(name, getattr(config, name), minimum)
        object.__setattr__(config, name, value)
