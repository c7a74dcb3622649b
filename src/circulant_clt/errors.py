"""Exception types for two kinds of invalid input, and the integer check
every size, count and seed passes.  A value that leaves the float range
is refused as a ValueError naming it."""

import operator

import numpy as np


class SmoothnessRequiredError(ValueError):
    """An operation needed a smooth ensemble (bounded |u'|, |u''|) and got none."""


class ConfigError(ValueError):
    """A configuration document failed validation."""


def require_integers(**values) -> dict[str, int]:
    """Each size, count or seed as a Python int, by name; refuse one that
    is not an integer (bool and float too)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, not {value!r}")
    return {name: operator.index(value) for name, value in values.items()}
