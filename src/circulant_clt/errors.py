"""Exception types shared across the package: two kinds of invalid input.
A value that leaves the float range is refused as a ValueError naming it."""


class SmoothnessRequiredError(ValueError):
    """An operation needed a smooth ensemble (bounded |u'|, |u''|) and got none."""


class ConfigError(ValueError):
    """A configuration document failed validation."""
