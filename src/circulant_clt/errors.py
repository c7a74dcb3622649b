"""Exception types shared across the package."""


class ImaginaryResidualError(ArithmeticError):
    """A quantity that must be real carried an imaginary part above tolerance.

    Traces and derivative symbols of real circulant matrices are real up to
    floating-point transform noise; a residual above tolerance indicates a
    numerical problem or an indexing-convention bug, never a valid result.
    """


class SmoothnessRequiredError(ValueError):
    """An operation needed a smooth ensemble (bounded |u'|, |u''|) and got none."""


class ConfigError(ValueError):
    """A configuration document failed validation."""
