"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation errors exit 1, numerical
failures exit 2, I/O problems exit 3.
"""


class KafError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(KafError, ValueError):
    """Invalid parameter, configuration value, or malformed input."""


class DimensionMismatchError(ValidationError):
    """Vectors or matrices with incompatible shapes."""


class NonFiniteInputError(ValidationError):
    """Input containing NaN or infinity."""


class NumericalError(KafError, ArithmeticError):
    """A numerical quantity left its safe operating range."""


class NearSingularGrowthError(NumericalError):
    """Dictionary growth refused: ALD residual below the numerical floor."""
