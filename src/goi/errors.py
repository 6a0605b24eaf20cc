"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: usage problems exit 1,
FormatError/ValidationError exit 2, NumericError exits 3.
"""


class GOIError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GOIError):
    """A file does not conform to one of the binary/text container formats."""


class ValidationError(GOIError):
    """Data violates an invariant (shapes, ranges, cross-file consistency)."""


class EmptyFitError(ValidationError):
    """A hyperplane fit was given no pixel to fit on."""


class NumericError(GOIError):
    """A computation produced NaN/Inf or otherwise failed numerically."""
