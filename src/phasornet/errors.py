"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, DataFormatError -> 2,
NumericError -> 3.
"""

import math
import numbers


class PhasorNetError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PhasorNetError, ValueError):
    """Operand shapes do not conform."""


class ValidationError(PhasorNetError, ValueError):
    """Input values violate a documented precondition."""


class DataFormatError(PhasorNetError):
    """A dataset or model file does not match its on-disk format."""

    def __init__(self, message, path=None, offset=None):
        detail = message
        if path is not None:
            detail += f" (file: {path}"
            if offset is not None:
                detail += f", offset: {offset}"
            detail += ")"
        super().__init__(detail)
        self.path = path
        self.offset = offset


class MagicMismatchError(DataFormatError):
    """File does not start with the expected magic number."""


class TruncatedFileError(DataFormatError):
    """File ended before the declared payload was read."""


class CorruptRecordError(DataFormatError):
    """A record contains an out-of-range field (e.g. label byte > 9)."""


class NumericError(PhasorNetError):
    """A numeric computation failed (non-finite gradient, integration blowup)."""


def check_count(name, value, minimum=1):
    """Reject a count that is not an integer >= minimum (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_positive(name, value):
    """Reject a value that is not a finite real number > 0 (NaN and bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not (value > 0 and math.isfinite(value)):
        raise ValidationError(f"{name} must be finite and positive, got {value}")
