"""Exception types shared across the package.

Every failure mode maps to one of these so callers (and the CLI) can
distinguish bad usage from bad data from numeric blow-ups.  The JSON
readers also share ``whole_numbers`` and ``real_numbers``, their checks for
integer and real fields.
"""

import numbers


class DepvitError(Exception):
    """Base class for all package errors."""


class ShapeError(DepvitError):
    """Operands have incompatible shapes or dtypes."""


class NumericError(DepvitError):
    """A computation produced NaN/Inf or failed to converge."""


class UsageError(DepvitError):
    """An API or CLI precondition was violated by the caller."""


class ConfigError(UsageError):
    """A configuration file or value is malformed."""


class IntegrityError(DepvitError):
    """Stored structures (ledger, tree, container) are internally inconsistent."""


class FormatError(DepvitError):
    """A binary or text input does not match its declared format."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrainingError(DepvitError):
    """Training diverged (non-finite loss) or could not proceed."""


def whole_numbers(*values) -> list[int]:
    """Each value as an int; a bool, a string or a fraction raises ValueError.

    A whole float such as 2.0 passes.  Each JSON reader turns the
    ValueError into its own error type.
    """
    for v in values:
        if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or
                                       isinstance(v, numbers.Real) and float(v).is_integer()):
            raise ValueError(f"expected whole numbers, got {v!r}")
    return [int(v) for v in values]


def real_numbers(*values) -> list[float]:
    """Each value as a float; a bool or a string raises ValueError.

    NaN and the infinities pass; each reader checks the range it needs.
    """
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"expected real numbers, got {v!r}")
    return [float(v) for v in values]
