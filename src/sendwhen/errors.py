"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (see cli.py); library callers
can catch the base class or the specific subtype.  check_positive is the
one rule for a setting that must be a finite positive number.
"""

import sys


class SendwhenError(Exception):
    """Base class for all errors raised by this package.

    Where a check over columns failed, row is the index of the first bad
    row, so that a reader can name that row's line (see at_row).
    """

    row: int | None = None


class DomainError(SendwhenError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SchemaError(SendwhenError, ValueError):
    """A feature vector, model, or file does not match the declared schema."""


class ConfigError(SendwhenError, ValueError):
    """A configuration file or option set is invalid."""


class DataError(SendwhenError, ValueError):
    """Input data is malformed or insufficient for the requested operation."""


class NumericalError(SendwhenError, ArithmeticError):
    """A numerical procedure produced non-finite values or failed to converge."""


class ConvergenceError(NumericalError):
    """An iterative fit stopped without meeting its convergence tolerance."""


def at_row(exc: SendwhenError, row: int) -> SendwhenError:
    """exc, marked as the fault of the given row of the columns checked."""
    exc.row = int(row)
    return exc


def check_positive(value, name: str, error: type[SendwhenError] = ConfigError, *,
                   or_zero: bool = False) -> float:
    """float(value) for a finite int or float > 0 (>= 0 with or_zero), else error.

    A bool, a string or None is refused, and the comparisons are written
    so that a NaN fails them.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if (0 <= value if or_zero else 0 < value) and value <= sys.float_info.max:
            return float(value)
    raise error(f"{name} must be finite and {'>=' if or_zero else '>'} 0, got {value!r}")
