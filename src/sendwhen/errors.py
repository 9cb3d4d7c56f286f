"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (see cli.py); library callers
can catch the base class or the specific subtype.
"""


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
