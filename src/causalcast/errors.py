"""Exception hierarchy shared by all causalcast modules.

Two branches matter for the CLI exit-code contract: ``InputError``
subclasses signal invalid input or configuration (exit code 2), while
everything else under ``CausalcastError`` is a runtime failure (exit
code 1).
"""

import numbers
from contextlib import contextmanager


class CausalcastError(Exception):
    """Base class for all causalcast errors."""


class InputError(CausalcastError):
    """Invalid input data or configuration (CLI exit code 2)."""


# -- data loading / preprocessing ------------------------------------------

class DuplicateTimestamp(InputError):
    """Two rows carry the same date."""


class ParseError(InputError):
    """A CSV cell or header could not be parsed; carries row/column context."""

    def __init__(self, message, row=None, column=None):
        if row is not None or column is not None:
            message = f"{message} (row {row}, column {column!r})"
        super().__init__(message)
        self.row = row
        self.column = column


class UnknownTarget(InputError):
    """Requested target variable is not a dataset column."""


class UnknownVariable(InputError):
    """A requested feature/variable name is not a dataset column."""


class AllMissingColumn(InputError):
    """A variable has no observed values, so it cannot be imputed."""


class EmptySplit(InputError):
    """A train/validation/test partition came out empty."""


class StatsMismatch(InputError):
    """Normalization stats do not cover the dataset's variables."""


class InsufficientHistory(InputError):
    """Series too short for the requested lags/windows/conditioning."""


class InvalidArgument(InputError):
    """Argument outside the documented domain (e.g. non-finite x)."""


class NonStationary(InputError):
    """Planted coefficient graph has companion spectral radius >= 1."""


class ConfigError(InputError):
    """Experiment configuration with a bad key, value type or choice."""


# -- numerical / runtime ----------------------------------------------------

class NumericalError(CausalcastError):
    """NaN/Inf appeared where finite values are required."""


class ShapeError(CausalcastError):
    """Tensor shapes inconsistent with the model contract."""


class DegenerateR2(CausalcastError):
    """R^2 undefined: observations have zero variance."""


class DegeneratePercentage(CausalcastError):
    """Percentage metrics undefined: observation mean is zero."""


class GenerationFailed(CausalcastError):
    """Rejection sampling for a stationary planted graph exceeded its cap."""


def is_integer(value) -> bool:
    """True for an integer of any integral type; 4.0 and True are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integers(owner, names, error=InvalidArgument) -> None:
    """Raise ``error`` naming the first of ``owner``'s fields ``names``
    that does not hold an integer."""
    for name in names:
        value = getattr(owner, name)
        if not is_integer(value):
            raise error(f"{name} must be an integer, got {value!r}")


@contextmanager
def parse_errors(source):
    """Re-raise a KeyError, TypeError or ValueError met while reading the
    JSON document ``source`` as a ParseError naming it, and prefix
    ``source`` to a ParseError: a missing key, a mistyped value or text
    that is not JSON is bad input, not a program bug."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{source}: missing key {exc}") from exc
    except (TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"{source}: {exc}") from exc
