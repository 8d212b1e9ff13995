"""The four exception classes shared by all causalcast modules.

The CLI maps them to two exit codes: an ``InputError`` (bad input data,
arguments or configuration) exits 2, and any other ``CausalcastError``
(a runtime failure) exits 1.  ``ParseError`` is the InputError for a
document or CSV cell that cannot be read, and ``NumericalError`` the
runtime failure for a non-finite value; code catches both by name.
"""

import json
import numbers
from contextlib import contextmanager
from pathlib import Path


class CausalcastError(Exception):
    """Base class for all causalcast errors."""


class InputError(CausalcastError):
    """Invalid input data or configuration (CLI exit code 2)."""


class ParseError(InputError):
    """A CSV cell or header could not be parsed; carries row/column context."""

    def __init__(self, message, row=None, column=None):
        if row is not None or column is not None:
            message = f"{message} (row {row}, column {column!r})"
        super().__init__(message)
        self.row = row
        self.column = column


class NumericalError(CausalcastError):
    """NaN/Inf appeared where finite values are required."""


def is_integer(value) -> bool:
    """True for an integer of any integral type; 4.0 and True are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number of any real type; True is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def at_least(name: str, value, least: int) -> None:
    """Raise an InputError unless the count ``name`` holds an integer
    (not a bool) of at least ``least``."""
    if not is_integer(value):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}, got {value!r}")


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


@contextmanager
def json_object(path):
    """The JSON object in the file ``path``, read and used under
    :func:`parse_errors`; a document that is not an object is a ParseError."""
    with parse_errors(path):
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ParseError("expected a JSON object")
        yield doc


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          bool: (bool, "a boolean")}


def typed(value, name: str, kind: type):
    """``value`` as ``kind``, int, float or bool; a ParseError naming the
    field ``name`` unless it holds one.  A bool is neither int nor float."""
    base, description = _KINDS[kind]
    if not isinstance(value, base) or isinstance(value, bool) != (kind is bool):
        raise ParseError(f"{name} must be {description}, got {value!r}")
    return kind(value)


def string_list(value, name: str) -> tuple[str, ...]:
    """``value`` as a tuple; a ParseError unless it is a list of strings."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ParseError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)
