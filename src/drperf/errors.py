"""Exception hierarchy shared by all drperf modules."""

from __future__ import annotations

import math
from dataclasses import fields


class ToolkitError(Exception):
    """Base class for every error raised by drperf."""


class DomainError(ToolkitError, ValueError):
    """A quantity is outside its valid domain (negative duration, rate <= 0, ...)."""


class ModelError(ToolkitError):
    """A stock-and-flow model is wired incorrectly (cycles, unknown names, ...)."""


class ConfigError(ToolkitError):
    """A builder or scenario configuration is inconsistent or incomplete."""


class ParseError(ToolkitError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def to_float(value: object, path: str) -> float:
    """``value`` as a finite float, an int as the equal float; a str, a bool, an int
    beyond float range or a non-finite float raises a message starting with ``path``."""
    if type(value) is float:
        if math.isfinite(value):
            return value
        raise DomainError(f"{path} must be finite, got {value}")
    if type(value) is int:  # not bool, whose type is its own
        try:
            return float(value)
        except OverflowError:
            raise DomainError(f"{path} is out of range, got {value}") from None
    raise DomainError(f"{path} must be a number, got {value!r}")


def to_str(value: object, path: str) -> str:
    """``value`` if it is one line of printable text; the message starts with ``path``."""
    if type(value) is not str:
        raise DomainError(f"{path} must be a string, got {value!r}")
    if not value.isprintable():  # a newline or a NUL would break an error line or a path
        raise DomainError(f"{path} must be one line of printable text, got {value!r}")
    return value


def check_fields(record, prefix: str = "") -> None:
    """Hold each ``float`` or ``float | None`` field of a frozen ``record`` through
    ``to_float``, check each ``str`` field with ``to_str`` and reject an ``int`` field
    holding no int (2.5, 14.0, True), each message starting with ``prefix`` and the field
    name.  Annotations are strings: every drperf module imports ``__future__.annotations``."""
    for f in fields(record):
        value, path = getattr(record, f.name), prefix + f.name
        if f.type == "int" and type(value) is not int:
            raise DomainError(f"{path} must be an integer, got {value!r}")
        if f.type == "str":
            to_str(value, path)
        elif f.type == "float" or (f.type == "float | None" and value is not None):
            object.__setattr__(record, f.name, to_float(value, path))
