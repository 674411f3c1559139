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


def check_numbers(record, prefix: str = "") -> None:
    """Reject a float field that is not finite and an ``int`` field holding no int
    (2.5, 14.0, True); each message starts with ``prefix`` and the field name."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type in ("int", int) and type(value) is not int:  # "int" as a lazy annotation
            raise DomainError(f"{prefix}{f.name} must be an integer, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{prefix}{f.name} must be finite, got {value}")
