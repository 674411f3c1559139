"""Exception hierarchy shared by all drperf modules."""

from __future__ import annotations


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
