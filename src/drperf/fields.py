"""One rule for every input record: ``check_fields`` converts each field by its
declared type and checks the bounds the type declares (``Positive``,
``Annotated[int, (">=", 1)]``), and a record field given a mapping builds the
record, as the scenario reader does, so a record made in Python is read as a
document is.  ``check`` converts one helper argument by the same rule.  Each
error message starts with the path of the value it rejects."""

from __future__ import annotations

import dataclasses
import math
import operator
import re
import types
import typing
from collections.abc import Callable, Mapping
from dataclasses import MISSING
from enum import Enum
from functools import cache
from typing import Annotated

from .errors import ConfigError, DomainError

# Checks one value and returns it as the field's type; the second argument is
# the value's path, which every error message starts with.
Converter = Callable[[object, str], object]

# A bound is an (operator, limit) pair after the type: Annotated[float, (">", 0)].
Positive = Annotated[float, (">", 0)]
NonNegative = Annotated[float, (">=", 0)]
_OPERATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


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


def _to_int(value: object, path: str) -> int:
    """``value`` as an int; a whole float reads as its int, 14.0 as 14."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise DomainError(f"{path} must be an integer, got {value!r}")


def _to_bool(value: object, path: str) -> bool:
    if type(value) is bool:
        return value
    raise DomainError(f"{path} must be true or false, got {value!r}")


_SCALARS: dict[type, Converter] = {float: to_float, int: _to_int, str: to_str, bool: _to_bool}


def _key_path(path: str, key: object) -> str:
    """``path.key``, with a key that would break an error line quoted: ``path['\\r']``."""
    return f"{path}[{key!r}]" if isinstance(key, str) and not key.isprintable() else f"{path}.{key}"


def _mapping(node: object, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(node).__name__}")
    return node


def check_keys(node: Mapping, path: str, known, required: frozenset = frozenset()) -> None:
    unknown = node.keys() - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    missing = required.difference(node)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


@cache
def _converter(tp) -> Converter | None:
    """The converter for values of the declared type ``tp``.  ``X | None`` converts as ``X``
    and keeps None; a union of records (``Scenario.pricing``) has none.  ``Annotated[X,
    (op, limit), ...]`` converts as ``X``, then checks ``value op limit`` for each pair."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        item = _converter(args[0])
        bounds = [(op, _OPERATORS[op], limit) for op, limit in tp.__metadata__]

        def convert_bounded(value, path):
            value = item(value, path)
            for op, holds, limit in bounds:
                if not holds(value, limit):
                    raise DomainError(f"{path} must be {op} {limit}, got {value}")
            return value

        return convert_bounded
    # Annotated[X, ...] | None evaluates to typing.Optional, not to a types.UnionType
    if origin is types.UnionType or origin is typing.Union:
        members = [arg for arg in args if arg is not type(None)]
        if len(members) > 1:
            return None
        item = _converter(members[0])
        return lambda value, path: None if value is None else item(value, path)
    if origin is tuple:  # tuple[Record, ...]
        item = _converter(args[0])

        def convert_tuple(value, path):
            if type(value) not in (list, tuple):
                raise ConfigError(f"{path} must be a list, got {value!r}")
            return tuple([item(v, f"{path}[{i}]") for i, v in enumerate(value)])

        return convert_tuple
    if origin is Mapping:  # Mapping[str, X]; the record checks the keys
        item = _converter(args[1])
        return lambda value, path: {
            k: item(v, _key_path(path, k)) for k, v in _mapping(value, path).items()
        }
    if isinstance(tp, type) and issubclass(tp, Enum):
        known = ", ".join(member.value for member in tp)

        def convert_enum(value, path):
            try:
                return tp(value)
            except (ValueError, TypeError):
                raise ConfigError(f"unknown {path} {value!r}; expected one of {known}") from None

        return convert_enum
    if dataclasses.is_dataclass(tp):
        return lambda value, path: value if isinstance(value, tp) else build(tp, value, path)
    raise TypeError(f"no converter for {tp!r}")


def check(value: object, name: str, tp=float):
    """``value`` converted as a record field ``name`` of declared type ``tp`` is."""
    return _converter(tp)(value, name)


@cache
def schema(cls) -> tuple[dict[str, Converter | None], frozenset[str]]:
    """A record class's converter per compared field, and its fields a mapping must give."""
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = [f for f in dataclasses.fields(cls) if f.compare]
    converters = {f.name: _converter(hints[f.name]) for f in fields}
    required = frozenset(f.name for f in fields
                         if f.default is MISSING and f.default_factory is MISSING)
    return converters, required


def arguments(cls, node: object, path: str) -> dict:
    """The arguments of a ``cls`` record read from the mapping ``node``: every key
    a field, every required field given, and a null read as absent."""
    converters, required = schema(cls)
    check_keys(_mapping(node, path), path, converters.keys(), required)
    return {key: value for key, value in node.items() if value is not None or key in required}


def build(cls, node: object, path: str):
    """The ``cls`` record built from the mapping ``node`` at ``path``.  Its errors get
    ``path`` in front: joined by a dot when the message starts with one of its fields
    (``mtbf_h``, ``components[0].mtbf_h``), by a colon otherwise."""
    values = arguments(cls, node, path)
    try:
        return cls(**values)
    except (ConfigError, DomainError) as exc:
        message = str(exc)
        joint = "." if re.match(r"\w*", message)[0] in schema(cls)[0] else ": "
        raise type(exc)(f"{path}{joint}{message}") from None


def check_fields(record) -> None:
    """Convert each compared field of the frozen ``record`` by its declared type, in place;
    the first statement of every input record's ``__post_init__``.  A message starts with
    the field's name, and ``build`` puts the path of the record in front."""
    for name, convert in schema(type(record))[0].items():
        if convert is not None:
            object.__setattr__(record, name, convert(getattr(record, name), name))
