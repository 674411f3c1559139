"""Scenario configuration: one YAML document drives a full evaluation.

A scenario names the system kind, points at measured job logs and restore
samples, and carries pricing, BIA targets, reliability components, and
the optional test data volume.  Its schema is the dataclasses it builds:
each key is read by its field's declared type, and each record's
``__post_init__`` holds its bounds.  ``parse_scenario(render_scenario(s))``
reproduces ``s`` exactly; paths stay relative and resolve against the
scenario's base directory at load time.  ``Evaluation`` derives every
number of one scenario (model, rates, projection, cost, BIA verdicts)
from a single read of its input files.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field
from enum import Enum
from functools import cache, cached_property
from pathlib import Path

import yaml

from . import models
from .bia import BiaTargets, ComplianceReport, evaluate
from .costs import CostBreakdown, ObjectStoreRates, TransactionCounts, VaultRates
from .engine import Model
from .errors import ConfigError, DomainError, ParseError, check_fields, to_float, to_str
from .joblog import parse_job_log, parse_restore_samples
from .metrics import JobSample, Projection, Rate, RestoreSample, mb_to_gb, project
from .models import SystemKind
from .reliability import SeriesSystem, default_recovery_chain


@dataclass(frozen=True)
class Scenario:
    """Everything needed to evaluate one protection system.

    Each field but ``base_dir`` is a key of the scenario document;
    ``base_dir`` is where the document was read, and ``compare=False`` keeps
    it out of the document and of equality.  Construction checks its fields
    (``errors.check_fields``), the test volume > 0, and the job-log labels, the
    pricing record and the supplied averages against the system; a scenario built
    in Python or by ``dataclasses.replace`` is checked as a parsed one is.
    """

    name: str
    system: SystemKind
    job_logs: Mapping[str, str]
    restore_samples: str
    pricing: ObjectStoreRates | VaultRates
    bia: BiaTargets
    reliability: SeriesSystem = field(default_factory=default_recovery_chain)
    test_data_mb: float | None = None
    supplied_averages: Mapping[str, float] = field(default_factory=dict)
    # Monthly instance fees depend on the protected frontend size, which the
    # bundled vault measurements do not state; reproducing their published
    # cost requires the lowest fee tier, hence this documented default.
    frontend_gb: float = 50.0
    transactions: TransactionCounts = TransactionCounts()
    base_dir: Path = field(default=Path("."), compare=False)

    def __post_init__(self):
        check_fields(self)
        spec = models.SYSTEMS[self.system]
        labels = frozenset(agent.log for agent in spec.agents)
        _check_keys(self.job_logs, "job_logs", labels, labels)
        if not isinstance(self.pricing, spec.pricing):
            raise ConfigError(f"a {self.system.value} model is priced by {spec.pricing.__name__}")
        names = [row.average for row in spec.rates]
        unknown = self.supplied_averages.keys() - set(names)
        if unknown:
            raise ConfigError(
                f"supplied_averages: unknown keys {sorted(unknown, key=str)}; "
                f"a {self.system.value} model has {names}"
            )
        for name, value in self.supplied_averages.items():
            if not to_float(value, f"supplied_averages.{name}") > 0:
                raise ConfigError(f"supplied_averages.{name} must be > 0, got {value}")
        if self.test_data_mb is not None and not self.test_data_mb > 0:
            raise ConfigError(f"test_data_mb must be > 0, got {self.test_data_mb}")
        if not self.frontend_gb >= 0:
            raise ConfigError(f"frontend_gb must be >= 0, got {self.frontend_gb}")

    def resolve(self, relative: str) -> Path:
        """Absolute path of a referenced file, as error messages name it.

        Reading and checking use ``base_dir / relative`` as it is: resolving
        costs one ``lstat`` per path component.  A symlink loop cannot be
        resolved, so such a path is named without following its links.
        """
        path = self.base_dir / relative
        try:
            return path.resolve()
        except (RuntimeError, OSError):  # a loop: RuntimeError before Python 3.13, then OSError
            return path.absolute()


# Checks one document value and returns it as the field's type; the second
# argument is the value's dotted path, which every error message starts with.
Converter = Callable[[object, str], object]


def _to_int(value: object, path: str) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"{path} must be an integer, got {value!r}")


_SCALARS: dict[type, Converter] = {float: to_float, int: _to_int, str: to_str}


def _key_path(path: str, key: object) -> str:
    """``path.key``, with a key that would break an error line quoted: ``path['\\r']``."""
    if isinstance(key, str) and not key.isprintable():
        return f"{path}[{key!r}]"
    return f"{path}.{key}"


def _mapping(node: object, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, known, required: frozenset = frozenset()) -> None:
    if node.keys() <= known and required <= node.keys():
        return
    unknown = node.keys() - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    missing = required.difference(node)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _converter(tp) -> Converter | None:
    """The converter for values of the declared type ``tp``.

    ``X | None`` converts as ``X``: a null is read as absent, and only
    fields that default to None accept it.  A union of records
    (``Scenario.pricing``) has none: the caller picks its class.
    """
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        members = [arg for arg in args if arg is not type(None)]
        return _converter(members[0]) if len(members) == 1 else None
    if origin is tuple:  # tuple[Record, ...]
        item = _converter(args[0])

        def convert_tuple(value, path):
            if type(value) is not list:
                raise ConfigError(f"{path} must be a list, got {value!r}")
            return tuple([item(v, f"{path}[{i}]") for i, v in enumerate(value)])

        return convert_tuple
    if origin is Mapping:  # Mapping[str, X]; the caller checks the keys
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
        return lambda value, path: _record(tp, value, path)
    raise TypeError(f"no scenario converter for {tp!r}")


@cache
def _schema(cls) -> tuple[dict[str, Converter | None], frozenset[str]]:
    """A record class's converter per document field, and its fields without a default."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.compare]
    converters = {f.name: _converter(hints[f.name]) for f in fields}
    required = frozenset(
        f.name
        for f in fields
        if converters[f.name] and f.default is MISSING and f.default_factory is MISSING
    )
    return converters, required


def _values(cls, node: object, path: str) -> dict:
    """A ``cls`` record's field values read from the mapping ``node``.

    A null means absent for a field with a default; a field with no converter
    is left to the caller.
    """
    converters, required = _schema(cls)
    context = path or "scenario"
    node = _mapping(node, context)
    _check_keys(node, context, converters.keys(), required)
    prefix = f"{path}." if path else ""
    values = {}
    for key, value in node.items():
        convert = converters[key]
        if convert is not None and (value is not None or key in required):
            values[key] = convert(value, prefix + key)
    return values


def _record(cls, node: object, path: str):
    """The ``cls`` record read from the mapping ``node``.

    A bound error from the record's ``__post_init__`` is raised again with
    ``path`` in front: joined by a dot when the message starts with one of
    the record's fields, by a colon otherwise.
    """
    values = _values(cls, node, path)
    try:
        return cls(**values)
    except (ConfigError, DomainError) as exc:
        message = str(exc)
        joint = "." if message.partition(" ")[0] in _schema(cls)[0] else ": "
        raise type(exc)(f"{path}{joint}{message}") from None


def _pop(doc: dict, dotted: str):
    """Remove the value at a dotted path from ``doc`` and return it; None
    where the path stops at a null or a missing key."""
    *heads, last = dotted.split(".")
    for head in heads:
        doc = doc.get(head) or {}
    return doc.pop(last, None)


def _yaml_problem(exc: Exception) -> str:
    """One line naming what the parser found, without its source snippet.

    ``str()`` of a marked error quotes the offending lines under each mark,
    and only the pure-Python loaders keep the text to quote.
    """
    if isinstance(exc, yaml.MarkedYAMLError):
        text = ", ".join(part for part in (exc.context, exc.problem) if part)
        if exc.problem_mark is not None:
            text += f" at column {exc.problem_mark.column + 1}"
        return text
    return " ".join(str(exc).split())


def parse_scenario(text: str, base_dir: Path | str = ".") -> Scenario:
    """Parse and validate a scenario document; referenced files must exist."""
    try:
        doc = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a scalar it cannot build, 2024-13-45
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ParseError(f"invalid YAML: {_yaml_problem(exc)}", line=line) from exc
    except RecursionError:  # the composer takes stack frames for each level of nesting
        raise ParseError("invalid YAML: collections nested too deeply") from None
    values = _values(Scenario, doc, "")
    system = values["system"]
    for other, spec in models.SYSTEMS.items():
        for dotted in spec.fields:
            if other is not system and _pop(doc, dotted) is not None:
                raise ConfigError(f"{dotted} applies only to {other.value} scenarios")
    spec = models.SYSTEMS[system]
    pricing = doc.get("pricing")
    values["pricing"] = _record(spec.pricing, {} if pricing is None else pricing, "pricing")
    scenario = Scenario(**values, base_dir=Path(base_dir))
    for label, relative in scenario.job_logs.items():
        if not (scenario.base_dir / relative).is_file():
            raise ConfigError(f"job log {label!r} not found: {scenario.resolve(relative)}")
    if not (scenario.base_dir / scenario.restore_samples).is_file():
        missing = scenario.resolve(scenario.restore_samples)
        raise ConfigError(f"restore samples not found: {missing}")
    return scenario


def load_scenario(path: Path | str) -> Scenario:
    path = Path(path)
    return parse_scenario(_read_text(path), base_dir=path.parent)


def _plain(value):
    """``value`` as YAML-ready data: records as mappings without their null fields."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare and getattr(value, f.name) is not None
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def render_scenario(scenario: Scenario) -> str:
    """Serialize a scenario to canonical YAML, without the other system's fields."""
    doc = _plain(scenario)
    for other, spec in models.SYSTEMS.items():
        for dotted in spec.fields:
            if other is not scenario.system:
                _pop(doc, dotted)
    return yaml.safe_dump(doc, sort_keys=False)


def _read_text(path: Path) -> str:
    """The file's text, without a leading byte-order mark; bytes that are not
    UTF-8 are a ``ParseError`` naming the file."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise ParseError(
            f"{path.resolve().name}: line {line}: not UTF-8 text (byte 0x{byte:02x})"
        ) from exc


def _read(path: Path, parse):
    text = _read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path.resolve().name}: {exc}") from exc


class Evaluation:
    """One scenario evaluated at one test data volume.

    An override volume replaces the scenario's own, through
    ``dataclasses.replace``, so the scenario checks it as it checks its own.
    Each field is derived on first use and kept, so a command reads each
    input file at most once and pays only for the fields it prints.
    """

    def __init__(self, scenario: Scenario, test_data_mb: float | None = None):
        if test_data_mb is not None:
            scenario = dataclasses.replace(scenario, test_data_mb=test_data_mb)
        self.scenario = scenario
        self.test_data_mb = scenario.test_data_mb

    @cached_property
    def job_logs(self) -> dict[str, tuple[JobSample, ...]]:
        return {
            label: _read(self.scenario.base_dir / relative, parse_job_log)
            for label, relative in self.scenario.job_logs.items()
        }

    @cached_property
    def restore_samples(self) -> tuple[RestoreSample, ...]:
        path = self.scenario.base_dir / self.scenario.restore_samples
        return _read(path, parse_restore_samples)

    @cached_property
    def basic_model(self) -> Model:
        """The scenario's basic stock-and-flow model."""
        return models.build_basic(self.scenario, self.job_logs, self.restore_samples)

    @cached_property
    def rates(self) -> tuple[Rate, ...]:
        """The model's average rates, each overridden by its supplied average if any."""
        supplied, averages = self.scenario.supplied_averages, self.basic_model.meta["averages"]
        return tuple(
            Rate(row.label, float(supplied.get(row.average, averages[row.average])), row.kind,
                 row.role, supplied=row.average in supplied)
            for row in models.SYSTEMS[self.scenario.system].rates
        )

    @cached_property
    def projection(self) -> Projection:
        """Projected backup/restore times for the test volume."""
        if self.test_data_mb is None:
            raise ConfigError(f"scenario {self.scenario.name!r} has no test_data_mb")
        return project(self.test_data_mb, self.rates)

    @cached_property
    def cost(self) -> CostBreakdown:
        """Monthly cost of protecting the test volume.

        With no volume at all, the cost of the measured state applies: data in
        the hybrid cloud tier, or the vault contents with the configured
        frontend size.  A test volume protected in the vault is its own
        frontend.
        """
        scenario, volume = self.scenario, self.test_data_mb
        if volume is None:
            billed = self.basic_model.meta[models.SYSTEMS[scenario.system].billed]
            return models.monthly_cost(scenario, billed, scenario.frontend_gb)
        return models.monthly_cost(scenario, volume, mb_to_gb(volume))

    @cached_property
    def compliance(self) -> ComplianceReport:
        """BIA verdicts for the projected times and the largest day of ingest."""
        projection = self.projection  # first, so a malformed log fails as the build rejects it
        data_loss = max(models.daily_ingest(self.scenario.system, self.job_logs))
        return evaluate(projection, self.scenario.bia, data_loss)

    @cached_property
    def extended_model(self) -> Model:
        """Basic model plus converters holding the projection and the cost."""
        basic, projection = self.basic_model, self.projection
        extra = (
            models.constant("TestData", projection.test_data_mb, "MB"),
            *(models.constant(row.what_if, projection.times_s[row.role][row.label], "s")
              for row in models.SYSTEMS[self.scenario.system].rates),
            models.constant("TotalServiceCostTestData", self.cost.total, "USD/month"),
        )
        meta = {**basic.meta, "extended": True, "test_data_mb": projection.test_data_mb}
        return Model(
            f"{basic.name}-extended", basic.components + extra, basic.horizon, basic.exogenous, meta
        )
