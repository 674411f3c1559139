"""Scenario configuration: one YAML document drives a full evaluation.

A scenario names the system kind, points at measured job logs and restore
samples, and carries pricing, BIA targets, reliability components, and
the optional test data volume.  Its schema is the dataclasses it builds:
each record converts its fields by their declared types, bounds included,
and the reader adds what a document alone has: keys and a null read as
absent.  A scenario holds only its own system's fields.  Paths stay relative
and resolve against the scenario's base directory at load time.
``Evaluation`` derives every number of one scenario (model, rates,
projection, cost, BIA verdicts) from a single read of its input files.
"""

from __future__ import annotations

import dataclasses
import os
import stat
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import yaml

from . import models
from .bia import BiaTargets, ComplianceReport, evaluate
from .costs import CostBreakdown, ObjectStoreRates, TransactionCounts, VaultRates
from .engine import Model
from .errors import ConfigError, ParseError
from .fields import NonNegative, Positive, arguments, build, check_fields, check_keys
from .joblog import parse_job_log, parse_restore_samples
from .metrics import JobSample, Projection, Rate, RestoreSample, mb_to_gb, project
from .models import SystemKind
from .reliability import SeriesSystem, default_recovery_chain


@dataclass(frozen=True)
class Scenario:
    """Everything needed to evaluate one protection system.

    Each field but ``base_dir`` is a key of the scenario document;
    ``base_dir`` is where the document was read, and ``compare=False`` keeps
    it out of the document and of equality.  A field that is not given is None.
    Construction checks its fields and their bounds (``fields.check_fields``);
    rejects a field of another system's ``SystemSpec.defaults`` that is set, and
    fills its own system's unset ones; builds a mapping or None as its system's
    pricing record; and checks the job-log labels, the pricing record and the
    names of the supplied averages against the system.  A scenario built in
    Python or by ``dataclasses.replace`` is checked as a parsed one is.
    """

    name: str
    system: SystemKind
    job_logs: Mapping[str, str]
    restore_samples: str
    bia: BiaTargets
    pricing: ObjectStoreRates | VaultRates | None = None
    reliability: SeriesSystem = field(default_factory=default_recovery_chain)
    test_data_mb: Positive | None = None
    supplied_averages: Mapping[str, Positive] = field(default_factory=dict)
    frontend_gb: NonNegative | None = None
    transactions: TransactionCounts | None = None
    base_dir: Path = field(default=Path("."), compare=False)

    def __post_init__(self):
        check_fields(self)
        for system, spec in models.SYSTEMS.items():
            for dotted, default in spec.defaults.items():
                if system is not self.system and _get(self, dotted) is not None:
                    raise ConfigError(f"{dotted} applies only to {system.value} scenarios")
                if system is self.system and _get(self, dotted) is None:
                    head, _, name = dotted.partition(".")
                    if name:
                        default = dataclasses.replace(getattr(self, head), **{name: default})
                    object.__setattr__(self, head, default)
        spec = models.SYSTEMS[self.system]
        if not dataclasses.is_dataclass(self.pricing):
            pricing = {} if self.pricing is None else self.pricing
            object.__setattr__(self, "pricing", build(spec.pricing, pricing, "pricing"))
        labels = frozenset(agent.log for agent in spec.agents)
        check_keys(self.job_logs, "job_logs", labels, labels)
        if not isinstance(self.pricing, spec.pricing):
            raise ConfigError(f"a {self.system.value} model is priced by {spec.pricing.__name__}")
        names = [row.average for row in spec.rates]
        unknown = self.supplied_averages.keys() - set(names)
        if unknown:
            raise ConfigError(
                f"supplied_averages: unknown keys {sorted(unknown, key=str)}; "
                f"a {self.system.value} model has {names}"
            )

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


def _get(record, dotted: str):
    """The value of the field at a dotted path under ``record``."""
    for name in dotted.split("."):
        record = getattr(record, name)
    return record


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
    scenario = Scenario(**arguments(Scenario, doc, "scenario"), base_dir=Path(base_dir))
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


# The most bytes one input file may hold: 200 times the bundled scenarios (at
# most 1281 bytes), and a daily job log of 36 years.
MAX_INPUT_BYTES = 256 * 2**10
_KINDS = {stat.S_IFDIR: "a directory", stat.S_IFIFO: "a FIFO", stat.S_IFCHR: "a character device"}


def _read_text(path: Path) -> str:
    """The text of a regular file of at most ``MAX_INPUT_BYTES``, without a leading
    byte-order mark; another file, a larger one or bytes that are not UTF-8 raise."""
    shown, info = repr(os.fspath(path)), os.stat(path)  # not open: opening a FIFO waits
    if not stat.S_ISREG(info.st_mode):
        kind = _KINDS.get(stat.S_IFMT(info.st_mode), "a special file")
        raise ConfigError(f"{shown} is {kind}, not a regular file")
    if info.st_size > MAX_INPUT_BYTES:
        raise ConfigError(f"{shown} holds {info.st_size} bytes, over the cap of {MAX_INPUT_BYTES}")
    with open(path, "rb") as stream:
        data = stream.read(info.st_size + 1)  # at most the cap and a byte, however it grows
    if len(data) > info.st_size:
        raise ConfigError(f"{shown} grew while it was read")
    try:
        return data.decode("utf-8-sig")
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
            Rate(row.label, supplied.get(row.average, averages[row.average]), row.kind, row.role,
                 supplied=row.average in supplied)
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
