"""Scenario configuration: one YAML document drives a full evaluation.

A scenario names the system kind, points at measured job logs and restore
samples, and carries pricing, BIA targets, reliability components, and
the optional test data volume.  ``parse_scenario(render_scenario(s))``
reproduces ``s`` exactly; paths stay relative and resolve against the
scenario's base directory at load time.  ``Evaluation`` derives every
number of one scenario (model, rates, projection, cost, BIA verdicts)
from a single read of its input files.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import yaml

from . import costs, models
from .bia import BiaTargets, ComplianceReport, MeasuredMetrics, evaluate
from .costs import CostBreakdown, FeeTier, ObjectStoreRates, VaultRates
from .engine import Model
from .errors import ConfigError, ParseError
from .joblog import parse_job_log, parse_restore_samples
from .metrics import JobSample, Projection, Rate, RestoreSample, mb_to_gb, project
from .reliability import (
    DEFAULT_MISSION_HOURS,
    ReliabilityComponent,
    SeriesSystem,
    default_recovery_chain,
)


class SystemKind(str, Enum):
    HYBRID = "hybrid"
    CLOUD_VAULT = "cloud-vault"


@dataclass(frozen=True)
class TransactionCounts:
    """Monthly object-store operation counts used for hybrid pricing."""

    ingress_egress_ops: int = costs.DEFAULT_INGRESS_EGRESS_OPS
    listing_ops: int = costs.DEFAULT_LISTING_OPS

    def __post_init__(self):
        if self.ingress_egress_ops < 0 or self.listing_ops < 0:
            raise ConfigError("transaction counts must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to evaluate one protection system."""

    name: str
    system: SystemKind
    job_log_paths: Mapping[str, str]
    restore_samples_path: str
    pricing: ObjectStoreRates | VaultRates
    bia: BiaTargets
    reliability: SeriesSystem
    test_data_mb: float | None = None
    supplied_averages: Mapping[str, float] = field(default_factory=dict)
    frontend_gb: float = models.DEFAULT_FRONTEND_GB
    transactions: TransactionCounts = TransactionCounts()
    base_dir: Path = field(default=Path("."), compare=False)

    @property
    def tiering_threshold_days(self) -> int:
        if self.bia.cloud_tiering_threshold_days is not None:
            return self.bia.cloud_tiering_threshold_days
        return models.DEFAULT_TIERING_THRESHOLD_DAYS

    def resolve(self, relative: str) -> Path:
        """Absolute path of a referenced file, as error messages name it.

        Reading and checking use ``base_dir / relative`` as it is: resolving
        costs one ``lstat`` per path component.
        """
        return (self.base_dir / relative).resolve()


_HYBRID_LOG_KEYS = ("backup",)
_CLOUD_LOG_KEYS = ("job1", "job2")


def _require_mapping(node: object, context: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(node).__name__}")
    return node


def _take(node: dict, context: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    unknown = sorted(set(node) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    missing = sorted(set(required) - set(node))
    if missing:
        raise ConfigError(f"{context}: missing keys {missing}")


def _parse_bia(node: object) -> BiaTargets:
    node = _require_mapping(node, "bia")
    _take(
        node,
        "bia",
        required=("agent",),
        optional=(
            "backup_frequency_days",
            "backup_retention_days",
            "recovery_points_scheme",
            "cloud_tiering_threshold_days",
            "rpo_target_days",
            "rto_target_h",
            "wrt_h",
            "max_data_loss_mb",
        ),
    )
    return BiaTargets(**node)


def _parse_reliability(node: object) -> SeriesSystem:
    if node is None:
        return default_recovery_chain()
    node = _require_mapping(node, "reliability")
    _take(node, "reliability", required=("components",), optional=("mission_h",))
    raw = node["components"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("reliability.components must be a non-empty list")
    components = []
    for i, entry in enumerate(raw):
        entry = _require_mapping(entry, f"reliability.components[{i}]")
        _take(
            entry,
            f"reliability.components[{i}]",
            required=("name",),
            optional=("mtbf_h", "sla", "sla_period_h"),
        )
        components.append(ReliabilityComponent(**entry))
    return SeriesSystem(
        components=tuple(components),
        mission_h=float(node.get("mission_h", DEFAULT_MISSION_HOURS)),
    )


def _parse_pricing(node: object, system: SystemKind) -> ObjectStoreRates | VaultRates:
    if node is None:
        return ObjectStoreRates() if system is SystemKind.HYBRID else VaultRates()
    node = _require_mapping(node, "pricing")
    if system is SystemKind.HYBRID:
        _take(
            node,
            "pricing (object store)",
            required=(),
            optional=("per_gb_month", "per_10k_ingress_egress", "per_10k_listing"),
        )
        return ObjectStoreRates(**node)
    _take(
        node,
        "pricing (vault)",
        required=(),
        optional=("per_gb_month", "instance_fee_tiers", "block_gb", "block_fee"),
    )
    kwargs = dict(node)
    if "instance_fee_tiers" in kwargs:
        tiers = []
        for i, tier in enumerate(kwargs["instance_fee_tiers"]):
            tier = _require_mapping(tier, f"pricing.instance_fee_tiers[{i}]")
            _take(tier, f"pricing.instance_fee_tiers[{i}]", required=("upper_gb", "fee"))
            tiers.append(FeeTier(upper_gb=float(tier["upper_gb"]), fee=float(tier["fee"])))
        kwargs["instance_fee_tiers"] = tuple(tiers)
    return VaultRates(**kwargs)


def _yaml_problem(exc: yaml.YAMLError) -> str:
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
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ParseError(f"invalid YAML: {_yaml_problem(exc)}", line=line) from exc
    doc = _require_mapping(doc, "scenario")
    _take(
        doc,
        "scenario",
        required=("name", "system", "job_logs", "restore_samples", "bia"),
        optional=(
            "pricing",
            "reliability",
            "test_data_mb",
            "supplied_averages",
            "frontend_gb",
            "transactions",
        ),
    )
    try:
        system = SystemKind(doc["system"])
    except ValueError:
        known = ", ".join(k.value for k in SystemKind)
        raise ConfigError(f"unknown system {doc['system']!r}; expected one of {known}") from None

    log_keys = _HYBRID_LOG_KEYS if system is SystemKind.HYBRID else _CLOUD_LOG_KEYS
    logs = _require_mapping(doc["job_logs"], "job_logs")
    _take(logs, "job_logs", required=log_keys)
    job_log_paths = {k: str(v) for k, v in logs.items()}

    if system is SystemKind.HYBRID:
        for key in ("frontend_gb",):
            if key in doc:
                raise ConfigError(f"{key} applies only to cloud-vault scenarios")
    else:
        if "transactions" in doc:
            raise ConfigError("transactions apply only to hybrid scenarios")

    bia = _parse_bia(doc["bia"])
    if system is not SystemKind.HYBRID and bia.cloud_tiering_threshold_days is not None:
        raise ConfigError("bia.cloud_tiering_threshold_days applies only to hybrid scenarios")

    transactions = TransactionCounts()
    if "transactions" in doc:
        node = _require_mapping(doc["transactions"], "transactions")
        _take(node, "transactions", required=(), optional=("ingress_egress_ops", "listing_ops"))
        transactions = TransactionCounts(**node)

    supplied = {}
    if "supplied_averages" in doc and doc["supplied_averages"] is not None:
        node = _require_mapping(doc["supplied_averages"], "supplied_averages")
        allowed = (
            models.HYBRID_AVERAGE_NAMES
            if system is SystemKind.HYBRID
            else models.CLOUD_AVERAGE_NAMES
        )
        _take(node, "supplied_averages", required=(), optional=tuple(sorted(allowed)))
        supplied = {k: float(v) for k, v in node.items()}

    test_data_mb = doc.get("test_data_mb")
    scenario = Scenario(
        name=str(doc["name"]),
        system=system,
        job_log_paths=job_log_paths,
        restore_samples_path=str(doc["restore_samples"]),
        pricing=_parse_pricing(doc.get("pricing"), system),
        bia=bia,
        reliability=_parse_reliability(doc.get("reliability")),
        test_data_mb=float(test_data_mb) if test_data_mb is not None else None,
        supplied_averages=supplied,
        frontend_gb=float(doc.get("frontend_gb", models.DEFAULT_FRONTEND_GB)),
        transactions=transactions,
        base_dir=Path(base_dir),
    )
    for label, relative in scenario.job_log_paths.items():
        if not (scenario.base_dir / relative).is_file():
            raise ConfigError(f"job log {label!r} not found: {scenario.resolve(relative)}")
    if not (scenario.base_dir / scenario.restore_samples_path).is_file():
        raise ConfigError(
            f"restore samples not found: {scenario.resolve(scenario.restore_samples_path)}"
        )
    return scenario


def load_scenario(path: Path | str) -> Scenario:
    path = Path(path)
    return parse_scenario(_read_text(path), base_dir=path.parent)


def _clean(value):
    """Drop None entries so rendered documents stay minimal."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def render_scenario(scenario: Scenario) -> str:
    """Serialize a scenario to canonical YAML (keys in document order)."""
    doc: dict = {
        "name": scenario.name,
        "system": scenario.system.value,
        "job_logs": dict(scenario.job_log_paths),
        "restore_samples": scenario.restore_samples_path,
        "test_data_mb": scenario.test_data_mb,
        "pricing": dataclasses.asdict(scenario.pricing),
        "bia": dataclasses.asdict(scenario.bia),
        "reliability": {
            "mission_h": scenario.reliability.mission_h,
            "components": [dataclasses.asdict(c) for c in scenario.reliability.components],
        },
    }
    if scenario.supplied_averages:
        doc["supplied_averages"] = dict(scenario.supplied_averages)
    if scenario.system is SystemKind.HYBRID:
        doc["transactions"] = dataclasses.asdict(scenario.transactions)
    else:
        doc["frontend_gb"] = scenario.frontend_gb
    return yaml.safe_dump(_clean(doc), sort_keys=False)


def _read_text(path: Path) -> str:
    """The file's text; bytes that are not UTF-8 are a ``ParseError`` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
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

    The volume is the override if given, else the scenario's own; it must
    be finite and > 0.  Each field is derived on first use and kept, so a
    command reads each input file at most once and pays only for the
    fields it prints.
    """

    def __init__(self, scenario: Scenario, test_data_mb: float | None = None):
        volume = test_data_mb if test_data_mb is not None else scenario.test_data_mb
        if volume is not None:
            if not math.isfinite(volume):
                raise ConfigError(f"test_data_mb must be finite, got {volume}")
            if volume <= 0:
                raise ConfigError(f"test_data_mb must be > 0, got {volume}")
        self.scenario = scenario
        self.test_data_mb = volume

    def _volume(self) -> float:
        if self.test_data_mb is None:
            raise ConfigError(f"scenario {self.scenario.name!r} has no test_data_mb")
        return self.test_data_mb

    @cached_property
    def job_logs(self) -> dict[str, tuple[JobSample, ...]]:
        return {
            label: _read(self.scenario.base_dir / relative, parse_job_log)
            for label, relative in self.scenario.job_log_paths.items()
        }

    @cached_property
    def restore_samples(self) -> tuple[RestoreSample, ...]:
        path = self.scenario.base_dir / self.scenario.restore_samples_path
        return _read(path, parse_restore_samples)

    @cached_property
    def basic_model(self) -> Model:
        """The scenario's basic stock-and-flow model."""
        scenario, logs, restores = self.scenario, self.job_logs, self.restore_samples
        if scenario.system is SystemKind.HYBRID:
            return models.build_hybrid_basic(
                logs["backup"],
                restores,
                tiering_threshold_days=scenario.tiering_threshold_days,
                rates=scenario.pricing,
                ingress_egress_ops=scenario.transactions.ingress_egress_ops,
                listing_ops=scenario.transactions.listing_ops,
            )
        if len(restores) != 1:
            raise ConfigError(
                f"cloud scenarios need exactly one restore sample, got {len(restores)}"
            )
        return models.build_cloud_basic(
            logs["job1"],
            logs["job2"],
            restores[0],
            frontend_gb=scenario.frontend_gb,
            rates=scenario.pricing,
        )

    @cached_property
    def rates(self) -> tuple[Rate, ...]:
        return models.projection_rates(self.basic_model, self.scenario.supplied_averages)

    @cached_property
    def projection(self) -> Projection:
        """Projected backup/restore times for the test volume."""
        return project(self._volume(), self.rates)

    @cached_property
    def cost(self) -> CostBreakdown:
        """Monthly cost of protecting the test volume.

        With no volume at all, the cost of the measured state applies: data in
        the hybrid cloud tier, or the vault contents with the configured
        frontend size.  A test volume protected in the vault is its own
        frontend.
        """
        scenario, volume = self.scenario, self.test_data_mb
        if scenario.system is SystemKind.HYBRID:
            if volume is None:
                volume = self.basic_model.meta["tiered_mb"]
            return costs.hybrid_cloud_cost(
                mb_to_gb(volume),
                scenario.transactions.ingress_egress_ops,
                scenario.transactions.listing_ops,
                scenario.pricing,
            )
        if volume is None:
            stored_gb = mb_to_gb(self.basic_model.meta["stored_mb"])
            frontend_gb = scenario.frontend_gb
        else:
            stored_gb = mb_to_gb(volume)
            frontend_gb = stored_gb
        return costs.cloud_vault_cost(frontend_gb, stored_gb, scenario.pricing)

    @cached_property
    def compliance(self) -> ComplianceReport:
        """BIA verdicts for the projected times and measured ingest volumes."""
        projection = self.projection
        data_loss = None
        if self.scenario.bia.max_data_loss_mb is not None:
            by_day: dict[int, float] = {}
            for log in self.job_logs.values():
                for sample in log:
                    by_day[sample.day] = by_day.get(sample.day, 0.0) + sample.data_mb
            data_loss = max(by_day.values())
        measured = MeasuredMetrics.from_projection(projection, data_loss_mb=data_loss)
        return evaluate(measured, self.scenario.bia, scenario=self.scenario.name)

    @cached_property
    def extended_model(self) -> Model:
        """Basic model plus converters holding the projection and the cost."""
        return models.extend_with_test_data(self.basic_model, self.projection, self.cost)
