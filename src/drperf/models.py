"""The bundled data-protection systems, as one table, and their one model builder.

Two systems are modeled:

* a hybrid backup appliance whose copies land on local storage and move
  to a cloud object-store tier once they outlive the tiering threshold;
* a cloud recovery vault that receives two agents' daily uploads directly.

``SYSTEMS`` holds as data all that tells them apart.  ``build_basic`` reads a
system's entry and returns an immutable :class:`~drperf.engine.Model` covering
one backup cycle plus one trailing period (the post-cycle state);
``monthly_cost`` prices what it holds.  ``scenario.Evaluation`` reads each
entry's rate rows: to project a test data volume, and to add its what-if
converters to a basic model without disturbing any basic-model trajectory.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from enum import Enum
from typing import TYPE_CHECKING

from . import costs, metrics
from .costs import CostBreakdown, ObjectStoreRates, TransactionCounts, VaultRates
from .engine import Kind, Model, ModelComponent, fold
from .errors import ConfigError, DomainError
from .metrics import JobSample, RateKind, RateRole, RestoreSample, Tier

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import Scenario


class SystemKind(str, Enum):
    HYBRID = "hybrid"
    CLOUD_VAULT = "cloud-vault"


# A backup agent: the label of its job log, and its converters of the daily
# data (MB), the backup durations (s) and their ratio (MB/s).
Agent = namedtuple("Agent", "log data duration throughput")
# A tier whose sampled restore the converters RestoreData<suffix> and
# RestoreDuration<suffix> hold in ``period``.
RestoreTier = namedtuple("RestoreTier", "tier suffix period")
# A projection rate: its label; the model average it reads (a constant of the
# basic model, which a scenario may supply instead), measured from ``source``,
# an agent's job-log label or a restore tier; its kind and role; and the
# extended model's converter of its projected time.
RateRow = namedtuple("RateRow", "label average source kind role what_if")


@dataclasses.dataclass(frozen=True)
class SystemSpec:
    """All that tells one system from another.  ``defaults`` maps each scenario field,
    dotted, that only this system reads to the value it holds when not given."""

    model: str  # the basic model's name
    days: int  # each job log covers days 1..days
    agents: tuple[Agent, ...]
    ingest: str  # the flow of all agents' daily data into stocks[0]
    stocks: tuple[str, ...]  # then, if the system tiers, the stock that tiering fills
    tiering: str | None  # the flow moving each copy on once it outlives the threshold
    restores: tuple[RestoreTier, ...]
    rates: tuple[RateRow, ...]
    pricing: type[ObjectStoreRates] | type[VaultRates]
    billed: str  # the meta key of the MB its pricing bills
    defaults: Mapping[str, object]


SYSTEMS = {
    SystemKind.HYBRID: SystemSpec(
        model="hybrid-basic",
        days=14,
        agents=(Agent("backup", "AgentDailyData", "BackupDuration", "DailyThroughput"),),
        ingest="DailyBackup",
        stocks=("LocalStorage", "CloudTier"),
        tiering="TieringMove",
        # the local restore on the last backup day, the archive one in the trailing period
        restores=(RestoreTier(Tier.LOCAL, "Local", 14), RestoreTier(Tier.ARCHIVE, "Archive", 15)),
        rates=(
            RateRow("Backup", "MeanDailyThroughput", "backup", RateKind.THROUGHPUT,
                    RateRole.BACKUP, "BackupTimeTestData"),
            RateRow("Local", "RestoreTimePerMbLocal", Tier.LOCAL, RateKind.SECONDS_PER_MB,
                    RateRole.RESTORE, "RestoreTimeLocalTestData"),
            RateRow("Archive", "RestoreTimePerMbArchive", Tier.ARCHIVE, RateKind.SECONDS_PER_MB,
                    RateRole.RESTORE, "RestoreTimeArchiveTestData"),
        ),
        pricing=ObjectStoreRates,
        billed="tiered_mb",
        defaults={"transactions": TransactionCounts(), "bia.cloud_tiering_threshold_days": 14},
    ),
    SystemKind.CLOUD_VAULT: SystemSpec(
        model="cloud-basic",
        days=7,
        agents=(
            Agent("job1", "Job1Data", "Job1Duration", "Job1Throughput"),
            Agent("job2", "Job2Data", "Job2Duration", "Job2Throughput"),
        ),
        ingest="DailyTransfer",
        stocks=("RecoveryVault",),
        tiering=None,
        restores=(RestoreTier(Tier.VAULT, "", 8),),
        rates=(
            RateRow("Job1", "AvgJob1Throughput", "job1", RateKind.THROUGHPUT,
                    RateRole.BACKUP, "BackupTimeJob1TestData"),
            RateRow("Job2", "AvgJob2Throughput", "job2", RateKind.THROUGHPUT,
                    RateRole.BACKUP, "BackupTimeJob2TestData"),
            RateRow("Vault", "RecoveryThroughput", Tier.VAULT, RateKind.THROUGHPUT,
                    RateRole.RESTORE, "RecoveryTimeTestData"),
        ),
        pricing=VaultRates,
        billed="stored_mb",
        # Monthly instance fees depend on the protected frontend size, which the
        # bundled vault measurements do not state; reproducing their published
        # cost requires the lowest fee tier, hence this documented default.
        defaults={"frontend_gb": 50.0},
    ),
}


def constant(name: str, value: float, unit: str) -> ModelComponent:
    """A converter that holds ``value`` in every period."""
    value = float(value)
    return ModelComponent(name, Kind.CONVERTER, unit, expression=lambda v: value)


def _ratio(name: str, num: str, den: str, unit: str) -> ModelComponent:
    def expr(v: Mapping[str, float]) -> float:
        return v[num] / v[den] if v[den] > 0 else 0.0

    return ModelComponent(name, Kind.CONVERTER, unit, expression=expr, depends=(num, den))


def _event_series(horizon: int, period: int, value: float) -> tuple[float, ...]:
    series = [0.0] * horizon
    series[period - 1] = float(value)
    return tuple(series)


def _check_days(log: Sequence[JobSample], days: int, label: str) -> None:
    got = [s.day for s in log]
    if got != list(range(1, days + 1)):
        missing = next((day for day in range(1, days + 1) if day not in got), None)
        past = next((day for day in got if day > days), None)
        problem = (f"day {missing} is missing" if missing is not None
                   else f"day {past} is past the cycle" if past is not None
                   else "its days repeat or are out of order")
        raise ConfigError(f"job log {label!r} must cover days 1..{days} exactly; {problem}")


def daily_ingest(
    system: SystemKind, job_logs: Mapping[str, Sequence[JobSample]]
) -> tuple[float, ...]:
    """Each day's data (MB) over the ``system``'s agents, in agent order.

    Summed as its ingest flow sums the agents' data, so a model's ingest
    stock holds the running sums of this series bit for bit.
    """
    logs = [job_logs[agent.log] for agent in SYSTEMS[system].agents]
    return tuple(fold(sample.data_mb for sample in day) for day in zip(*logs))


def _restore_by_tier(
    samples: Sequence[RestoreSample], wanted: tuple[Tier, ...]
) -> dict[Tier, RestoreSample]:
    by_tier: dict[Tier, RestoreSample] = {}
    for sample in samples:
        if sample.source_tier in by_tier:
            raise ConfigError(f"duplicate restore sample for tier {sample.source_tier.value}")
        by_tier[sample.source_tier] = sample
    missing = [t.value for t in wanted if t not in by_tier]
    extra = [t.value for t in by_tier if t not in wanted]
    if missing or extra:
        raise ConfigError(
            f"need exactly one restore sample per tier {[t.value for t in wanted]}; "
            f"missing {missing}, unexpected {extra}"
        )
    return by_tier


def _average(row: RateRow, job_logs: Mapping, by_tier: Mapping) -> float:
    if row.role is RateRole.BACKUP:
        try:
            return metrics.summarize_throughput(job_logs[row.source]).mean_arithmetic
        except DomainError as exc:
            raise DomainError(f"job log {row.source!r}: {exc}") from exc
    if row.kind is RateKind.THROUGHPUT:
        return metrics.recovery_throughput(by_tier[row.source])
    return metrics.restore_time_per_mb(by_tier[row.source])


def monthly_cost(scenario: Scenario, billed_mb: float, frontend_gb: float) -> CostBreakdown:
    """Monthly cost, at the ``scenario``'s prices, of the MB its system bills
    (``SystemSpec.billed``).

    An object store adds the scenario's operations; a vault adds the
    instance fee of its protected frontend of ``frontend_gb``.
    """
    billed_gb = metrics.mb_to_gb(billed_mb)
    rates = scenario.pricing
    if isinstance(rates, VaultRates):
        return costs.cloud_vault_cost(frontend_gb, billed_gb, rates)
    return costs.hybrid_cloud_cost(billed_gb, scenario.transactions, rates)


def build_basic(
    scenario: Scenario,
    job_logs: Mapping[str, Sequence[JobSample]],
    restore_samples: Sequence[RestoreSample],
) -> Model:
    """The ``scenario``'s system model over one backup cycle plus one trailing period.

    ``job_logs`` maps each agent's label to its log, which covers the
    cycle's days exactly; ``restore_samples`` has one sample per restore
    tier.  A tiering system moves each day's copy on at day + threshold.
    A system reads only the scenario fields its entry names.
    """
    # Looked up when called: bench/spans.py times model building by wrapping these names.
    build = build_hybrid_basic if scenario.system is SystemKind.HYBRID else build_cloud_basic
    return build(scenario, job_logs, restore_samples)


def _build(scenario: Scenario, job_logs, restore_samples) -> Model:
    system, threshold = scenario.system, scenario.bia.cloud_tiering_threshold_days
    spec = SYSTEMS[system]
    for agent in spec.agents:
        _check_days(job_logs.get(agent.log, ()), spec.days, agent.log)
    daily = daily_ingest(system, job_logs)
    by_tier = _restore_by_tier(restore_samples, tuple(r.tier for r in spec.restores))
    horizon = spec.days + 1

    components: list[ModelComponent] = []
    exogenous: dict[str, tuple[float, ...]] = {}
    for agent in spec.agents:
        log = job_logs[agent.log]
        components += (
            ModelComponent(agent.data, Kind.CONVERTER, unit="MB"),
            ModelComponent(agent.duration, Kind.CONVERTER, unit="s"),
            _ratio(agent.throughput, agent.data, agent.duration, "MB/s"),
        )
        exogenous[agent.data] = tuple(s.data_mb for s in log) + (0.0,)
        exogenous[agent.duration] = tuple(s.duration_s for s in log) + (0.0,)
    data = tuple(agent.data for agent in spec.agents)
    tiering = (spec.tiering,) if spec.tiering else ()
    components += (
        ModelComponent(
            spec.ingest, Kind.FLOW, unit="MB",
            expression=lambda v: fold(v[name] for name in data), depends=data,
        ),
        ModelComponent(
            spec.stocks[0], Kind.STOCK, unit="MB", inflows=(spec.ingest,), outflows=tiering
        ),
    )
    if spec.tiering:
        # Day d's copy moves on in period d + threshold, if that is within the horizon.
        exogenous[spec.tiering] = (
            (0.0,) * min(threshold, horizon) + daily[: max(horizon - threshold, 0)]
        )
        components += (
            ModelComponent(spec.tiering, Kind.FLOW, unit="MB"),
            ModelComponent(spec.stocks[1], Kind.STOCK, unit="MB", inflows=tiering),
        )
    for tier, suffix, period in spec.restores:
        sample = by_tier[tier]
        held = (("Data", "MB", sample.data_mb), ("Duration", "s", sample.duration_s))
        for what, unit, value in held:
            name = f"Restore{what}{suffix}"
            components.append(ModelComponent(name, Kind.CONVERTER, unit))
            exogenous[name] = _event_series(horizon, period, value)

    averages = {row.average: _average(row, job_logs, by_tier) for row in spec.rates}
    # Folded in period order, as engine.run's ingest stock adds it: it is that stock's
    # final value, and while it is finite, so is every stock the ingest feeds.
    total_mb = fold(daily)
    if not math.isfinite(total_mb):
        raise DomainError(
            f"job logs {[agent.log for agent in spec.agents]}: their total data overflows:"
            f" the sum over {spec.days} days is too large for a float"
        )
    billed_mb = fold(exogenous[spec.tiering]) if spec.tiering else total_mb
    components += [
        constant(row.average, averages[row.average], row.kind.value) for row in spec.rates
    ]
    cost = monthly_cost(scenario, billed_mb, scenario.frontend_gb).total
    components.append(constant("MonthlyServiceCost", cost, "USD/month"))
    counts = dataclasses.asdict(scenario.transactions) if scenario.transactions else {}
    settings = {"tiering_threshold_days": threshold, **counts, "frontend_gb": scenario.frontend_gb}
    meta = {
        "system": system.value,
        "extended": False,
        **{name: value for name, value in settings.items() if value is not None},
        "pricing": dataclasses.asdict(scenario.pricing),
        "averages": averages,
        spec.billed: billed_mb,
        "monthly_cost": cost,
    }
    return Model(spec.model, tuple(components), horizon, exogenous, meta)


# The two systems' builders under the names bench/spans.py times; they go
# once it times build_basic instead.
def build_hybrid_basic(*args) -> Model:
    return _build(*args)


def build_cloud_basic(*args) -> Model:
    return _build(*args)
