"""Builders for the bundled data-protection models.

Two systems are modeled:

* a hybrid backup appliance whose copies land on local storage and move
  to a cloud object-store tier once they outlive the tiering threshold;
* a cloud recovery vault that receives two agents' daily uploads directly.

Each builder returns an immutable :class:`~drperf.engine.Model` covering
one backup cycle plus one trailing period (the post-cycle state).  The
extension step adds what-if converters for a larger test data volume
without disturbing any basic-model trajectory.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from enum import Enum

from . import costs, metrics
from .costs import CostBreakdown, ObjectStoreRates, VaultRates
from .engine import Kind, Model, ModelComponent
from .errors import ConfigError
from .metrics import JobSample, Projection, Rate, RateKind, RateRole, RestoreSample, Tier

HYBRID_BACKUP_DAYS = 14
CLOUD_BACKUP_DAYS = 7
DEFAULT_TIERING_THRESHOLD_DAYS = 14
# Monthly instance fees depend on the protected frontend size, which the
# bundled vault measurements do not state; reproducing their published
# cost requires the lowest fee tier, hence this documented default.
DEFAULT_FRONTEND_GB = 50.0


class SystemKind(str, Enum):
    HYBRID = "hybrid"
    CLOUD_VAULT = "cloud-vault"


# Each system's projection rates: the rate's label, the model average it
# reads (a constant of the basic model, which a scenario may supply
# instead), its kind and role, and the what-if converter of the extended
# model that holds its projected time.
_RATES = {
    SystemKind.HYBRID: (
        ("Backup", "MeanDailyThroughput", RateKind.THROUGHPUT, RateRole.BACKUP,
         "BackupTimeTestData"),
        ("Local", "RestoreTimePerMbLocal", RateKind.SECONDS_PER_MB, RateRole.RESTORE,
         "RestoreTimeLocalTestData"),
        ("Archive", "RestoreTimePerMbArchive", RateKind.SECONDS_PER_MB, RateRole.RESTORE,
         "RestoreTimeArchiveTestData"),
    ),
    SystemKind.CLOUD_VAULT: (
        ("Job1", "AvgJob1Throughput", RateKind.THROUGHPUT, RateRole.BACKUP,
         "BackupTimeJob1TestData"),
        ("Job2", "AvgJob2Throughput", RateKind.THROUGHPUT, RateRole.BACKUP,
         "BackupTimeJob2TestData"),
        ("Vault", "RecoveryThroughput", RateKind.THROUGHPUT, RateRole.RESTORE,
         "RecoveryTimeTestData"),
    ),
}


def check_supplied_averages(system: SystemKind, averages: Mapping[str, float]) -> None:
    """Reject averages that a ``system`` model does not have, and values not > 0."""
    names = [average for _, average, _, _, _ in _RATES[system]]
    unknown = averages.keys() - set(names)
    if unknown:
        raise ConfigError(
            f"supplied_averages: unknown keys {sorted(unknown, key=str)}; "
            f"a {system.value} model has {names}"
        )
    for name, value in averages.items():
        if not value > 0:
            raise ConfigError(f"supplied_averages.{name} must be > 0, got {value}")


def _system_of(model: Model) -> SystemKind:
    try:
        return SystemKind(model.meta.get("system"))
    except ValueError:
        raise ConfigError(
            f"model {model.name!r} is of unknown system {model.meta.get('system')!r}"
        ) from None


def _constant(name: str, value: float, unit: str) -> ModelComponent:
    return ModelComponent(
        name=name,
        kind=Kind.CONVERTER,
        unit=unit,
        expression=lambda v, _value=float(value): _value,
    )


def _averages(system: SystemKind, averages: Mapping[str, float]) -> tuple[ModelComponent, ...]:
    """The constants holding a system's averages, in the units of their rate kinds."""
    return tuple(
        _constant(average, averages[average], kind.value)
        for _, average, kind, _, _ in _RATES[system]
    )


def _ratio(name: str, numerator: str, denominator: str, unit: str) -> ModelComponent:
    def expr(v: Mapping[str, float], num=numerator, den=denominator) -> float:
        return v[num] / v[den] if v[den] > 0 else 0.0

    return ModelComponent(
        name=name,
        kind=Kind.CONVERTER,
        unit=unit,
        expression=expr,
        depends=(numerator, denominator),
    )


def _event_series(horizon: int, period: int, value: float) -> tuple[float, ...]:
    series = [0.0] * horizon
    series[period - 1] = float(value)
    return tuple(series)


def _check_daily_log(log: Sequence[JobSample], expected_days: int, label: str) -> None:
    if tuple(s.day for s in log) != tuple(range(1, expected_days + 1)):
        raise ConfigError(
            f"{label} must cover days 1..{expected_days} exactly, got {len(log)} samples"
        )


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


def build_hybrid_basic(
    job_log: Sequence[JobSample],
    restore_samples: Sequence[RestoreSample],
    tiering_threshold_days: int = DEFAULT_TIERING_THRESHOLD_DAYS,
    rates: ObjectStoreRates | None = None,
    ingress_egress_ops: int = costs.DEFAULT_INGRESS_EGRESS_OPS,
    listing_ops: int = costs.DEFAULT_LISTING_OPS,
) -> Model:
    """Hybrid appliance over one 14-day backup cycle plus one tiering period.

    Copies accumulate on LocalStorage; at day + threshold a copy moves to
    the CloudTier stock.  Restore converters carry one sampled restore per
    tier (local on the last backup day, archive in the trailing period).
    """
    if tiering_threshold_days < 1:
        raise ConfigError(f"tiering_threshold_days must be >= 1, got {tiering_threshold_days}")
    _check_daily_log(job_log, HYBRID_BACKUP_DAYS, "hybrid job log")
    by_tier = _restore_by_tier(restore_samples, (Tier.LOCAL, Tier.ARCHIVE))
    local, archive = by_tier[Tier.LOCAL], by_tier[Tier.ARCHIVE]
    rates = rates or ObjectStoreRates()
    horizon = HYBRID_BACKUP_DAYS + 1

    tiering = [0.0] * horizon
    for sample in job_log:
        move_period = sample.day + tiering_threshold_days
        if move_period <= horizon:
            tiering[move_period - 1] += sample.data_mb
    tiered_mb = sum(tiering)

    summary = metrics.summarize_throughput(job_log)
    averages = {
        "MeanDailyThroughput": summary.mean_arithmetic,
        "RestoreTimePerMbLocal": metrics.restore_time_per_mb(local),
        "RestoreTimePerMbArchive": metrics.restore_time_per_mb(archive),
    }
    monthly_cost = costs.hybrid_cloud_cost(
        metrics.mb_to_gb(tiered_mb), ingress_egress_ops, listing_ops, rates
    ).total

    components = (
        ModelComponent("AgentDailyData", Kind.CONVERTER, unit="MB"),
        ModelComponent("BackupDuration", Kind.CONVERTER, unit="s"),
        _ratio("DailyThroughput", "AgentDailyData", "BackupDuration", "MB/s"),
        ModelComponent(
            "DailyBackup",
            Kind.FLOW,
            unit="MB",
            expression=lambda v: v["AgentDailyData"],
            depends=("AgentDailyData",),
        ),
        ModelComponent("TieringMove", Kind.FLOW, unit="MB"),
        ModelComponent(
            "LocalStorage",
            Kind.STOCK,
            unit="MB",
            inflows=("DailyBackup",),
            outflows=("TieringMove",),
        ),
        ModelComponent("CloudTier", Kind.STOCK, unit="MB", inflows=("TieringMove",)),
        ModelComponent("RestoreDataLocal", Kind.CONVERTER, unit="MB"),
        ModelComponent("RestoreDurationLocal", Kind.CONVERTER, unit="s"),
        ModelComponent("RestoreDataArchive", Kind.CONVERTER, unit="MB"),
        ModelComponent("RestoreDurationArchive", Kind.CONVERTER, unit="s"),
        *_averages(SystemKind.HYBRID, averages),
        _constant("MonthlyServiceCost", monthly_cost, "USD/month"),
    )
    exogenous = {
        "AgentDailyData": tuple(s.data_mb for s in job_log) + (0.0,),
        "BackupDuration": tuple(s.duration_s for s in job_log) + (0.0,),
        "TieringMove": tuple(tiering),
        "RestoreDataLocal": _event_series(horizon, HYBRID_BACKUP_DAYS, local.data_mb),
        "RestoreDurationLocal": _event_series(horizon, HYBRID_BACKUP_DAYS, local.duration_s),
        "RestoreDataArchive": _event_series(horizon, horizon, archive.data_mb),
        "RestoreDurationArchive": _event_series(horizon, horizon, archive.duration_s),
    }
    meta = {
        "system": SystemKind.HYBRID.value,
        "extended": False,
        "tiering_threshold_days": tiering_threshold_days,
        "pricing": dataclasses.asdict(rates),
        "ingress_egress_ops": ingress_egress_ops,
        "listing_ops": listing_ops,
        "averages": averages,
        "tiered_mb": tiered_mb,
        "monthly_cost": monthly_cost,
    }
    return Model(
        name="hybrid-basic",
        components=components,
        horizon=horizon,
        exogenous=exogenous,
        meta=meta,
    )


def build_cloud_basic(
    job1_log: Sequence[JobSample],
    job2_log: Sequence[JobSample],
    restore_sample: RestoreSample,
    frontend_gb: float = DEFAULT_FRONTEND_GB,
    rates: VaultRates | None = None,
) -> Model:
    """Cloud recovery vault over one 7-day cycle plus one trailing period.

    Both agents upload daily; the vault stock accumulates their combined
    transfer.  The sampled restore is placed in the trailing period.
    """
    _check_daily_log(job1_log, CLOUD_BACKUP_DAYS, "job1 log")
    _check_daily_log(job2_log, CLOUD_BACKUP_DAYS, "job2 log")
    if restore_sample.source_tier is not Tier.VAULT:
        raise ConfigError(
            f"cloud restore sample must come from the Vault tier, got "
            f"{restore_sample.source_tier.value}"
        )
    rates = rates or VaultRates()
    horizon = CLOUD_BACKUP_DAYS + 1

    summary1 = metrics.summarize_throughput(job1_log)
    summary2 = metrics.summarize_throughput(job2_log)
    averages = {
        "AvgJob1Throughput": summary1.mean_arithmetic,
        "AvgJob2Throughput": summary2.mean_arithmetic,
        "RecoveryThroughput": metrics.recovery_throughput(restore_sample),
    }
    stored_mb = sum(s.data_mb for s in job1_log) + sum(s.data_mb for s in job2_log)
    monthly_cost = costs.cloud_vault_cost(
        frontend_gb, metrics.mb_to_gb(stored_mb), rates
    ).total

    def transfer(v: Mapping[str, float]) -> float:
        return v["Job1Data"] + v["Job2Data"]

    components = (
        ModelComponent("Job1Data", Kind.CONVERTER, unit="MB"),
        ModelComponent("Job1Duration", Kind.CONVERTER, unit="s"),
        ModelComponent("Job2Data", Kind.CONVERTER, unit="MB"),
        ModelComponent("Job2Duration", Kind.CONVERTER, unit="s"),
        _ratio("Job1Throughput", "Job1Data", "Job1Duration", "MB/s"),
        _ratio("Job2Throughput", "Job2Data", "Job2Duration", "MB/s"),
        ModelComponent(
            "DailyTransfer",
            Kind.FLOW,
            unit="MB",
            expression=transfer,
            depends=("Job1Data", "Job2Data"),
        ),
        ModelComponent("RecoveryVault", Kind.STOCK, unit="MB", inflows=("DailyTransfer",)),
        ModelComponent("RestoreData", Kind.CONVERTER, unit="MB"),
        ModelComponent("RestoreDuration", Kind.CONVERTER, unit="s"),
        *_averages(SystemKind.CLOUD_VAULT, averages),
        _constant("MonthlyServiceCost", monthly_cost, "USD/month"),
    )
    pad = (0.0,) * (horizon - CLOUD_BACKUP_DAYS)
    exogenous = {
        "Job1Data": tuple(s.data_mb for s in job1_log) + pad,
        "Job1Duration": tuple(s.duration_s for s in job1_log) + pad,
        "Job2Data": tuple(s.data_mb for s in job2_log) + pad,
        "Job2Duration": tuple(s.duration_s for s in job2_log) + pad,
        "RestoreData": _event_series(horizon, horizon, restore_sample.data_mb),
        "RestoreDuration": _event_series(horizon, horizon, restore_sample.duration_s),
    }
    meta = {
        "system": SystemKind.CLOUD_VAULT.value,
        "extended": False,
        "frontend_gb": frontend_gb,
        "pricing": dataclasses.asdict(rates),
        "averages": averages,
        "stored_mb": stored_mb,
        "monthly_cost": monthly_cost,
    }
    return Model(
        name="cloud-basic",
        components=components,
        horizon=horizon,
        exogenous=exogenous,
        meta=meta,
    )


def extend_with_test_data(model: Model, projection: Projection, cost: CostBreakdown) -> Model:
    """Add what-if converters for a test data volume to a basic model.

    The new converters hold the projected backup/restore times and the
    monthly cost of protecting the volume, exactly as given.  Every
    original component keeps its exact trajectory.
    """
    system = _system_of(model)
    if model.meta.get("extended"):
        raise ConfigError(f"model {model.name!r} is already extended")
    times = {**projection.backup_times_s, **projection.restore_times_s}
    missing = [label for label, *_ in _RATES[system] if label not in times]
    if missing:
        raise ConfigError(
            f"projection for {system.value} model {model.name!r} lacks times {missing}"
        )
    extra = (
        (_constant("TestData", projection.test_data_mb, "MB"),)
        + tuple(_constant(what_if, times[label], "s") for label, *_, what_if in _RATES[system])
        + (_constant("TotalServiceCostTestData", cost.total, "USD/month"),)
    )
    meta = dict(model.meta)
    meta.update(extended=True, test_data_mb=projection.test_data_mb)
    return Model(
        name=f"{model.name}-extended",
        components=model.components + extra,
        horizon=model.horizon,
        exogenous=model.exogenous,
        meta=meta,
    )


def projection_rates(
    model: Model, supplied_averages: Mapping[str, float] | None = None
) -> tuple[Rate, ...]:
    """The model's average rates, overridden by ``supplied_averages``, as projection inputs."""
    system = _system_of(model)
    supplied = supplied_averages or {}
    check_supplied_averages(system, supplied)
    averages = model.meta["averages"]
    return tuple(
        Rate(label, float(supplied.get(average, averages[average])), kind, role,
             supplied=average in supplied)
        for label, average, kind, role, _ in _RATES[system]
    )
