"""Business impact analysis targets and compliance checking.

A BIA fixes per-agent recovery targets (RPO, RTO, optional WRT and data
loss ceiling).  This module compares a projection against those targets
and produces a verdict per metric.  Time-budget arithmetic:
MTD = RTO + WRT.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .metrics import HOURS_PER_DAY, Projection


def mtd(rto_h: float, wrt_h: float) -> float:
    """Maximum tolerable downtime: recovery time plus work recovery time."""
    if rto_h < 0 or wrt_h < 0:
        raise DomainError(f"rto_h and wrt_h must be >= 0, got {rto_h} and {wrt_h}")
    return rto_h + wrt_h


@dataclass(frozen=True)
class BiaTargets:
    """Recovery targets for one backup agent.

    ``recovery_points_scheme`` is an opaque vendor string kept verbatim.
    ``cloud_tiering_threshold_days`` only applies to hybrid appliances.
    ``max_data_loss_mb`` holds the tolerable data loss, when the BIA
    states one.
    """

    agent: str
    backup_frequency_days: float = 1.0
    backup_retention_days: int = 14
    recovery_points_scheme: str = ""
    cloud_tiering_threshold_days: int | None = None
    rpo_target_days: float | None = None
    rto_target_h: float | None = None
    wrt_h: float | None = None
    max_data_loss_mb: float | None = None

    def __post_init__(self):
        if self.backup_frequency_days <= 0:
            raise DomainError(f"backup_frequency_days must be > 0, got {self.backup_frequency_days}")
        if self.backup_retention_days <= 0:
            raise DomainError(f"backup_retention_days must be > 0, got {self.backup_retention_days}")
        for name in ("cloud_tiering_threshold_days", "rpo_target_days", "rto_target_h", "max_data_loss_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise DomainError(f"{name} must be > 0 when given, got {value}")
        if self.wrt_h is not None and self.wrt_h < 0:
            raise DomainError(f"wrt_h must be >= 0 when given, got {self.wrt_h}")


class Relation(str, Enum):
    AT_MOST = "<="
    AT_LEAST = ">="


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_EVALUABLE = "N/A"


@dataclass(frozen=True)
class Quantity:
    """A value with a unit; compliance compares like units only."""

    value: float
    unit: str

    def __str__(self) -> str:
        return f"{self.value:.6g} {self.unit}"


@dataclass(frozen=True)
class ComplianceVerdict:
    """Outcome of comparing one measured metric against its target."""

    metric: str
    measured: Quantity | None
    target: Quantity | None
    relation: Relation
    status: Status


def check(
    metric: str,
    measured: Quantity | None,
    target: Quantity | None,
    relation: Relation = Relation.AT_MOST,
) -> ComplianceVerdict:
    """Compare a measurement against a target; equality counts as a pass.

    A missing measurement or target yields a NOT_EVALUABLE verdict instead
    of an error.
    """
    if measured is None or target is None:
        return ComplianceVerdict(metric, measured, target, relation, Status.NOT_EVALUABLE)
    if measured.unit != target.unit:
        raise DomainError(
            f"{metric}: cannot compare {measured.unit!r} against {target.unit!r}"
        )
    if relation is Relation.AT_MOST:
        ok = measured.value <= target.value
    else:
        ok = measured.value >= target.value
    return ComplianceVerdict(metric, measured, target, relation, Status.PASS if ok else Status.FAIL)


@dataclass(frozen=True)
class ComplianceReport:
    """All verdicts for one scenario plus the MTD when derivable."""

    verdicts: tuple[ComplianceVerdict, ...]
    mtd_hours: float | None = None

    @property
    def failures(self) -> tuple[ComplianceVerdict, ...]:
        return tuple(v for v in self.verdicts if v.status is Status.FAIL)

    @property
    def compliant(self) -> bool:
        return not self.failures


def evaluate(
    projection: Projection, targets: BiaTargets, data_loss_mb: float | None = None
) -> ComplianceReport:
    """Produce one verdict per target-relevant metric; never raises on gaps.

    Projected restore times are checked against the RTO target, backup
    times against the backup window (one copy must finish within a backup
    period), the achieved RPO against the RPO target, and ``data_loss_mb``
    against the ceiling when the BIA defines one.  MTD is reported when a
    WRT is set and the projection holds a restore time, using the fastest
    restore path.
    """
    restore_h, backup_h = projection.restore_times_h, projection.backup_times_h
    verdicts: list[ComplianceVerdict] = []

    rto_target = (
        Quantity(targets.rto_target_h, "h") if targets.rto_target_h is not None else None
    )
    if restore_h:
        for label in sorted(restore_h):
            verdicts.append(
                check(f"restore time ({label})", Quantity(restore_h[label], "h"), rto_target)
            )
    else:
        verdicts.append(check("restore time", None, rto_target))

    window = Quantity(targets.backup_frequency_days * HOURS_PER_DAY, "h")
    if backup_h:
        for label in sorted(backup_h):
            verdicts.append(check(f"backup time ({label})", Quantity(backup_h[label], "h"), window))
    else:
        verdicts.append(check("backup time", None, window))

    # The achieved RPO: the backup frequency (the worst-case age of the newest copy)
    # when the projection holds a backup time, else N/A.
    achieved_rpo = Quantity(targets.backup_frequency_days, "days") if backup_h else None
    rpo_target = (
        Quantity(targets.rpo_target_days, "days") if targets.rpo_target_days is not None else None
    )
    verdicts.append(check("achieved RPO", achieved_rpo, rpo_target))

    if targets.max_data_loss_mb is not None:
        verdicts.append(
            check(
                "data loss",
                Quantity(data_loss_mb, "MB") if data_loss_mb is not None else None,
                Quantity(targets.max_data_loss_mb, "MB"),
            )
        )

    mtd_hours = None
    if targets.wrt_h is not None and restore_h:
        mtd_hours = mtd(min(restore_h.values()), targets.wrt_h)

    return ComplianceReport(verdicts=tuple(verdicts), mtd_hours=mtd_hours)
