"""Business impact analysis targets and compliance checking.

A BIA fixes per-agent recovery targets (RPO, RTO, optional WRT and data
loss ceiling).  This module compares a projection against those targets
and produces a verdict per metric.  Time-budget arithmetic:
MTD = RTO + WRT.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Annotated

from .errors import DomainError
from .fields import NonNegative, Positive, check, check_fields
from .metrics import HOURS_PER_DAY, Projection, RateRole


def mtd(rto_h: float, wrt_h: float) -> float:
    """Maximum tolerable downtime: recovery time plus work recovery time."""
    rto_h, wrt_h = check(rto_h, "rto_h", NonNegative), check(wrt_h, "wrt_h", NonNegative)
    total = rto_h + wrt_h
    if not math.isfinite(total):
        raise DomainError(f"MTD of {rto_h} h + {wrt_h} h overflows")
    return total


@dataclass(frozen=True)
class BiaTargets:
    """Recovery targets for one backup agent.

    ``recovery_points_scheme`` is an opaque vendor string kept verbatim.
    ``cloud_tiering_threshold_days`` applies to hybrid appliances, None elsewhere.
    ``max_data_loss_mb`` holds the tolerable data loss, when the BIA
    states one.
    """

    agent: str
    backup_frequency_days: Positive = 1.0
    backup_retention_days: Annotated[int, (">", 0)] = 14
    recovery_points_scheme: str = ""
    cloud_tiering_threshold_days: Annotated[int, (">=", 1)] | None = None
    rpo_target_days: Positive | None = None
    rto_target_h: Positive | None = None
    wrt_h: NonNegative | None = None
    max_data_loss_mb: Positive | None = None

    def __post_init__(self):
        check_fields(self)
        if not math.isfinite(self.backup_frequency_days * HOURS_PER_DAY):
            raise DomainError(
                f"backup_frequency_days gives a backup window beyond float range in hours,"
                f" got {self.backup_frequency_days}"
            )


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_EVALUABLE = "N/A"


@dataclass(frozen=True)
class ComplianceVerdict:
    """One measured metric against its upper-bound target, both in ``unit``.

    Every BIA target is a maximum, so the verdict passes exactly when
    ``measured <= target``: its margin ``target - measured`` is not negative.
    A missing side makes the verdict NOT_EVALUABLE instead of an error.
    """

    metric: str
    measured: float | None
    target: float | None
    unit: str

    @property
    def status(self) -> Status:
        if self.measured is None or self.target is None:
            return Status.NOT_EVALUABLE
        return Status.PASS if self.measured <= self.target else Status.FAIL


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


def _time_verdicts(
    metric: str, times_h: Mapping[str, float], target_h: float | None
) -> list[ComplianceVerdict]:
    """One verdict per labelled time, or a single N/A verdict when there is none."""
    if not times_h:
        return [ComplianceVerdict(metric, None, target_h, "h")]
    return [
        ComplianceVerdict(f"{metric} ({label})", times_h[label], target_h, "h")
        for label in sorted(times_h)
    ]


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
    restore_h, backup_h = projection.times_h(RateRole.RESTORE), projection.times_h(RateRole.BACKUP)
    verdicts = [
        *_time_verdicts("restore time", restore_h, targets.rto_target_h),
        *_time_verdicts("backup time", backup_h, targets.backup_frequency_days * HOURS_PER_DAY),
        # The achieved RPO: the backup frequency (the worst-case age of the newest
        # copy) when the projection holds a backup time, else N/A.
        ComplianceVerdict(
            "achieved RPO",
            targets.backup_frequency_days if backup_h else None,
            targets.rpo_target_days,
            "days",
        ),
    ]
    if targets.max_data_loss_mb is not None:
        loss = ComplianceVerdict("data loss", data_loss_mb, targets.max_data_loss_mb, "MB")
        verdicts.append(loss)

    mtd_hours = None
    if targets.wrt_h is not None and restore_h:
        mtd_hours = mtd(min(restore_h.values()), targets.wrt_h)

    return ComplianceReport(verdicts=tuple(verdicts), mtd_hours=mtd_hours)
