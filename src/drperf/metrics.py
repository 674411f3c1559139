"""Backup/restore rate metrics and data-volume projections.

All quantities use a single internal unit system: megabytes (decimal),
seconds, and decimal gigabytes (GB = MB / 1000).  Every function here is
pure, so the module is safe for concurrent use.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Annotated

from .errors import DomainError
from .fields import NonNegative, Positive, check_fields, checked

MB_PER_GB = 1000.0  # decimal gigabytes throughout
SECONDS_PER_HOUR = 3600.0
HOURS_PER_DAY = 24.0


def mb_to_gb(mb: float) -> float:
    return mb / MB_PER_GB


def seconds_to_hours(seconds: float) -> float:
    return seconds / SECONDS_PER_HOUR


class Tier(str, Enum):
    """Storage tier a restore is served from."""

    LOCAL = "Local"  # local storage of the backup appliance
    ARCHIVE = "Archive"  # cloud tier of the hybrid appliance
    VAULT = "Vault"  # fully cloud-hosted recovery vault


class RateOverflowError(DomainError):
    """A sample's data over its duration, or a restore's duration over its data,
    is too large for a float.  Its own class, so that the CSV reader can word
    the line by the cells it read."""


def _rate(data_mb: float, duration_s: float, both_ways: bool = False) -> float:
    """``data_mb / duration_s``; it, or with ``both_ways`` its inverse too, must be finite."""
    rates = (data_mb / duration_s, duration_s / data_mb) if both_ways else (data_mb / duration_s,)
    if not all(map(math.isfinite, rates)):
        raise RateOverflowError(f"data_mb {data_mb} over duration_s {duration_s}"
                                " overflows as a rate")
    return rates[0]


@dataclass(frozen=True)
class JobSample:
    """One measured backup job: 1-based day index, data amount, duration."""

    day: Annotated[int, (">=", 1)]
    data_mb: NonNegative
    duration_s: Positive

    def __post_init__(self):
        check_fields(self)
        _rate(self.data_mb, self.duration_s)


@dataclass(frozen=True)
class RestoreSample:
    """One measured restore: source tier, amount restored, duration."""

    source_tier: Tier
    data_mb: Positive
    duration_s: Positive

    def __post_init__(self):
        check_fields(self)
        _rate(self.data_mb, self.duration_s, both_ways=True)  # read as MB/s or as s/MB


@dataclass(frozen=True)
class ThroughputSummary:
    """Per-sample throughputs and their plain mean (between their minimum and maximum)."""

    per_sample: tuple[float, ...]
    mean_arithmetic: float


def summarize_throughput(samples: Sequence[JobSample]) -> ThroughputSummary:
    """Summarize a job log into per-sample rates and their mean."""
    if not samples:
        raise DomainError("cannot summarize an empty job log")
    per_sample = tuple(s.data_mb / s.duration_s for s in samples)  # JobSample checks each
    try:
        mean = math.fsum(per_sample) / len(per_sample)
    except OverflowError:  # finite rates whose sum exceeds the largest float
        raise DomainError(
            f"the mean of {len(per_sample)} per-sample rates overflows: their sum is too"
            " large for a float"
        ) from None
    return ThroughputSummary(per_sample, mean)


def restore_time_per_mb(sample: RestoreSample) -> float:
    """Seconds needed to restore one MB from the sampled tier."""
    return sample.duration_s / sample.data_mb


def recovery_throughput(sample: RestoreSample) -> float:
    """Recovery rate in MB/s (data restored divided by restore duration)."""
    return sample.data_mb / sample.duration_s


class RateKind(str, Enum):
    """How a rate converts a data volume into a time."""

    THROUGHPUT = "MB/s"  # time = data / rate
    SECONDS_PER_MB = "s/MB"  # time = data * rate


class RateRole(str, Enum):
    BACKUP = "backup"
    RESTORE = "restore"


@dataclass(frozen=True)
class Rate:
    """A labelled, finite average rate used as the basis of a projection."""

    label: str
    value: float
    kind: RateKind
    role: RateRole
    supplied: bool = False  # True when overridden externally instead of computed

    def __post_init__(self):
        check_fields(self)

    @checked
    def time_s(self, data_mb: Positive) -> float:
        """Seconds to move ``data_mb``; a rate <= 0, or a time not finite, raises."""
        if not self.value > 0:
            raise DomainError(f"rate {self.label!r} must be > 0, got {self.value}")
        seconds = data_mb / self.value if self.kind is RateKind.THROUGHPUT else data_mb * self.value
        if not math.isfinite(seconds):  # a throughput near zero, or s/MB times a huge volume
            raise DomainError(
                f"rate {self.label!r} of {self.value} {self.kind.value} gives a"
                f" {self.role.value} time of {seconds} s for {data_mb} MB"
            )
        return seconds


@dataclass(frozen=True)
class Projection:
    """Backup and restore times projected for a test data volume.

    ``times_s[role][label]`` is the seconds the rate of that role and label
    gives, roles in ``RateRole`` order (backup first); ``times_h(role)`` gives
    hours.  ``basis`` records the exact rates the times were derived from.
    """

    test_data_mb: float
    times_s: Mapping[RateRole, Mapping[str, float]]
    basis: tuple[Rate, ...]

    def times_h(self, role: RateRole) -> dict[str, float]:
        return {k: seconds_to_hours(v) for k, v in self.times_s[role].items()}


@checked
def project(test_data_mb: Positive, rates: Iterable[Rate]) -> Projection:
    """Project the time of each rate for ``test_data_mb``, keyed by role and label.

    Each rate must be unique in its role; ``Rate.time_s`` checks each rate and its time.
    """
    basis = tuple(rates)
    if not basis:
        raise DomainError("at least one rate is required")
    times: dict[RateRole, dict[str, float]] = {role: {} for role in RateRole}
    for rate in basis:
        bucket = times[rate.role]
        if rate.label in bucket:
            raise DomainError(f"duplicate {rate.role.value} rate {rate.label!r}")
        bucket[rate.label] = rate.time_s(test_data_mb)
    return Projection(test_data_mb, times, basis)
