from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from drperf.errors import DomainError
from drperf.metrics import (
    JobSample,
    Rate,
    RateKind,
    RateRole,
    RestoreSample,
    ThroughputSummary,
    Tier,
    mb_to_gb,
    project,
    recovery_throughput,
    restore_time_per_mb,
    seconds_to_hours,
    summarize_throughput,
    throughput,
)


def sample(day, data, dur):
    return JobSample(day=day, data_mb=data, duration_s=dur)


class TestThroughput:
    def test_basic_ratio(self):
        assert throughput(100.0, 50.0) == 2.0

    def test_zero_data_is_allowed(self):
        assert throughput(0.0, 10.0) == 0.0

    def test_rejects_bad_duration(self):
        with pytest.raises(DomainError):
            throughput(10.0, 0.0)
        with pytest.raises(DomainError):
            throughput(10.0, -1.0)

    def test_rejects_negative_data(self):
        with pytest.raises(DomainError):
            throughput(-1.0, 10.0)


class TestJobSample:
    def test_validation(self):
        with pytest.raises(DomainError):
            sample(0, 10, 10)
        with pytest.raises(DomainError):
            sample(1, -5, 10)
        with pytest.raises(DomainError):
            sample(1, 10, 0)


class TestSummarize:
    def test_two_samples(self):
        summary = summarize_throughput([sample(1, 10, 5), sample(2, 30, 10)])
        assert summary.per_sample == (2.0, 3.0)
        assert summary.mean_arithmetic == pytest.approx(2.5)

    def test_empty_log_rejected(self):
        with pytest.raises(DomainError):
            summarize_throughput([])

    def test_mean_that_overflows_is_a_domain_error(self):
        # Each rate is finite, but their sum is not; a finite sum keeps fsum's exact mean.
        with pytest.raises(DomainError, match="the mean of 2 per-sample rates overflows"):
            summarize_throughput([sample(1, 1.7e308, 1.0), sample(2, 1.7e308, 1.0)])
        assert summarize_throughput([sample(1, 1.7e308, 2.0), sample(2, 1.7e308, 2.0)]) == (
            ThroughputSummary((8.5e307, 8.5e307), 8.5e307)
        )

    def test_single_sample_means_coincide(self):
        summary = summarize_throughput([sample(1, 123.0, 7.0)])
        assert summary.mean_arithmetic == 123.0 / 7.0

    @given(
        st.lists(
            st.tuples(st.integers(1, 100000), st.integers(1, 100000)),
            min_size=1,
            max_size=30,
        )
    )
    def test_means_lie_between_extremes(self, pairs):
        log = [sample(i + 1, data, dur) for i, (data, dur) in enumerate(pairs)]
        summary = summarize_throughput(log)
        lo, hi = min(summary.per_sample), max(summary.per_sample)
        assert lo <= summary.mean_arithmetic <= hi or math.isclose(summary.mean_arithmetic, lo)

    @given(
        st.lists(st.integers(1, 100000), min_size=1, max_size=20),
        st.integers(1, 10000),
    )
    def test_equal_durations_collapse_the_means(self, sizes, dur):
        log = [sample(i + 1, data, dur) for i, data in enumerate(sizes)]
        summary = summarize_throughput(log)
        aggregate = sum(sizes) / (dur * len(sizes))
        assert summary.mean_arithmetic == pytest.approx(aggregate, rel=1e-12)


class TestRestoreMetrics:
    def test_time_per_mb(self):
        sample = RestoreSample(Tier.LOCAL, data_mb=1824.01, duration_s=38.24)
        assert restore_time_per_mb(sample) == pytest.approx(38.24 / 1824.01)

    def test_recovery_throughput(self):
        sample = RestoreSample(Tier.VAULT, data_mb=7690, duration_s=1380)
        assert recovery_throughput(sample) == pytest.approx(7690 / 1380)

    def test_restore_sample_validation(self):
        with pytest.raises(DomainError):
            RestoreSample(Tier.LOCAL, data_mb=0, duration_s=5)
        with pytest.raises(DomainError):
            RestoreSample(Tier.LOCAL, data_mb=5, duration_s=0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: JobSample(1, 1e308, 1e-300), "data_mb 1e+308 over duration_s 1e-300"),
            (lambda: RestoreSample(Tier.LOCAL, 1e308, 1e-10), "data_mb 1e+308 over duration_s 1e-10"),
            (lambda: RestoreSample(Tier.LOCAL, 1e-300, 1e300), "data_mb 1e-300 over duration_s 1e+300"),
        ],
        ids=["job", "restore-throughput", "restore-time-per-mb"],
    )
    def test_a_sample_whose_rate_overflows_is_rejected_on_construction(self, make, message):
        with pytest.raises(DomainError) as excinfo:
            make()
        assert str(excinfo.value) == f"{message} overflows as a rate"

    @given(st.floats(0.001, 1e6), st.floats(0.001, 1e6))
    def test_round_trip_identities(self, data, dur):
        sample = RestoreSample(Tier.ARCHIVE, data_mb=data, duration_s=dur)
        assert restore_time_per_mb(sample) * data == pytest.approx(dur, rel=1e-9)
        assert recovery_throughput(sample) * dur == pytest.approx(data, rel=1e-9)
        assert throughput(data, dur) * dur == pytest.approx(data, rel=1e-9)


class TestProject:
    def rates(self):
        return (
            Rate("Backup", 50.0, RateKind.THROUGHPUT, RateRole.BACKUP),
            Rate("Local", 0.02, RateKind.SECONDS_PER_MB, RateRole.RESTORE),
        )

    def test_both_rate_kinds(self):
        projection = project(1000.0, self.rates())
        assert projection.times_s[RateRole.BACKUP]["Backup"] == pytest.approx(20.0)
        assert projection.times_s[RateRole.RESTORE]["Local"] == pytest.approx(20.0)
        assert projection.times_h(RateRole.BACKUP)["Backup"] == pytest.approx(20.0 / 3600)

    def test_times_are_keyed_by_role_backup_first(self):
        # Restore rates first in the basis, and a restore rate that shares a backup
        # rate's label: each role keeps its own time, and backup still comes first.
        basis = (
            Rate("Job1", 0.02, RateKind.SECONDS_PER_MB, RateRole.RESTORE),
            Rate("Job1", 50.0, RateKind.THROUGHPUT, RateRole.BACKUP),
        )
        projection = project(1000.0, basis)
        assert list(projection.times_s) == [RateRole.BACKUP, RateRole.RESTORE]
        assert projection.times_s == {
            RateRole.BACKUP: {"Job1": 20.0}, RateRole.RESTORE: {"Job1": 20.0}
        }
        restore_only = project(1000.0, basis[:1])
        assert list(restore_only.times_s) == list(RateRole)
        assert restore_only.times_h(RateRole.BACKUP) == {}

    def test_rejects_bad_volume_and_rates(self):
        with pytest.raises(DomainError):
            project(0.0, self.rates())
        with pytest.raises(DomainError):
            project(-1.0, self.rates())
        with pytest.raises(DomainError):
            project(10.0, [])
        with pytest.raises(DomainError):
            project(10.0, [Rate("x", 0.0, RateKind.THROUGHPUT, RateRole.BACKUP)])

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("kind", list(RateKind))
    def test_non_finite_rate_rejected(self, value, kind):
        # An infinite throughput would project a time of 0 s and pass every target, so
        # the rate rejects it when it is made, before any projection.
        with pytest.raises(DomainError) as excinfo:
            Rate("x", value, kind, RateRole.RESTORE)
        assert str(excinfo.value) == f"value must be finite, got {value}"

    def test_duplicate_labels_rejected(self):
        dupes = (
            Rate("Backup", 1.0, RateKind.THROUGHPUT, RateRole.BACKUP),
            Rate("Backup", 2.0, RateKind.THROUGHPUT, RateRole.BACKUP),
        )
        with pytest.raises(DomainError):
            project(10.0, dupes)

    def test_non_finite_time_rejected_naming_the_rate(self):
        tiny = Rate("Job1", 1e-320, RateKind.THROUGHPUT, RateRole.BACKUP)
        message = "rate 'Job1' of 1e-320 MB/s gives a backup time of inf s"
        with pytest.raises(DomainError, match=message):
            project(531012.0, [tiny])
        slow = Rate("Vault", 10.0, RateKind.SECONDS_PER_MB, RateRole.RESTORE)
        with pytest.raises(DomainError, match="rate 'Vault' .* restore time of inf s"):
            project(1e308, [slow])

    def test_a_rate_rejects_a_non_finite_time_on_its_own(self):
        # Rate.time_s checks every time it computes, whoever asks for it.
        tiny = Rate("Job1", 1e-320, RateKind.THROUGHPUT, RateRole.BACKUP)
        with pytest.raises(DomainError) as excinfo:
            tiny.time_s(1.0)
        assert str(excinfo.value) == (
            "rate 'Job1' of 1e-320 MB/s gives a backup time of inf s for 1.0 MB"
        )
        slow = Rate("Vault", 10.0, RateKind.SECONDS_PER_MB, RateRole.RESTORE)
        with pytest.raises(DomainError) as excinfo:
            slow.time_s(1e308)
        assert str(excinfo.value) == (
            "rate 'Vault' of 10.0 s/MB gives a restore time of inf s for 1e+308 MB"
        )
        assert slow.time_s(1e307) == 1e308

    @pytest.mark.parametrize(
        "value, message",
        [(0.0, "rate 'Job1' must be > 0, got 0.0"), (-1.0, "rate 'Job1' must be > 0, got -1.0"),
         (math.nan, "value must be finite, got nan"), (math.inf, "value must be finite, got inf")],
        ids=["zero", "negative", "nan", "inf"],
    )
    @pytest.mark.parametrize("kind", list(RateKind))
    def test_a_rate_rejects_a_bad_value_on_its_own(self, value, message, kind):
        # Rate.time_s checks the rate itself, so a throughput of 0 is named, not divided by;
        # a non-finite rate is rejected earlier, when it is made.
        with pytest.raises(DomainError) as excinfo:
            Rate("Job1", value, kind, RateRole.BACKUP).time_s(1.0)
        assert str(excinfo.value) == message

    @given(st.floats(0.001, 1e9))
    def test_linearity(self, volume):
        one = project(volume, self.rates())
        two = project(2 * volume, self.rates())
        for role, times in one.times_s.items():
            for label, time in times.items():
                assert two.times_s[role][label] == pytest.approx(2 * time, rel=1e-12)


def test_unit_helpers():
    assert mb_to_gb(531012) == pytest.approx(531.012)
    assert seconds_to_hours(7200) == 2.0
