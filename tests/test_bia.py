from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from drperf.bia import (
    BiaTargets,
    ComplianceVerdict,
    Status,
    evaluate,
    mtd,
)
from drperf.errors import DomainError
from drperf.metrics import SECONDS_PER_HOUR, Projection, RateRole


class TestMtd:
    def test_simple_sums(self):
        assert mtd(5.0, 3.0) == 8.0
        assert mtd(0.0, 7.5) == 7.5
        assert mtd(3.09239, 1.90761) == pytest.approx(5.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            mtd(-1.0, 1.0)
        with pytest.raises(DomainError):
            mtd(1.0, -1.0)

    def test_rejects_a_sum_beyond_float_range(self):
        with pytest.raises(DomainError, match="overflows"):
            mtd(1.7976931348623157e308, 1.0e300)
        assert mtd(1.7976931348623157e308, 1.0) == 1.7976931348623157e308  # rounds, stays finite

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    def test_commutative_and_exact(self, a, b):
        assert mtd(a, b) == mtd(b, a) == a + b


def status(measured, target) -> Status:
    return ComplianceVerdict("m", measured, target, "h").status


class TestCheck:
    def test_at_most(self):
        assert status(3.09239, 5.0) is Status.PASS
        assert status(38.016, 5.0) is Status.FAIL
        assert status(26.47, 5.0) is Status.FAIL

    def test_equality_passes(self):
        assert status(5.0, 5.0) is Status.PASS

    def test_missing_side_is_not_evaluable(self):
        assert status(None, 5.0) is Status.NOT_EVALUABLE
        assert status(5.0, None) is Status.NOT_EVALUABLE

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_passes_exactly_when_the_margin_is_not_negative(self, measured, target):
        # Signed zeros and subnormals included: the margin target - measured
        # rounds to a value of the right sign, or to an infinity of that sign.
        assert (status(measured, target) is Status.PASS) == (target - measured >= 0)

    @given(st.none() | st.floats(allow_nan=False, allow_infinity=False))
    def test_a_missing_side_is_never_judged(self, value):
        assert status(value, None) is Status.NOT_EVALUABLE
        assert status(None, value) is Status.NOT_EVALUABLE

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 100))
    def test_monotone_in_the_measurement(self, lower, upper, target):
        lower, upper = min(lower, upper), max(lower, upper)
        if status(upper, target) is Status.PASS:
            assert status(lower, target) is Status.PASS


def targets(**overrides) -> BiaTargets:
    base = dict(
        agent="Avamar",
        backup_frequency_days=1,
        backup_retention_days=14,
        recovery_points_scheme="7+7+60",
        cloud_tiering_threshold_days=14,
        rpo_target_days=7,
        rto_target_h=5,
    )
    base.update(overrides)
    return BiaTargets(**base)


class TestTargets:
    @pytest.mark.parametrize(
        "name, default, bad, words, good",
        [
            ("backup_frequency_days", 1.0, 0, "must be > 0, got 0.0", 1e-9),
            ("backup_retention_days", 14, 0, "must be > 0, got 0", 1),
            ("cloud_tiering_threshold_days", None, 0, "must be >= 1, got 0", 1),
            ("rpo_target_days", None, 0, "must be > 0, got 0.0", 1e-9),
            ("rto_target_h", None, 0, "must be > 0, got 0.0", 1e-9),
            ("rto_target_h", None, -5, "must be > 0, got -5.0", 1e-9),
            ("max_data_loss_mb", None, 0, "must be > 0, got 0.0", 1e-9),
            ("wrt_h", None, -1, "must be >= 0, got -1.0", 0),
        ],
    )
    def test_validation(self, name, default, bad, words, good):
        # The documented default, and each bound from both sides.
        assert getattr(BiaTargets("a"), name) == default
        with pytest.raises(DomainError) as excinfo:
            targets(**{name: bad})
        assert str(excinfo.value) == f"{name} {words}"
        assert getattr(targets(**{name: good}), name) == good

    def test_tiering_threshold_is_at_least_one_day(self):
        assert targets(cloud_tiering_threshold_days=1).cloud_tiering_threshold_days == 1
        for threshold, wanted in ((0, "must be >= 1, got 0"), (0.5, "must be an integer, got 0.5")):
            with pytest.raises(DomainError) as excinfo:
                BiaTargets("a", cloud_tiering_threshold_days=threshold)
            assert str(excinfo.value) == f"cloud_tiering_threshold_days {wanted}"

    def test_backup_window_must_be_finite_in_hours(self):
        assert targets(backup_frequency_days=7.4e306).backup_frequency_days == 7.4e306
        with pytest.raises(DomainError, match="backup_frequency_days gives a backup window"):
            targets(backup_frequency_days=7.5e306)

    def test_optional_fields_may_be_absent(self):
        spare = BiaTargets(agent="MARS", backup_retention_days=7)
        assert spare.rto_target_h is None
        assert spare.max_data_loss_mb is None


def projection(backup_h=None, restore_h=None) -> Projection:
    """A projection holding the given times in hours; its volume and basis play no part."""

    def seconds(hours):
        return {label: h * SECONDS_PER_HOUR for label, h in (hours or {}).items()}

    times = {RateRole.BACKUP: seconds(backup_h), RateRole.RESTORE: seconds(restore_h)}
    return Projection(1.0, times, ())


class TestEvaluate:
    def measured(self):
        return projection({"Backup": 2.72034}, {"Local": 3.09239, "Archive": 38.016})

    def by_metric(self, report):
        return {v.metric: v for v in report.verdicts}

    def test_reference_verdicts(self):
        report = evaluate(self.measured(), targets())
        verdicts = self.by_metric(report)
        assert verdicts["restore time (Local)"].status is Status.PASS
        assert verdicts["restore time (Archive)"].status is Status.FAIL
        assert verdicts["backup time (Backup)"].status is Status.PASS
        assert verdicts["achieved RPO"].status is Status.PASS
        assert not report.compliant
        assert len(report.failures) == 1

    def test_empty_measurements_yield_not_evaluable_only(self):
        report = evaluate(projection(), targets())
        assert report.verdicts
        assert {v.status for v in report.verdicts} == {Status.NOT_EVALUABLE}
        assert report.mtd_hours is None
        assert report.compliant  # nothing failed, nothing passed

    def test_data_loss_checked_only_when_target_present(self):
        report = evaluate(self.measured(), targets())
        assert "data loss" not in self.by_metric(report)
        report = evaluate(
            projection(restore_h={"Local": 1.0}), targets(max_data_loss_mb=50.0), 100.0
        )
        assert self.by_metric(report)["data loss"].status is Status.FAIL

    def test_missing_data_loss_measurement_is_not_evaluable(self):
        report = evaluate(self.measured(), targets(max_data_loss_mb=50.0))
        assert self.by_metric(report)["data loss"].status is Status.NOT_EVALUABLE

    def test_mtd_uses_the_fastest_restore_path(self):
        report = evaluate(self.measured(), targets(wrt_h=1.90761))
        assert report.mtd_hours == pytest.approx(5.0)

    def test_mtd_absent_without_wrt_or_restores(self):
        assert evaluate(self.measured(), targets()).mtd_hours is None
        no_restores = projection({"Backup": 1.0})
        assert evaluate(no_restores, targets(wrt_h=1.0)).mtd_hours is None

    def test_achieved_rpo_defaults_to_backup_frequency(self):
        report = evaluate(projection({"Backup": 1.0}), targets())
        verdict = self.by_metric(report)["achieved RPO"]
        assert (verdict.measured, verdict.unit) == (1.0, "days")
        assert verdict.status is Status.PASS

    @pytest.mark.parametrize(
        "backup_h, frequency_days, rpo_days",
        [({"Backup": 48.0}, 1, 2.0), ({"Backup": 24.0}, 1, 1.0), ({"Backup": 12.0}, 1, 1.0),
         ({"Fast": 1.0, "Slow": 80.0, "Mid": 30.0}, 2, 80.0 / 24), ({"Backup": 48.0}, 3, 3.0)],
    )
    def test_achieved_rpo_is_the_slower_of_the_frequency_and_the_slowest_backup(
        self, backup_h, frequency_days, rpo_days
    ):
        # copies do not overlap: a backup longer than its period spaces the copies out
        def verdict(rpo_target_days):
            chosen = targets(backup_frequency_days=frequency_days, rpo_target_days=rpo_target_days)
            return self.by_metric(evaluate(projection(backup_h), chosen))["achieved RPO"]

        assert (verdict(rpo_days).measured, verdict(rpo_days).unit) == (rpo_days, "days")
        assert verdict(rpo_days).status is Status.PASS
        assert verdict(rpo_days * 0.99).status is Status.FAIL

    def test_verdict_count_is_deterministic(self):
        count = len(evaluate(self.measured(), targets()).verdicts)
        assert count == len(evaluate(self.measured(), targets()).verdicts) == 4
        with_loss = evaluate(self.measured(), targets(max_data_loss_mb=1.0))
        assert len(with_loss.verdicts) == 5

    def test_backup_window_is_the_backup_frequency(self):
        slow = projection({"Backup": 25.0})
        report = evaluate(slow, targets())
        assert self.by_metric(report)["backup time (Backup)"].status is Status.FAIL
        report = evaluate(slow, targets(backup_frequency_days=2))
        assert self.by_metric(report)["backup time (Backup)"].status is Status.PASS
