from __future__ import annotations

import builtins
import dataclasses
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from drperf.bia import BiaTargets
from drperf.engine import Kind, Model, ModelComponent, run
from drperf.errors import ConfigError, DomainError
from drperf.metrics import (
    JobSample,
    RateKind,
    RateRole,
    RestoreSample,
    Tier,
    project,
)
from drperf.models import SYSTEMS, SystemKind, build_basic, daily_ingest
from drperf.scenario import Evaluation, Scenario

from .oracles import compensated_sum, retention_tiering_oracle

HYBRID_DAILY_MB = (
    26956, 25712, 27194, 26710, 25147, 24520, 26529,
    19711, 27342, 19574, 27024, 25262, 24644, 26082,
)


def paper_scenario(system: SystemKind, threshold: int = 14) -> Scenario:
    """A ``system`` scenario at the paper's settings, which are the defaults: its prices,
    monthly operation counts, 14-day tiering threshold and 50 GB vault frontend.  The
    files it names are never read: the tests pass the logs to the builder."""
    spec = SYSTEMS[system]
    return Scenario(
        name=spec.model,
        system=system,
        job_logs={agent.log: f"{agent.log}.csv" for agent in spec.agents},
        restore_samples="restore.csv",
        pricing=spec.pricing(),
        bia=BiaTargets("agent", cloud_tiering_threshold_days=threshold if spec.tiering else None),
    )


def build_hybrid(log, restores, threshold=14):
    return build_basic(paper_scenario(SystemKind.HYBRID, threshold), {"backup": log}, restores)


def build_cloud(job1, job2, restore):
    scenario = paper_scenario(SystemKind.CLOUD_VAULT)
    return build_basic(scenario, {"job1": job1, "job2": job2}, (restore,))


def int_job_logs(days: int):
    pairs = st.tuples(st.integers(0, 50_000), st.integers(1, 10_000))
    return st.lists(pairs, min_size=days, max_size=days).map(
        lambda rows: tuple(
            JobSample(day=i + 1, data_mb=float(mb), duration_s=float(sec))
            for i, (mb, sec) in enumerate(rows)
        )
    )


def float_job_logs(days: int):
    """Logs whose data are any floats in range, so sums in different orders can differ."""
    pairs = st.tuples(st.floats(0.0, 5000.0), st.floats(1.0, 10_000.0))
    return st.lists(pairs, min_size=days, max_size=days).map(
        lambda rows: tuple(
            JobSample(day=i + 1, data_mb=mb, duration_s=sec) for i, (mb, sec) in enumerate(rows)
        )
    )


def _bits(values) -> list[str]:
    """Each value as ``float.hex``, so equal means equal to the last bit."""
    return [float.hex(value) for value in values]


class TestHybridBuilder:
    def test_storage_trajectories(self, hybrid_log, hybrid_restores):
        result = run(build_hybrid(hybrid_log, hybrid_restores))
        assert result.values("LocalStorage")[13] == 352407.0
        assert result.values("LocalStorage")[14] == 325451.0
        assert result.values("CloudTier")[13] == 0.0
        assert result.values("CloudTier")[14] == 26956.0

    def test_conservation_on_the_reference_log(self, hybrid_log, hybrid_restores):
        result = run(build_hybrid(hybrid_log, hybrid_restores))
        running = 0.0
        stocks = zip(result.values("LocalStorage"), result.values("CloudTier"))
        for backup, (local, cloud) in zip(result.values("DailyBackup"), stocks, strict=True):
            running += backup
            assert local + cloud == running

    def test_daily_throughput_periods(self, hybrid_log, hybrid_restores):
        result = run(build_hybrid(hybrid_log, hybrid_restores))
        assert result.values("DailyThroughput")[0] == pytest.approx(26956 / 525.0)
        assert result.values("DailyThroughput")[14] == 0.0

    def test_a_backup_under_a_second_has_its_throughput(self, hybrid_log, hybrid_restores):
        day3 = hybrid_log[2]
        log = hybrid_log[:2] + (JobSample(3, day3.data_mb, 0.5),) + hybrid_log[3:]
        result = run(build_hybrid(log, hybrid_restores))
        assert result.values("DailyThroughput")[2] == day3.data_mb / 0.5

    def test_restore_events_sit_in_their_periods(self, hybrid_log, hybrid_restores):
        result = run(build_hybrid(hybrid_log, hybrid_restores))
        local = result.values("RestoreDataLocal")
        archive = result.values("RestoreDataArchive")
        assert local[13] == 1824.01 and sum(local) == 1824.01
        assert archive[14] == 1824.0 and sum(archive) == 1824.0

    def test_meta_matches_converters(self, hybrid_log, hybrid_restores):
        model = build_hybrid(hybrid_log, hybrid_restores)
        result = run(model)
        for name, value in model.meta["averages"].items():
            assert result.values(name)[-1] == value
        assert result.values("MonthlyServiceCost")[-1] == model.meta["monthly_cost"]
        assert model.meta["tiered_mb"] == 26956.0

    def test_rejects_wrong_day_coverage(self, hybrid_log, hybrid_restores):
        with pytest.raises(ConfigError):
            build_hybrid(hybrid_log[:13], hybrid_restores)
        shifted = tuple(
            JobSample(s.day + 1, s.data_mb, s.duration_s) for s in hybrid_log
        )
        with pytest.raises(ConfigError):
            build_hybrid(shifted, hybrid_restores)
        with pytest.raises(ConfigError):
            build_hybrid(tuple(reversed(hybrid_log)), hybrid_restores)

    def test_day_coverage_error_names_the_first_missing_day(self, hybrid_log, hybrid_restores):
        shifted = tuple(JobSample(s.day + 1, s.data_mb, s.duration_s) for s in hybrid_log)
        wanted = r"^job log 'backup' must cover days 1\.\.14 exactly; "
        with pytest.raises(ConfigError, match=wanted + "day 1 is missing$"):
            build_hybrid(shifted, hybrid_restores)
        with pytest.raises(ConfigError, match=wanted + "day 14 is missing$"):
            build_hybrid(hybrid_log[:13], hybrid_restores)
        # A log past the cycle names its first day beyond it, however long the log is;
        # a search for the missing day that ran one day further would name 15 as missing.
        for extra, first in (((15,), 15), ((16,), 16), (range(15, 13_012), 15)):
            log = hybrid_log + tuple(JobSample(day, 1.0, 1.0) for day in extra)
            with pytest.raises(ConfigError, match=wanted + f"day {first} is past the cycle$"):
                build_hybrid(log, hybrid_restores)
        # Only a log made in Python can hold every day out of order.
        with pytest.raises(ConfigError, match=wanted + "its days repeat or are out of order$"):
            build_hybrid(tuple(reversed(hybrid_log)), hybrid_restores)

    def test_rejects_bad_restore_samples(self, hybrid_log, hybrid_restores):
        with pytest.raises(ConfigError):
            build_hybrid(hybrid_log, hybrid_restores[:1])
        doubled = hybrid_restores + hybrid_restores[:1]
        with pytest.raises(ConfigError):
            build_hybrid(hybrid_log, doubled)
        vault = (RestoreSample(Tier.VAULT, 1.0, 1.0),) + hybrid_restores[1:]
        with pytest.raises(ConfigError):
            build_hybrid(hybrid_log, vault)

    def test_rejects_bad_threshold(self):
        # A threshold below 1 or not an int fails as the scenario's BiaTargets is made, so
        # the builder never sees one; any int from 1 up builds (test_oracle_equivalence).
        for threshold, wanted in ((0, ">= 1, got 0"), (0.5, "an integer, got 0.5")):
            with pytest.raises(DomainError) as excinfo:
                paper_scenario(SystemKind.HYBRID, threshold)
            assert str(excinfo.value) == f"cloud_tiering_threshold_days must be {wanted}"


def test_total_ingest_that_overflows_is_rejected(hybrid_restores, cloud_restore):
    # Each day's data and each rate are finite; the ingest stock's running sum is not.
    def log(days):
        return tuple(JobSample(day, 1e308, 1e8) for day in range(1, days + 1))

    with pytest.raises(DomainError, match=r"^job logs \['backup'\]: their total data overflows"):
        build_hybrid(log(14), hybrid_restores)
    with pytest.raises(DomainError, match=r"^job logs \['job1', 'job2'\]: their total data"):
        build_cloud(log(7), log(7), cloud_restore)
    empty = tuple(JobSample(day, 0.0, 1.0) for day in range(1, 8))
    model = build_cloud(log(1) + empty[1:], empty, cloud_restore)  # one such day is finite
    assert run(model).values("RecoveryVault")[7] == 1e308


def test_no_result_depends_on_the_python_versions_sum(monkeypatch, cloud_restore):
    # From Python 3.12 ``sum`` compensates float rounding.  drperf adds left to right
    # instead, so 3.12's ``sum`` changes neither a stock's level nor a model's digest.
    flows = ("a", "b", "c")
    components = (*(ModelComponent(f, Kind.FLOW) for f in flows),
                  ModelComponent("S", Kind.STOCK, inflows=flows))
    stock = Model("three-inflows", components, 1, {"a": (1.0,), "b": (1e16,), "c": (-1e16,)})
    tenth = tuple(JobSample(day=day, data_mb=0.1, duration_s=1.0) for day in range(1, 8))
    empty = tuple(JobSample(day=day, data_mb=0.0, duration_s=1.0) for day in range(1, 8))

    def results() -> tuple[str, str, str]:
        vault = build_cloud(tenth, empty, cloud_restore)
        return run(stock).values("S")[0].hex(), vault.meta["stored_mb"].hex(), vault.digest()

    assert compensated_sum([1.0, 1e16, -1e16]) == 1.0
    assert compensated_sum([0.1] * 7) == 0.7000000000000001
    left_to_right = results()
    assert left_to_right[:2] == ((0.0).hex(), (0.7).hex())
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert results() == left_to_right


class TestCloudBuilder:
    def test_daily_transfer_is_the_job_sum(self, cloud_logs, cloud_restore):
        job1, job2 = cloud_logs
        result = run(build_cloud(job1, job2, cloud_restore))
        transfers = result.values("DailyTransfer")
        assert transfers == (8715.0, 8784.0, 8941.0, 9069.0, 9120.0, 9016.0, 9458.0, 0.0)

    def test_vault_accumulates(self, cloud_logs, cloud_restore):
        job1, job2 = cloud_logs
        result = run(build_cloud(job1, job2, cloud_restore))
        assert result.values("RecoveryVault")[6] == 63103.0
        assert result.values("RecoveryVault")[7] == 63103.0

    def test_computed_averages(self, cloud_logs, cloud_restore):
        job1, job2 = cloud_logs
        result = run(build_cloud(job1, job2, cloud_restore))
        assert result.values("AvgJob1Throughput")[-1] == pytest.approx(2.7404289, abs=1e-6)
        assert result.values("AvgJob2Throughput")[-1] == pytest.approx(1.3403195, abs=1e-6)
        assert result.values("RecoveryThroughput")[-1] == pytest.approx(7690 / 1380)

    def test_restore_event_in_trailing_period(self, cloud_logs, cloud_restore):
        job1, job2 = cloud_logs
        result = run(build_cloud(job1, job2, cloud_restore))
        data = result.values("RestoreData")
        assert data[7] == 7690.0 and sum(data) == 7690.0

    def test_rejects_wrong_tier_or_count(self, cloud_logs, cloud_restore):
        job1, job2 = cloud_logs
        local = RestoreSample(Tier.LOCAL, 7690, 1380)
        with pytest.raises(ConfigError):
            build_cloud(job1, job2, local)
        with pytest.raises(ConfigError):
            build_cloud(job1[:6], job2, cloud_restore)


def evaluate(scenario, test_data_mb=None, **changes) -> Evaluation:
    return Evaluation(dataclasses.replace(scenario, **changes), test_data_mb)


class TestExtension:
    def test_basic_series_are_untouched(self, hybrid_scenario):
        evaluation = Evaluation(hybrid_scenario, 531012)
        before, after = run(evaluation.basic_model), run(evaluation.extended_model)
        for component in evaluation.basic_model.components:
            assert after.trajectories[component.name] == before.trajectories[component.name]

    def test_cloud_supplied_averages_touch_only_the_extension(self, cloud_scenario):
        supplied = {"AvgJob1Throughput": 2.57731}
        evaluation = evaluate(cloud_scenario, 531012, supplied_averages=supplied)
        result = run(evaluation.extended_model)
        assert result.values("AvgJob1Throughput")[-1] == pytest.approx(2.7404289, abs=1e-6)
        assert result.values("BackupTimeJob1TestData")[-1] == pytest.approx(531012 / 2.57731)

    def test_matches_direct_projection(self, hybrid_scenario):
        evaluation = Evaluation(hybrid_scenario, 100_000)
        projection = project(100_000, evaluation.rates)
        extended = run(evaluation.extended_model)
        backup, restore = (projection.times_s[role] for role in RateRole)
        for name, value in (
            ("TestData", 100_000),
            ("BackupTimeTestData", backup["Backup"]),
            ("RestoreTimeLocalTestData", restore["Local"]),
            ("RestoreTimeArchiveTestData", restore["Archive"]),
            ("TotalServiceCostTestData", evaluation.cost.total),
        ):
            assert extended.values(name)[-1] == value, name

    def test_appends_to_the_basic_model(self, hybrid_scenario, cloud_scenario):
        for scenario in (hybrid_scenario, cloud_scenario):
            evaluation = Evaluation(scenario, 1000)
            basic, extended = evaluation.basic_model, evaluation.extended_model
            assert extended.name == f"{basic.name}-extended"
            assert extended.horizon == basic.horizon and extended.exogenous == basic.exogenous
            assert extended.components[: len(basic.components)] == basic.components
            assert [c.name for c in extended.components[len(basic.components):]] == [
                "TestData",
                *(row.what_if for row in SYSTEMS[scenario.system].rates),
                "TotalServiceCostTestData",
            ]
            meta = {**basic.meta, "extended": True, "test_data_mb": 1000}
            assert list(extended.meta.items()) == list(meta.items())


class TestProjectionRates:
    """``Evaluation.rates``, the rates a projection reads."""

    def test_hybrid_rates(self, hybrid_scenario):
        rates = Evaluation(hybrid_scenario).rates
        by_label = {r.label: r for r in rates}
        assert by_label["Backup"].kind is RateKind.THROUGHPUT
        assert by_label["Backup"].role is RateRole.BACKUP
        assert by_label["Local"].kind is RateKind.SECONDS_PER_MB
        assert not any(r.supplied for r in rates)

    def test_supplied_flag(self, cloud_scenario):
        rates = evaluate(cloud_scenario, supplied_averages={"RecoveryThroughput": 5.57246}).rates
        by_label = {r.label: r for r in rates}
        assert by_label["Vault"].supplied
        assert by_label["Vault"].value == 5.57246
        assert not by_label["Job1"].supplied

    def test_rate_table_names_model_components(self, hybrid_scenario, cloud_scenario):
        evaluations = {s.system: Evaluation(s, 1000) for s in (hybrid_scenario, cloud_scenario)}
        assert evaluations.keys() == SYSTEMS.keys()
        for system, evaluation in evaluations.items():
            basic = evaluation.basic_model
            assert basic.meta["system"] == system.value
            components = {c.name: c for c in basic.components}
            extended = {c.name for c in evaluation.extended_model.components}
            for row in SYSTEMS[system].rates:
                assert components[row.average].unit == row.kind.value
                assert row.average in basic.meta["averages"]
                assert row.what_if in extended and row.what_if not in components


class TestRandomLogProperties:
    @given(log=int_job_logs(14), threshold=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_oracle_equivalence(self, hybrid_restores, log, threshold):
        model = build_hybrid(log, hybrid_restores, threshold)
        result = run(model)
        local, cloud = retention_tiering_oracle(log, threshold, model.horizon)
        assert list(result.values("LocalStorage")) == local
        assert list(result.values("CloudTier")) == cloud

    @given(job1=int_job_logs(7), job2=int_job_logs(7))
    @settings(max_examples=100, deadline=None)
    def test_cloud_vault_equals_cumulative_transfers(self, cloud_restore, job1, job2):
        result = run(build_cloud(job1, job2, cloud_restore))
        running = 0.0
        for period in range(1, 9):
            running += result.values("DailyTransfer")[period - 1]
            assert result.values("RecoveryVault")[period - 1] == running


class TestDailyIngest:
    """Every ingest quantity outside the engine is ``daily_ingest``, bit for bit."""

    @given(job1=float_job_logs(7), job2=float_job_logs(7))
    @settings(max_examples=200, deadline=None)
    def test_vault_holds_the_running_sums_and_bills_the_final_one(
        self, cloud_restore, job1, job2
    ):
        model = build_cloud(job1, job2, cloud_restore)
        daily = daily_ingest(SystemKind.CLOUD_VAULT, {"job1": job1, "job2": job2})
        vault = run(model).values("RecoveryVault")
        # the trailing period ingests nothing
        assert _bits(vault) == _bits(accumulate(daily + (0.0,)))
        assert float.hex(model.meta["stored_mb"]) == float.hex(vault[-1])

    @given(log=float_job_logs(14), threshold=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_tiering_moves_are_the_daily_ingest_shifted_by_the_threshold(
        self, hybrid_restores, log, threshold
    ):
        model = build_hybrid(log, hybrid_restores, threshold)
        daily = daily_ingest(SystemKind.HYBRID, {"backup": log})
        result = run(model)
        shifted = [0.0] * threshold + list(daily)
        assert _bits(result.values("TieringMove")) == _bits(shifted[: model.horizon])
        assert float.hex(model.meta["tiered_mb"]) == float.hex(result.values("CloudTier")[-1])

    def test_a_threshold_past_any_horizon_moves_nothing(self, hybrid_log, hybrid_restores):
        model = build_hybrid(hybrid_log, hybrid_restores, 10**9)
        assert model.exogenous["TieringMove"] == (0.0,) * model.horizon
        assert model.meta["tiered_mb"] == 0.0
