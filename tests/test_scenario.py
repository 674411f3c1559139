from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from drperf.costs import ObjectStoreRates, VaultRates
from drperf.engine import run
from drperf.errors import ConfigError, DomainError, ParseError
from drperf.models import DEFAULT_FRONTEND_GB, SYSTEMS
from drperf.scenario import (
    Evaluation,
    Scenario,
    SystemKind,
    TransactionCounts,
    parse_scenario,
    render_scenario,
)


class TestBundledScenarios:
    def test_hybrid_fields(self, hybrid_scenario):
        assert hybrid_scenario.system is SystemKind.HYBRID
        assert isinstance(hybrid_scenario.pricing, ObjectStoreRates)
        assert hybrid_scenario.tiering_threshold_days == 14
        assert hybrid_scenario.test_data_mb == 531012
        assert hybrid_scenario.bia.agent == "Avamar"
        assert hybrid_scenario.reliability.mission_h == 372.0

    def test_cloud_fields(self, cloud_scenario):
        assert cloud_scenario.system is SystemKind.CLOUD_VAULT
        assert isinstance(cloud_scenario.pricing, VaultRates)
        assert cloud_scenario.frontend_gb == 50.0
        assert cloud_scenario.supplied_averages == {
            "AvgJob1Throughput": 2.57731,
            "AvgJob2Throughput": 1.83045,
            "RecoveryThroughput": 5.57246,
        }
        assert cloud_scenario.bia.backup_retention_days == 7

    def test_round_trip(self, hybrid_scenario, cloud_scenario):
        for scenario in (hybrid_scenario, cloud_scenario):
            text = render_scenario(scenario)
            again = parse_scenario(text, base_dir=scenario.base_dir)
            assert again == scenario

    def test_build_both_models(self, hybrid_scenario, cloud_scenario):
        assert Evaluation(hybrid_scenario).basic_model.horizon == 15
        assert Evaluation(cloud_scenario).basic_model.horizon == 8

    def test_simulate_is_deterministic(self, hybrid_scenario):
        first = run(Evaluation(hybrid_scenario).basic_model)
        second = run(Evaluation(hybrid_scenario).basic_model)
        assert first.trajectories == second.trajectories
        assert first.digest == second.digest


# Each field that only one system reads: a value other than its default, and the default.
ONE_SYSTEM_FIELDS = {
    "transactions": (TransactionCounts(ingress_egress_ops=1, listing_ops=2), TransactionCounts()),
    "bia.cloud_tiering_threshold_days": (3, None),
    "frontend_gb": (123.0, DEFAULT_FRONTEND_GB),
}


def _replaced(record, dotted: str, value):
    """``record`` with the field at the dotted path set to ``value``."""
    head, _, rest = dotted.partition(".")
    if rest:
        value = _replaced(getattr(record, head), rest, value)
    return dataclasses.replace(record, **{head: value})


@pytest.mark.parametrize("system", list(SystemKind), ids=lambda system: system.value)
def test_render_drops_every_field_of_the_other_system(system, hybrid_scenario, cloud_scenario):
    # A dotted field (bia.cloud_tiering_threshold_days) must go as well as a
    # top-level one, or parse_scenario rejects the rendered text.
    scenario = hybrid_scenario if system is SystemKind.HYBRID else cloud_scenario
    other_fields = [
        dotted for other, spec in SYSTEMS.items() if other is not system for dotted in spec.fields
    ]
    assert set(other_fields) <= ONE_SYSTEM_FIELDS.keys()
    cluttered = expected = scenario
    for dotted in other_fields:
        value, default = ONE_SYSTEM_FIELDS[dotted]
        cluttered = _replaced(cluttered, dotted, value)
        expected = _replaced(expected, dotted, default)
    assert cluttered != expected
    again = parse_scenario(render_scenario(cluttered), base_dir=scenario.base_dir)
    assert again == expected


MINIMAL_HYBRID = """\
name: tiny
system: hybrid
job_logs:
  backup: hybrid_backup.csv
restore_samples: hybrid_restore.csv
bia:
  agent: Avamar
"""


class TestParseScenario:
    def base_dir(self, hybrid_scenario):
        return hybrid_scenario.base_dir

    def test_minimal_document(self, hybrid_scenario):
        scenario = parse_scenario(MINIMAL_HYBRID, base_dir=self.base_dir(hybrid_scenario))
        assert scenario.test_data_mb is None
        assert scenario.pricing == ObjectStoreRates()
        assert scenario.reliability.mission_h == 372.0
        assert scenario.transactions.ingress_egress_ops == 10000

    def test_unknown_top_level_key(self, hybrid_scenario):
        text = MINIMAL_HYBRID + "surprise: 1\n"
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    def test_unknown_nested_key(self, hybrid_scenario):
        text = MINIMAL_HYBRID + "pricing:\n  per_tb_month: 1\n"
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    def test_vault_pricing_under_hybrid_rejected(self, hybrid_scenario):
        text = MINIMAL_HYBRID + "pricing:\n  block_fee: 10\n"
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    def test_unknown_system(self, hybrid_scenario):
        text = MINIMAL_HYBRID.replace("system: hybrid", "system: tape")
        with pytest.raises(ConfigError, match="unknown system"):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    def test_frontend_on_hybrid_rejected(self, hybrid_scenario):
        text = MINIMAL_HYBRID + "frontend_gb: 10\n"
        with pytest.raises(ConfigError, match="cloud-vault"):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    def test_transactions_on_cloud_rejected(self, cloud_scenario):
        text = render_scenario(cloud_scenario) + "transactions:\n  listing_ops: 1\n"
        with pytest.raises(ConfigError, match="hybrid"):
            parse_scenario(text, base_dir=cloud_scenario.base_dir)

    def test_tiering_threshold_on_cloud_rejected(self, cloud_scenario):
        doc = yaml.safe_load(render_scenario(cloud_scenario))
        doc["bia"]["cloud_tiering_threshold_days"] = 14
        with pytest.raises(ConfigError, match="hybrid"):
            parse_scenario(yaml.safe_dump(doc), base_dir=cloud_scenario.base_dir)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_scenario(MINIMAL_HYBRID, base_dir=tmp_path)

    def test_wrong_log_keys_rejected(self, hybrid_scenario):
        text = MINIMAL_HYBRID.replace("backup:", "job1:")
        with pytest.raises(ConfigError):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    def test_mapping_key_that_is_not_printable_is_quoted_in_the_error(self, hybrid_scenario):
        # Found by the contract fuzz: the raw key put a carriage return in the error line.
        text = MINIMAL_HYBRID.replace("backup: hybrid_backup.csv", '"\\r": "\\x1F"')
        with pytest.raises(ConfigError) as caught:
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))
        assert str(caught.value) == (
            "job_logs['\\r'] must be one line of printable text, got '\\x1f'"
        )

    def test_invalid_yaml_reports_line(self, hybrid_scenario):
        with pytest.raises(ParseError):
            parse_scenario("name: [\n", base_dir=self.base_dir(hybrid_scenario))

    def test_unknown_supplied_average_rejected(self, hybrid_scenario):
        text = MINIMAL_HYBRID + "supplied_averages:\n  AvgJob1Throughput: 2.0\n"
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    @pytest.mark.parametrize(
        "supplied, message",
        [
            ({"NoSuchAverage": 1.0},
             "supplied_averages: unknown keys ['NoSuchAverage']; a hybrid model has"
             " ['MeanDailyThroughput', 'RestoreTimePerMbLocal', 'RestoreTimePerMbArchive']"),
            ({"MeanDailyThroughput": 0.0},
             "supplied_averages.MeanDailyThroughput must be > 0, got 0.0"),
            ({"RestoreTimePerMbLocal": -1.0},
             "supplied_averages.RestoreTimePerMbLocal must be > 0, got -1.0"),
            # parsing rejects these first; a scenario built in Python meets only this check
            ({"MeanDailyThroughput": math.inf},
             "supplied_averages.MeanDailyThroughput must be finite, got inf"),
            ({"MeanDailyThroughput": -math.inf},
             "supplied_averages.MeanDailyThroughput must be finite, got -inf"),
            ({"RestoreTimePerMbArchive": math.nan},
             "supplied_averages.RestoreTimePerMbArchive must be finite, got nan"),
        ],
        ids=["unknown", "zero", "negative", "inf", "-inf", "nan"],
    )
    def test_bad_supplied_averages_rejected_on_construction(
        self, hybrid_scenario, supplied, message
    ):
        # Checked once, as any scenario is built: in Python as when parsed.
        with pytest.raises(ConfigError) as built:
            Scenario(
                name="tiny",
                system=SystemKind.HYBRID,
                job_logs={"backup": "hybrid_backup.csv"},
                restore_samples="hybrid_restore.csv",
                pricing=ObjectStoreRates(),
                bia=hybrid_scenario.bia,
                supplied_averages=supplied,
            )
        text = MINIMAL_HYBRID + yaml.safe_dump({"supplied_averages": supplied})
        with pytest.raises(ConfigError) as parsed:
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))
        assert str(built.value) == str(parsed.value) == message

    def test_a_bad_pricing_block_is_reported_before_a_bad_supplied_average(
        self, hybrid_scenario
    ):
        text = MINIMAL_HYBRID + "pricing:\n  per_gb_month: -1\nsupplied_averages:\n  Nope: 1\n"
        with pytest.raises(DomainError, match="^pricing.per_gb_month "):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    @pytest.mark.parametrize(
        "extra, error, message",
        [
            ("transactions:\n  listing_ops: -1\n", ConfigError,
             "transactions: transaction counts must be >= 0"),
            ("reliability:\n  components: []\n", DomainError,
             "reliability: a series system needs at least one component"),
            ("reliability:\n  components:\n    - name: Disk\n      mtbf_h: -2\n", DomainError,
             "reliability.components[0]: component 'Disk': mtbf_h must be > 0, got -2.0"),
        ],
        ids=["transactions", "no-components", "component"],
    )
    def test_record_bound_error_names_the_record_path(
        self, hybrid_scenario, extra, error, message
    ):
        # a message that does not start with a field name gets the path and a colon
        with pytest.raises(error) as excinfo:
            parse_scenario(MINIMAL_HYBRID + extra, base_dir=self.base_dir(hybrid_scenario))
        assert str(excinfo.value) == message


class TestEvaluationHelpers:
    """The fields of ``Evaluation``, each derived once from the scenario."""

    def test_projection_requires_a_volume(self, hybrid_scenario):
        bare = dataclasses.replace(hybrid_scenario, test_data_mb=None)
        with pytest.raises(ConfigError, match="test_data_mb"):
            Evaluation(bare).projection
        projection = Evaluation(bare, 1000.0).projection
        assert projection.test_data_mb == 1000.0

    def test_volume_is_held_as_a_float(self, hybrid_scenario):
        evaluation = Evaluation(dataclasses.replace(hybrid_scenario, test_data_mb=531012))
        assert type(evaluation.test_data_mb) is float
        assert type(Evaluation(hybrid_scenario, 1000).projection.test_data_mb) is float
        for scenario, volume in (
            (hybrid_scenario, 10**400),
            (dataclasses.replace(hybrid_scenario, test_data_mb=10**400), None),
        ):
            with pytest.raises(ConfigError) as excinfo:
                Evaluation(scenario, volume)
            assert str(excinfo.value) == f"test_data_mb is out of range, got {10**400}"

    def test_extended_model_requires_a_volume(self, hybrid_scenario):
        bare = dataclasses.replace(hybrid_scenario, test_data_mb=None)
        with pytest.raises(ConfigError, match="test_data_mb"):
            Evaluation(bare).extended_model

    def test_cost_without_volume_prices_the_measured_state(
        self, hybrid_scenario, cloud_scenario
    ):
        hybrid = dataclasses.replace(hybrid_scenario, test_data_mb=None)
        assert Evaluation(hybrid).cost.total == pytest.approx(1.57912)
        cloud = dataclasses.replace(cloud_scenario, test_data_mb=None)
        assert Evaluation(cloud).cost.total == pytest.approx(7.8270144)

    def test_cost_with_volume(self, hybrid_scenario, cloud_scenario):
        assert Evaluation(hybrid_scenario).cost.total == pytest.approx(11.66024)
        assert Evaluation(cloud_scenario).cost.total == pytest.approx(43.7893376)

    def test_compliance_uses_projected_times(self, hybrid_scenario):
        report = Evaluation(hybrid_scenario).compliance
        by_metric = {v.metric: v.status.value for v in report.verdicts}
        assert by_metric["restore time (Local)"] == "PASS"
        assert by_metric["restore time (Archive)"] == "FAIL"

    def test_data_loss_measured_when_target_present(self, hybrid_scenario):
        limited = dataclasses.replace(
            hybrid_scenario,
            bia=dataclasses.replace(hybrid_scenario.bia, max_data_loss_mb=30000.0),
        )
        report = Evaluation(limited).compliance
        verdict = {v.metric: v for v in report.verdicts}["data loss"]
        # worst single day of measured ingest is day 9
        assert verdict.measured == 27342.0
        assert verdict.status.value == "PASS"

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_data_loss_is_the_largest_day_the_ingest_flow_carries(
        self, hybrid_scenario, cloud_scenario, data
    ):
        scenario = data.draw(st.sampled_from([hybrid_scenario, cloud_scenario]))
        spec = SYSTEMS[scenario.system]
        day_mb = st.lists(st.floats(0.001, 5000.0), min_size=spec.days, max_size=spec.days)
        with tempfile.TemporaryDirectory() as tmp:
            for label in scenario.job_logs:
                rows = "".join(f"{day},{mb!r},1\n" for day, mb in enumerate(data.draw(day_mb), 1))
                (Path(tmp) / f"{label}.csv").write_text("day,data_mb,duration_s\n" + rows)
            limited = dataclasses.replace(
                scenario,
                base_dir=Path(tmp),
                job_logs={label: f"{label}.csv" for label in scenario.job_logs},
                restore_samples=str(scenario.resolve(scenario.restore_samples)),
                bia=dataclasses.replace(scenario.bia, max_data_loss_mb=1000.0),
            )
            evaluation = Evaluation(limited)
            verdict = {v.metric: v for v in evaluation.compliance.verdicts}["data loss"]
            ingest = run(evaluation.basic_model).values(spec.ingest)
        assert float.hex(verdict.measured) == float.hex(max(ingest))

    def test_extended_converters_hold_the_projection_and_cost(
        self, hybrid_scenario, cloud_scenario
    ):
        converters = {
            "hybrid-reference": {
                "BackupTimeTestData": ("backup", "Backup"),
                "RestoreTimeLocalTestData": ("restore", "Local"),
                "RestoreTimeArchiveTestData": ("restore", "Archive"),
            },
            "cloud-reference": {
                "BackupTimeJob1TestData": ("backup", "Job1"),
                "BackupTimeJob2TestData": ("backup", "Job2"),
                "RecoveryTimeTestData": ("restore", "Vault"),
            },
        }
        for scenario in (hybrid_scenario, cloud_scenario):
            evaluation = Evaluation(scenario)
            projection = evaluation.projection
            result = run(evaluation.extended_model)
            times = {"backup": projection.backup_times_s, "restore": projection.restore_times_s}
            for name, (role, label) in converters[scenario.name].items():
                assert result.values(name)[-1] == times[role][label]
            assert result.values("TotalServiceCostTestData")[-1] == evaluation.cost.total
            assert result.values("TestData")[-1] == evaluation.test_data_mb

    def test_basic_model_storage_trajectories(self, hybrid_scenario):
        result = run(Evaluation(hybrid_scenario).basic_model)
        assert result.values("LocalStorage")[13:] == (352407.0, 325451.0)
        assert result.values("CloudTier")[13:] == (0.0, 26956.0)
