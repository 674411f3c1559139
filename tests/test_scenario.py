from __future__ import annotations

import dataclasses
import math
import tempfile
import typing
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from drperf import scenario as scenario_module
from drperf.bia import BiaTargets
from drperf.costs import FeeTier, ObjectStoreRates, VaultRates
from drperf.engine import run
from drperf.errors import ConfigError, DomainError, ParseError
from drperf.fields import schema
from drperf.metrics import JobSample, Rate, RateKind, RateRole, RestoreSample, Tier
from drperf.models import SYSTEMS
from drperf.reliability import ReliabilityComponent, SeriesSystem, default_recovery_chain
from drperf.scenario import (
    Evaluation,
    Scenario,
    SystemKind,
    TransactionCounts,
    parse_scenario,
)

from .oracles import render_scenario


class TestBundledScenarios:
    def test_hybrid_fields(self, hybrid_scenario):
        assert hybrid_scenario.system is SystemKind.HYBRID
        assert isinstance(hybrid_scenario.pricing, ObjectStoreRates)
        assert hybrid_scenario.bia.cloud_tiering_threshold_days == 14
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


# Each field that only one system reads: that system, the value it holds when not
# given (the paper's settings, as README states them), and another value.
ONE_SYSTEM_FIELDS = [
    (SystemKind.HYBRID, "transactions",
     TransactionCounts(ingress_egress_ops=10_000, listing_ops=10_000), TransactionCounts(1, 2)),
    (SystemKind.HYBRID, "bia.cloud_tiering_threshold_days", 14, 3),
    (SystemKind.CLOUD_VAULT, "frontend_gb", 50.0, 123.0),
]


def test_every_field_of_one_system_has_a_row():
    rows = [(system, dotted, default) for system, dotted, default, _ in ONE_SYSTEM_FIELDS]
    held = [(system, dotted, default)
            for system, spec in SYSTEMS.items() for dotted, default in spec.defaults.items()]
    assert rows == held


def _replaced(record, dotted: str, value):
    """``record`` with the field at the dotted path set to ``value``."""
    head, _, rest = dotted.partition(".")
    if rest:
        value = _replaced(getattr(record, head), rest, value)
    return dataclasses.replace(record, **{head: value})


def _field(record, dotted: str):
    for name in dotted.split("."):
        record = getattr(record, name)
    return record


def _parent(doc: dict, dotted: str) -> tuple[dict, str]:
    """The mapping of ``doc`` that holds the dotted key, and its last part."""
    *heads, last = dotted.split(".")
    for head in heads:
        doc = doc[head]
    return doc, last


@pytest.mark.parametrize(
    "owner, dotted, default, value", ONE_SYSTEM_FIELDS, ids=[row[1] for row in ONE_SYSTEM_FIELDS]
)
def test_a_field_of_one_system_is_filled_on_it_and_rejected_on_the_other(
    owner, dotted, default, value, hybrid_scenario, cloud_scenario
):
    own, other = hybrid_scenario, cloud_scenario
    if owner is SystemKind.CLOUD_VAULT:
        own, other = other, own
    # Unset on its own system's scenario, read or made in Python, it holds the default.
    doc = yaml.safe_load(render_scenario(own))
    parent, last = _parent(doc, dotted)
    del parent[last]
    assert _field(parse_scenario(yaml.safe_dump(doc), base_dir=own.base_dir), dotted) == default
    assert _field(_replaced(own, dotted, None), dotted) == default
    # Set, it holds its value, and renders and reads back to itself.
    mine = _replaced(own, dotted, value)
    assert _field(mine, dotted) == value
    assert parse_scenario(render_scenario(mine), base_dir=own.base_dir) == mine
    # The other system's scenario holds None, renders without the key and reads back.
    assert _field(other, dotted) is None
    assert parse_scenario(render_scenario(other), base_dir=other.base_dir) == other
    # Set on the other system's scenario, one rule rejects it, made in Python or read.
    message = f"{dotted} applies only to {owner.value} scenarios"
    with pytest.raises(ConfigError) as excinfo:
        _replaced(other, dotted, value)
    assert str(excinfo.value) == message
    doc = yaml.safe_load(render_scenario(other))
    parent, last = _parent(doc, dotted)
    mine_parent, _ = _parent(yaml.safe_load(render_scenario(mine)), dotted)
    parent[last] = mine_parent[last]
    with pytest.raises(ConfigError) as excinfo:
        parse_scenario(yaml.safe_dump(doc), base_dir=other.base_dir)
    assert str(excinfo.value) == message


def test_a_malformed_value_of_the_other_system_reports_its_own_fault_first(cloud_scenario):
    # The record converts its fields before it applies the system rule.
    text = render_scenario(cloud_scenario) + "transactions:\n  listing_ops: -1\n"
    with pytest.raises(DomainError) as excinfo:
        parse_scenario(text, base_dir=cloud_scenario.base_dir)
    assert str(excinfo.value) == "transactions.listing_ops must be >= 0, got -1"


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
        with pytest.raises(DomainError) as caught:
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
        "supplied, error, message",
        [
            ({"NoSuchAverage": 1.0}, ConfigError,
             "supplied_averages: unknown keys ['NoSuchAverage']; a hybrid model has"
             " ['MeanDailyThroughput', 'RestoreTimePerMbLocal', 'RestoreTimePerMbArchive']"),
            # The float rule and the bound of the declared type, Positive, reject these
            # in the reader and in the scenario alike.
            ({"MeanDailyThroughput": 0.0}, DomainError,
             "supplied_averages.MeanDailyThroughput must be > 0, got 0.0"),
            ({"RestoreTimePerMbLocal": -1.0}, DomainError,
             "supplied_averages.RestoreTimePerMbLocal must be > 0, got -1.0"),
            ({"MeanDailyThroughput": math.inf}, DomainError,
             "supplied_averages.MeanDailyThroughput must be finite, got inf"),
            ({"MeanDailyThroughput": -math.inf}, DomainError,
             "supplied_averages.MeanDailyThroughput must be finite, got -inf"),
            ({"RestoreTimePerMbArchive": math.nan}, DomainError,
             "supplied_averages.RestoreTimePerMbArchive must be finite, got nan"),
        ],
        ids=["unknown", "zero", "negative", "inf", "-inf", "nan"],
    )
    def test_bad_supplied_averages_rejected_on_construction(
        self, hybrid_scenario, supplied, error, message
    ):
        # Checked once, as any scenario is built: in Python as when parsed.
        with pytest.raises(error) as built:
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
        with pytest.raises(error) as parsed:
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))
        assert str(built.value) == str(parsed.value) == message

    @pytest.mark.parametrize(
        "system, job_logs, message",
        [
            (SystemKind.HYBRID, {"backup": "hybrid_backup.csv", "job1": "cloud_job1.csv"},
             "job_logs: unknown keys ['job1']"),
            (SystemKind.CLOUD_VAULT, {"job1": "cloud_job1.csv"},
             "job_logs: missing keys ['job2']"),
        ],
        ids=["extra", "missing"],
    )
    def test_job_log_labels_checked_on_construction(
        self, hybrid_scenario, cloud_scenario, monkeypatch, system, job_logs, message
    ):
        # A scenario built in Python meets the parsed one's line, before any file is read.
        base = hybrid_scenario if system is SystemKind.HYBRID else cloud_scenario
        read, read_text = [], scenario_module._read_text

        def recording(path):
            read.append(path)
            return read_text(path)

        monkeypatch.setattr(scenario_module, "_read_text", recording)
        with pytest.raises(ConfigError) as built:
            Evaluation(dataclasses.replace(base, job_logs=job_logs)).compliance
        doc = yaml.safe_load(render_scenario(base))
        doc["job_logs"] = job_logs
        with pytest.raises(ConfigError) as parsed:
            parse_scenario(yaml.safe_dump(doc), base_dir=base.base_dir)
        assert str(built.value) == str(parsed.value) == message
        assert read == []

    def test_rejects_the_other_systems_pricing(self, hybrid_scenario, cloud_scenario):
        # Checked where a scenario is made, so no scheme prices the other system's record.
        wrong = [
            (hybrid_scenario, VaultRates(), "a hybrid model is priced by ObjectStoreRates"),
            (cloud_scenario, ObjectStoreRates(), "a cloud-vault model is priced by VaultRates"),
        ]
        for base, pricing, message in wrong:
            with pytest.raises(ConfigError) as excinfo:
                dataclasses.replace(base, pricing=pricing)
            assert str(excinfo.value) == message

    def test_a_bad_pricing_block_is_reported_before_a_bad_supplied_average(
        self, hybrid_scenario
    ):
        text = MINIMAL_HYBRID + "pricing:\n  per_gb_month: -1\nsupplied_averages:\n  Nope: 1\n"
        with pytest.raises(DomainError, match="^pricing.per_gb_month "):
            parse_scenario(text, base_dir=self.base_dir(hybrid_scenario))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("transactions:\n  listing_ops: -1\n",
             "transactions.listing_ops must be >= 0, got -1"),
            ("reliability:\n  components: []\n",
             "reliability: a series system needs at least one component"),
            ("reliability:\n  components:\n    - name: Disk\n      mtbf_h: -2\n",
             "reliability.components[0].mtbf_h must be > 0, got -2.0"),
        ],
        ids=["transactions", "no-components", "component"],
    )
    def test_record_bound_error_names_the_record_path(self, hybrid_scenario, extra, message):
        # a message that starts with one of the record's fields gets the path and a dot,
        # any other the path and a colon
        with pytest.raises(DomainError) as excinfo:
            parse_scenario(MINIMAL_HYBRID + extra, base_dir=self.base_dir(hybrid_scenario))
        assert str(excinfo.value) == message


# Arguments that make each record, with the field under test replaced.
_SCENARIO = {"name": "tiny", "system": SystemKind.HYBRID,
             "job_logs": {"backup": "hybrid_backup.csv"}, "restore_samples": "hybrid_restore.csv",
             "pricing": ObjectStoreRates(), "bia": BiaTargets("a")}
_RATE = {"label": "x", "value": 1.0, "kind": RateKind.THROUGHPUT, "role": RateRole.BACKUP}
_JOB = {"day": 1, "data_mb": 1.0, "duration_s": 1.0}
_RESTORE = {"source_tier": Tier.LOCAL, "data_mb": 1.0, "duration_s": 1.0}
# A record class, the arguments it is made with, and the field declared int.
_INT_FIELDS = [
    (BiaTargets, {"agent": "a"}, "backup_retention_days"),
    (BiaTargets, {"agent": "a"}, "cloud_tiering_threshold_days"),
    (TransactionCounts, {}, "ingress_egress_ops"),
    (TransactionCounts, {}, "listing_ops"),
    (JobSample, _JOB, "day"),
]
# A record class, the arguments it is made with, and a field declared float.
_FLOAT_FIELDS = [
    *((BiaTargets, {"agent": "a"}, name) for name in (
        "backup_frequency_days", "rpo_target_days", "rto_target_h", "wrt_h", "max_data_loss_mb"
    )),
    (ReliabilityComponent, {"name": "c"}, "mtbf_h"),
    (ReliabilityComponent, {"name": "c"}, "sla"),
    (ReliabilityComponent, {"name": "c", "mtbf_h": 100.0}, "sla_period_h"),
    (SeriesSystem, {"components": default_recovery_chain().components}, "mission_h"),
    *((ObjectStoreRates, {}, name)
      for name in ("per_gb_month", "per_10k_ingress_egress", "per_10k_listing")),
    *((VaultRates, {}, name) for name in ("per_gb_month", "block_gb", "block_fee")),
    (FeeTier, {"fee": 5.0}, "upper_gb"),
    (FeeTier, {"upper_gb": 50.0}, "fee"),
    (Scenario, _SCENARIO, "test_data_mb"),
    (Scenario, _SCENARIO, "frontend_gb"),
    (Rate, _RATE, "value"),
    *((JobSample, _JOB, name) for name in ("data_mb", "duration_s")),
    *((RestoreSample, _RESTORE, name) for name in ("data_mb", "duration_s")),
]
# The same for a field declared str.
_STR_FIELDS = [
    (BiaTargets, {}, "agent"),
    (BiaTargets, {"agent": "a"}, "recovery_points_scheme"),
    (ReliabilityComponent, {"mtbf_h": 100.0}, "name"),
    (Scenario, _SCENARIO, "name"),
    (Scenario, _SCENARIO, "restore_samples"),
    (Rate, _RATE, "label"),
]
# Each kind of field, its fields, and the bad values it rejects with their words.
_BAD_VALUES = [
    (_FLOAT_FIELDS, [
        (math.nan, "must be finite, got nan"), (math.inf, "must be finite, got inf"),
        (-math.inf, "must be finite, got -inf"), ("5", "must be a number, got '5'"),
        (True, "must be a number, got True"),
    ]),
    # A field declared int rejects a str and every float that is not whole.
    (_INT_FIELDS, [(value, f"must be an integer, got {value!r}")
                   for value in (math.nan, math.inf, -math.inf, "5")]),
    (_STR_FIELDS, [("a\nb", "must be one line of printable text, got 'a\\nb'"),
                   (5, "must be a string, got 5")]),
]
# Every other field: a record class, its arguments, the field, a bad value, and its error.
_OTHER_BAD_VALUES = [
    (Scenario, _SCENARIO, "system", "tape", ConfigError,
     "unknown system 'tape'; expected one of hybrid, cloud-vault"),
    (Scenario, _SCENARIO, "job_logs", {"backup": 5}, DomainError,
     "job_logs.backup must be a string, got 5"),
    (Scenario, _SCENARIO, "pricing", VaultRates(), ConfigError,
     "a hybrid model is priced by ObjectStoreRates"),
    (Scenario, _SCENARIO, "bia", 5, ConfigError, "bia must be a mapping, got int"),
    (Scenario, _SCENARIO, "reliability", None, ConfigError,
     "reliability must be a mapping, got NoneType"),
    (Scenario, _SCENARIO, "supplied_averages", {"MeanDailyThroughput": "5"}, DomainError,
     "supplied_averages.MeanDailyThroughput must be a number, got '5'"),
    (Scenario, _SCENARIO, "transactions", "many", ConfigError,
     "transactions must be a mapping, got str"),
    (SeriesSystem, {}, "components", 5, ConfigError, "components must be a list, got 5"),
    (VaultRates, {}, "instance_fee_tiers", [5], ConfigError,
     "instance_fee_tiers[0] must be a mapping, got int"),
    (Rate, _RATE, "kind", "MB/h", ConfigError, "unknown kind 'MB/h'; expected one of MB/s, s/MB"),
    (Rate, _RATE, "role", "copy", ConfigError,
     "unknown role 'copy'; expected one of backup, restore"),
    (Rate, _RATE, "supplied", "yes", DomainError, "supplied must be true or false, got 'yes'"),
    (RestoreSample, _RESTORE, "source_tier", "Tape", ConfigError,
     "unknown source_tier 'Tape'; expected one of Local, Archive, Vault"),
]
_BAD_VALUE_CASES = [
    *((record, arguments, name, value, DomainError, f"{name} {words}")
      for fields, values in _BAD_VALUES
      for record, arguments, name in fields
      for value, words in values),
    *_OTHER_BAD_VALUES,
]


@pytest.mark.parametrize(
    "record, arguments, name, value, error, message",
    [
        pytest.param(
            record, arguments, name, value, error, message,
            id=f"{record.__name__}.{name}-{value if isinstance(value, float) else repr(value)}",
        )
        for record, arguments, name, value, error, message in _BAD_VALUE_CASES
    ],
)
def test_a_record_made_in_python_rejects_a_non_finite_value(
    record, arguments, name, value, error, message
):
    # The reader rejects these values with the same words after the field's path.
    with pytest.raises(error) as excinfo:
        record(**{**arguments, name: value})
    assert str(excinfo.value) == message


def _records_under(cls) -> set:
    """``cls`` and every record class that its fields' declared types name."""
    found = {cls}
    for declared in typing.get_type_hints(cls).values():
        for tp in (declared, *typing.get_args(declared)):
            if dataclasses.is_dataclass(tp) and tp not in found:
                found |= _records_under(tp)
    return found


def test_every_field_of_an_input_record_has_a_bad_value_case():
    records = _records_under(Scenario) | {Rate, JobSample, RestoreSample}
    fields = {f"{cls.__name__}.{name}" for cls in records for name in schema(cls)[0]}
    covered = {f"{record.__name__}.{name}" for record, _, name, *_ in _BAD_VALUE_CASES}
    assert sorted(fields - covered) == []


def test_a_record_field_reads_a_document_value_as_the_reader_does(hybrid_scenario):
    hybrid = dataclasses.replace(hybrid_scenario, system="hybrid")
    assert hybrid.system is SystemKind.HYBRID
    assert Evaluation(hybrid).basic_model.digest()[:12] == "3c732069323e"
    held = dataclasses.replace(hybrid_scenario, bia={"agent": "a"}).bia
    assert held == BiaTargets("a", cloud_tiering_threshold_days=14)


@pytest.mark.parametrize("value", [2.5, 14.0, True], ids=str)
@pytest.mark.parametrize(
    "record, arguments, name",
    _INT_FIELDS,
    ids=[f"{record.__name__}.{name}" for record, _, name in _INT_FIELDS],
)
def test_a_record_made_in_python_rejects_a_count_that_is_not_an_int(
    record, arguments, name, value
):
    # One int rule for a record made in Python and for the reader: 14.0 reads as 14,
    # as a float field holds 5 as 5.0, and the others are rejected with the same words.
    made = {**arguments, name: value}
    if value == 14.0:
        held = getattr(record(**made), name)
        assert (type(held), held) == (int, 14)
        return
    with pytest.raises(DomainError) as excinfo:
        record(**made)
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "frontend_gb, message",
    [
        (math.inf, "must be finite, got inf"),
        (math.nan, "must be finite, got nan"),
        (-1.0, "must be >= 0, got -1.0"),
        ("5", "must be a number, got '5'"),
    ],
    ids=["inf", "nan", "negative", "str"],
)
def test_a_scenario_made_in_python_rejects_a_bad_frontend_size(
    cloud_scenario, frontend_gb, message
):
    # Rejected as the scenario is made, with the reader's words.
    with pytest.raises(DomainError) as excinfo:
        dataclasses.replace(cloud_scenario, frontend_gb=frontend_gb)
    assert str(excinfo.value) == f"frontend_gb {message}"


def test_a_file_at_the_input_cap_is_read_and_one_byte_more_is_not(
    hybrid_scenario, tmp_path, monkeypatch
):
    text = render_scenario(hybrid_scenario).encode()
    path = tmp_path / "scenario.yaml"
    path.write_bytes(text)
    monkeypatch.setattr(scenario_module, "MAX_INPUT_BYTES", len(text))
    assert scenario_module._read_text(path) == text.decode()
    monkeypatch.setattr(scenario_module, "MAX_INPUT_BYTES", len(text) - 1)
    with pytest.raises(ConfigError) as excinfo:
        scenario_module._read_text(path)
    assert str(excinfo.value) == (
        f"{str(path)!r} holds {len(text)} bytes, over the cap of {len(text) - 1}"
    )


class TestEvaluationHelpers:
    """The fields of ``Evaluation``, each derived once from the scenario."""

    def test_projection_requires_a_volume(self, hybrid_scenario):
        bare = dataclasses.replace(hybrid_scenario, test_data_mb=None)
        with pytest.raises(ConfigError, match="test_data_mb"):
            Evaluation(bare).projection
        projection = Evaluation(bare, 1000.0).projection
        assert projection.test_data_mb == 1000.0

    def test_volume_is_held_as_a_float(self, hybrid_scenario):
        # The scenario converts its volume, so an int one digests as the equal float
        # does; a volume with no float, 10**400, is one of the BAD_VOLUMES.
        as_int = dataclasses.replace(hybrid_scenario, test_data_mb=531012)
        assert type(as_int.test_data_mb) is float
        assert type(Evaluation(as_int).test_data_mb) is float
        assert type(Evaluation(hybrid_scenario, 1000).projection.test_data_mb) is float
        as_float = dataclasses.replace(hybrid_scenario, test_data_mb=531012.0)
        digests = {Evaluation(s).extended_model.digest() for s in (as_int, as_float)}
        assert len(digests) == 1

    def test_an_int_price_digests_as_the_equal_float(self, hybrid_scenario):
        # A record holds each float field's int as the equal float, as the reader does.
        digests = {
            Evaluation(dataclasses.replace(
                hybrid_scenario, pricing=ObjectStoreRates(per_gb_month=price)
            )).basic_model.digest()
            for price in (1, 1.0)
        }
        assert len(digests) == 1

    @pytest.mark.parametrize(
        "volume, message",
        [
            (0, "must be > 0, got 0.0"),
            (-1.0, "must be > 0, got -1.0"),
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            (10**400, f"is out of range, got {10**400}"),
            ("5", "must be a number, got '5'"),
            (True, "must be a number, got True"),
        ],
        ids=["zero", "negative", "nan", "inf", "10**400", "str", "bool"],
    )
    def test_bad_volume_fails_alike_in_the_scenario_and_as_an_override(
        self, hybrid_scenario, volume, message
    ):
        # The override goes through dataclasses.replace, so one rule checks both.
        for make in (
            lambda: dataclasses.replace(hybrid_scenario, test_data_mb=volume),
            lambda: Evaluation(hybrid_scenario, volume),
        ):
            with pytest.raises(DomainError) as excinfo:
                make()
            assert str(excinfo.value) == f"test_data_mb {message}"

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
            for name, (role, label) in converters[scenario.name].items():
                assert result.values(name)[-1] == projection.times_s[RateRole(role)][label]
            assert result.values("TotalServiceCostTestData")[-1] == evaluation.cost.total
            assert result.values("TestData")[-1] == evaluation.test_data_mb

    def test_basic_model_storage_trajectories(self, hybrid_scenario):
        result = run(Evaluation(hybrid_scenario).basic_model)
        assert result.values("LocalStorage")[13:] == (352407.0, 325451.0)
        assert result.values("CloudTier")[13:] == (0.0, 26956.0)
