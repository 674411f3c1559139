"""Metamorphic relations on generated valid scenarios, end to end through ``Evaluation``.

Each example writes a scenario of either system with generated job logs,
restore samples, supplied averages, test volume and BIA targets, parses
it as the CLI does, and compares evaluations that differ in one input.
"""

from __future__ import annotations

import copy
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from drperf.bia import Status
from drperf.data import data_path
from drperf.models import SYSTEMS, SystemKind
from drperf.scenario import Evaluation, Scenario, parse_scenario

BASES = {
    SystemKind.HYBRID: yaml.safe_load(data_path("hybrid_reference.yaml").read_text()),
    SystemKind.CLOUD_VAULT: yaml.safe_load(data_path("cloud_reference.yaml").read_text()),
}
DATA_MB = st.integers(1, 200_000)
DURATION_S = st.integers(1, 50_000)
TARGET = st.floats(0.01, 1000.0)


@st.composite
def scenarios(draw) -> tuple[dict, dict[str, str]]:
    """A valid scenario document of either system and the text of its CSV files."""
    system = draw(st.sampled_from(list(SystemKind)))
    spec = SYSTEMS[system]
    doc = copy.deepcopy(BASES[system])
    files = {}
    for agent in spec.agents:
        days = st.lists(st.tuples(DATA_MB, DURATION_S), min_size=spec.days, max_size=spec.days)
        rows = draw(days)
        files[f"{agent.log}.csv"] = "day,data_mb,duration_s\n" + "".join(
            f"{day},{mb},{seconds}\n" for day, (mb, seconds) in enumerate(rows, start=1)
        )
    doc["job_logs"] = {agent.log: f"{agent.log}.csv" for agent in spec.agents}
    files["restore.csv"] = "tier,data_mb,duration_s\n" + "".join(
        f"{restore.tier.value},{draw(DATA_MB)},{draw(DURATION_S)}\n" for restore in spec.restores
    )
    doc["restore_samples"] = "restore.csv"
    names = [row.average for row in spec.rates]
    averages = draw(st.dictionaries(st.sampled_from(names), st.floats(0.01, 100.0)))
    doc.pop("supplied_averages", None)
    if averages:
        doc["supplied_averages"] = averages
    doc["test_data_mb"] = draw(st.floats(1.0, 1e7))
    doc["bia"]["backup_frequency_days"] = draw(st.floats(0.1, 30.0))
    doc["bia"]["rto_target_h"] = draw(TARGET)
    doc["bia"]["rpo_target_days"] = draw(TARGET)
    return doc, files


@contextmanager
def scenario_on_disk(doc: dict, files: dict[str, str]) -> Iterator[Scenario]:
    """The parsed scenario, with its CSV files readable until the block ends."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, text in files.items():
            (base / name).write_text(text, encoding="utf-8")
        yield parse_scenario(yaml.safe_dump(doc, sort_keys=False), base_dir=base)


@settings(deadline=None, max_examples=60)
@given(scenarios())
def test_scaling_test_data_by_a_power_of_two_scales_every_time_exactly(generated):
    # Exact in binary floating point: every time stays a normal number.
    with scenario_on_disk(*generated) as scenario:
        base = Evaluation(scenario).projection
        for j in range(-4, 5):
            scaled = Evaluation(scenario, scenario.test_data_mb * 2.0**j).projection
            for times, base_times in (
                (scaled.backup_times_s, base.backup_times_s),
                (scaled.restore_times_s, base.restore_times_s),
                (scaled.backup_times_h, base.backup_times_h),
                (scaled.restore_times_h, base.restore_times_h),
            ):
                assert times == {label: t * 2.0**j for label, t in base_times.items()}, j


@settings(deadline=None, max_examples=60)
@given(scenarios(), st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
def test_raising_an_rto_or_rpo_target_never_turns_a_pass_into_a_fail(generated, more_h, more_days):
    doc, files = generated
    raised = copy.deepcopy(doc)
    raised["bia"]["rto_target_h"] += more_h
    raised["bia"]["rpo_target_days"] += more_days
    verdicts = {}
    for name, variant in (("base", doc), ("raised", raised)):
        with scenario_on_disk(variant, files) as scenario:
            report = Evaluation(scenario).compliance
        verdicts[name] = {v.metric: v.status for v in report.verdicts}
    assert verdicts["raised"].keys() == verdicts["base"].keys()
    for metric, status in verdicts["base"].items():
        if status is Status.PASS:
            assert verdicts["raised"][metric] is Status.PASS, metric
