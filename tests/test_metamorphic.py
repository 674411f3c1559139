"""Metamorphic relations on generated valid scenarios, end to end through ``Evaluation``.

Each example writes a scenario of either system with generated job logs,
restore samples, supplied averages, test volume and BIA targets, parses
it as the CLI does, and compares evaluations, reliability chains, or the
outputs of every subcommand, that differ in one input.
"""

from __future__ import annotations

import copy
import io
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from drperf.bia import Status
from drperf.cli import main
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
def scenario_file(doc: dict, files: dict[str, str]) -> Iterator[Path]:
    """The scenario's YAML file, with its CSV files beside it until the block ends."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, text in {**files, "scenario.yaml": yaml.safe_dump(doc, sort_keys=False)}.items():
            (base / name).write_text(text, encoding="utf-8")
        yield base / "scenario.yaml"


@contextmanager
def scenario_on_disk(doc: dict, files: dict[str, str]) -> Iterator[Scenario]:
    """The parsed scenario, with its CSV files readable until the block ends."""
    with scenario_file(doc, files) as path:
        yield parse_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)


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


@settings(deadline=None, max_examples=30)
@given(scenarios(), st.data())
def test_scaling_a_job_logs_durations_by_a_power_of_two_scales_its_backup_time_exactly(
    generated, data
):
    # Exact for the same reason as above: each per-sample rate, their fsum, the mean
    # and the time all scale by a power of two and stay normal numbers.
    doc, files = generated
    system = SystemKind(doc["system"])
    agent = data.draw(st.sampled_from(SYSTEMS[system].agents))
    row = next(row for row in SYSTEMS[system].rates if row.source == agent.log)
    supplied = row.average in doc.get("supplied_averages", {})
    header, *lines = files[f"{agent.log}.csv"].splitlines()
    with scenario_on_disk(doc, files) as scenario:
        base = Evaluation(scenario)
        base_rates, base_times = {r.label: r.value for r in base.rates}, base.projection
    for j in range(-4, 5):
        scaled_log = "".join(
            f"{day},{mb},{float(seconds) * 2.0**j!r}\n"
            for day, mb, seconds in (line.split(",") for line in lines)
        )
        with scenario_on_disk(doc, {**files, f"{agent.log}.csv": f"{header}\n{scaled_log}"}) as s:
            evaluation = Evaluation(s)
            rates, times = {r.label: r.value for r in evaluation.rates}, evaluation.projection
        # A supplied average replaces the log's measured rate, so nothing moves.
        k = 1.0 if supplied else 2.0**j
        assert rates == {**base_rates, row.label: base_rates[row.label] / k}, j
        for scaled, unscaled in (
            (times.backup_times_s, base_times.backup_times_s),
            (times.backup_times_h, base_times.backup_times_h),
        ):
            assert scaled == {**unscaled, row.label: unscaled[row.label] * k}, j
        assert times.restore_times_s == base_times.restore_times_s


# Names of one length drawn from letters that no report prints: the tables pad each
# column to its widest cell, so a longer or shorter name would move other lines too.
NAME_LETTERS = "\u00e0\u00e9\u00ee\u00f5\u00fc\u00e7\u00f1"
# Each subcommand, with the number of times its output prints the scenario's name.
RENAMED_COMMANDS = {
    ("simulate",): 0,
    ("project",): 1,
    ("cost",): 1,
    ("reliability",): 0,
    ("bia-check",): 1,
    ("compare",): 1,
    ("compare", "--format", "csv"): 1,
    ("plot", "--component", "STOCK", "--out", "OUT"): 1,
}


def _run(command: tuple[str, ...], path: Path, stock: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``command`` on ``path``; a plot's stdout is its SVG."""
    out_path = path.parent / "chart.svg"
    filled = {"STOCK": stock, "OUT": str(out_path)}
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([command[0], str(path), *(filled.get(a, a) for a in command[1:])])
    if command[0] == "plot":
        assert stdout.getvalue() == f"wrote {out_path}\n"
        return code, out_path.read_text(encoding="utf-8"), stderr.getvalue()
    return code, stdout.getvalue(), stderr.getvalue()


@settings(deadline=None, max_examples=30)
@given(scenarios(), st.integers(1, 24).flatmap(
    lambda n: st.lists(st.text(NAME_LETTERS, min_size=n, max_size=n), min_size=2, max_size=2,
                       unique=True)
))
def test_renaming_a_scenario_changes_only_the_lines_that_print_its_name(generated, names):
    doc, files = generated
    stock = SYSTEMS[SystemKind(doc["system"])].stocks[0]
    outputs = {}
    for name in names:
        with scenario_file({**doc, "name": name}, files) as path:
            outputs[name] = {command: _run(command, path, stock) for command in RENAMED_COMMANDS}
    old, new = names
    for command, prints in RENAMED_COMMANDS.items():
        code, out, err = outputs[old][command]
        assert code in (0, 2) and err == "", command
        assert out.count(old) == prints, command
        assert outputs[new][command] == (code, out.replace(old, new), err), command


# A reliability component by MTBF or by SLA; each one's mission reliability is in [0, 1].
COMPONENT = st.one_of(
    st.floats(1.0, 1e6).map(lambda mtbf: {"mtbf_h": mtbf}),
    st.floats(0.5, 0.99999).map(lambda sla: {"sla": sla}),
)


@settings(deadline=None, max_examples=60)
@given(
    scenarios(), st.lists(COMPONENT, min_size=1, max_size=5), COMPONENT,
    st.floats(0.0, 10_000.0), st.data(),
)
def test_adding_a_component_to_a_reliability_chain_never_raises_its_reliability(
    generated, chain, added, mission_h, data
):
    # Exact in floating point too: each partial product of the longer chain is at most
    # the shorter chain's, as rounding is monotone.
    doc, files = generated
    components = [{"name": f"C{i}", **component} for i, component in enumerate(chain)]
    position = data.draw(st.integers(0, len(components)))
    longer = components[:position] + [{"name": "Added", **added}] + components[position:]
    reliability = {}
    for name, variant in (("base", components), ("longer", longer)):
        variant_doc = {**doc, "reliability": {"mission_h": mission_h, "components": variant}}
        with scenario_on_disk(variant_doc, files) as scenario:
            assert len(scenario.reliability.components) == len(variant)
            reliability[name] = scenario.reliability.system_reliability()
    assert reliability["longer"] <= reliability["base"]
