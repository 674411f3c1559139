"""Metamorphic relations on generated valid scenarios, end to end through ``Evaluation``.

Each example writes a scenario of either system with generated job logs,
restore samples, supplied averages, test volume, BIA targets and pricing,
parses it as the CLI does, and compares evaluations, reliability chains, or
the outputs of every subcommand, that differ in one input.  The projection
and the cost of each generated scenario are also checked against
``oracles.projection_oracle`` and ``oracles.cost_oracle``.
"""

from __future__ import annotations

import copy
import io
import math
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

from .oracles import cost_oracle, projection_oracle

BASES = {
    SystemKind.HYBRID: yaml.safe_load(data_path("hybrid_reference.yaml").read_text()),
    SystemKind.CLOUD_VAULT: yaml.safe_load(data_path("cloud_reference.yaml").read_text()),
}
DATA_MB = st.integers(1, 200_000)
DURATION_S = st.integers(1, 50_000)
TARGET = st.floats(0.01, 1000.0)
PRICE = st.floats(0.0, 10.0)
OPS = st.integers(0, 200_000)


@st.composite
def fee_tiers(draw) -> list[dict]:
    """1-3 flat instance-fee tiers: bounds strictly increasing, fees non-decreasing."""
    bounds = draw(st.lists(st.floats(0.5, 2000.0), min_size=1, max_size=3, unique=True))
    fees = draw(st.lists(PRICE, min_size=len(bounds), max_size=len(bounds)))
    return [{"upper_gb": b, "fee": f} for b, f in zip(sorted(bounds), sorted(fees))]


@st.composite
def frontend_sizes(draw, tiers: list[dict]) -> float:
    """A frontend (GB) at, just below or just above a tier bound, or anywhere up to beyond
    the last."""
    bound = draw(st.sampled_from([tier["upper_gb"] for tier in tiers]))
    near = (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf))
    return draw(st.sampled_from(near) | st.floats(0.0, 3 * tiers[-1]["upper_gb"]))


@st.composite
def pricing(draw, system: SystemKind) -> dict:
    """The pricing keys of a ``system`` scenario; each may be absent, for the paper's."""
    keys = {}
    if system is SystemKind.HYBRID:
        prices = ("per_gb_month", "per_10k_ingress_egress", "per_10k_listing")
        keys["pricing"] = {name: draw(PRICE) for name in prices}
        keys["transactions"] = {"ingress_egress_ops": draw(OPS), "listing_ops": draw(OPS)}
    else:
        tiers = draw(fee_tiers())
        last_fee = tiers[-1]["fee"]  # a block past the last tier costs at least as much
        keys["pricing"] = {
            "per_gb_month": draw(PRICE),
            "instance_fee_tiers": tiers,
            "block_gb": draw(st.floats(1.0, 1000.0)),
            "block_fee": draw(st.floats(last_fee, last_fee + 100.0)),
        }
        keys["frontend_gb"] = draw(frontend_sizes(tiers))
    return {key: value for key, value in keys.items() if draw(st.booleans())}


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
    for key in ("pricing", "transactions", "frontend_gb"):
        doc.pop(key, None)
    doc.update(draw(pricing(system)))
    if system is SystemKind.HYBRID:
        doc["bia"]["cloud_tiering_threshold_days"] = draw(st.integers(1, spec.days + 2))
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


@settings(deadline=None, max_examples=100)
@given(scenarios())
def test_projection_equals_the_oracle(generated):
    rates, backup_times_s, restore_times_s = projection_oracle(*generated)
    with scenario_on_disk(*generated) as scenario:
        projection = Evaluation(scenario).projection
    assert {rate.label: rate.value for rate in projection.basis} == rates
    assert projection.backup_times_s == backup_times_s
    assert projection.restore_times_s == restore_times_s


@settings(deadline=None, max_examples=100)
@given(scenarios())
def test_cost_equals_the_oracle(generated):
    # With the test volume, and without one, which prices the measured state.
    doc, files = generated
    measured = {key: value for key, value in doc.items() if key != "test_data_mb"}
    for variant in (doc, measured):
        storage, transaction, instance = cost_oracle(variant, files)
        with scenario_on_disk(variant, files) as scenario:
            cost = Evaluation(scenario).cost
        assert (cost.storage_cost, cost.transaction_cost, cost.instance_cost) == (
            storage, transaction, instance
        )
        assert cost.total == storage + transaction + instance


def test_cost_oracle_gives_the_bundled_costs():
    # The paper's figures, from the bundled files with and without their test volume.
    for system, volume_cost, measured_cost in (
        (SystemKind.HYBRID, 11.66024, 1.57912),
        (SystemKind.CLOUD_VAULT, 43.7893376, 7.8270144),
    ):
        doc = BASES[system]
        files = {name: data_path(name).read_text() for name in doc["job_logs"].values()}
        measured = {key: value for key, value in doc.items() if key != "test_data_mb"}
        assert math.isclose(sum(cost_oracle(doc, files)), volume_cost, rel_tol=1e-12)
        assert math.isclose(sum(cost_oracle(measured, files)), measured_cost, rel_tol=1e-12)


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
