"""The generators are deterministic and label what they write."""

from __future__ import annotations

import math

import yaml

import engine_scale
import fleet
from drperf.scenario import load_scenario


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_fleet_is_deterministic_for_a_seed(tmp_path):
    fleet.generate(tmp_path / "a", 7)
    fleet.generate(tmp_path / "b", 7)
    fleet.generate(tmp_path / "c", 8)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_fleet_deck_is_deterministic_for_a_seed(tmp_path):
    decks = []
    for _ in range(2):
        generated = fleet.generate(tmp_path / f"d{len(decks)}", 3)
        deck = fleet.build_deck(generated, 3, tmp_path / "plots")
        decks.append([(op.label, op.oracle, len(op.argv)) for op in deck])
    assert decks[0] == decks[1]


def test_engine_specs_are_deterministic_for_a_seed():
    assert engine_scale.generate_specs(7) == engine_scale.generate_specs(7)
    assert engine_scale.generate_specs(7) != engine_scale.generate_specs(8)


def test_engine_specs_have_equal_work():
    sizes = {len(s.components) * s.horizon for s in engine_scale.generate_specs(5)}
    assert sizes == {12_000}


def test_every_valid_scenario_loads(tmp_path):
    generated = fleet.generate(tmp_path, 11)
    valid = [s for s in generated.scenarios if s.kind == "valid"]
    assert len(valid) == fleet.N_VALID
    for scenario in valid:
        loaded = load_scenario(scenario.path)
        assert loaded.name == scenario.name
        assert loaded.system.value == scenario.system


def test_every_malformed_scenario_is_labelled_with_its_kind(tmp_path):
    generated = fleet.generate(tmp_path, 11)
    handled = [s.kind for s in generated.scenarios if s.kind != "valid"]
    assert sorted(set(handled)) == sorted(fleet.HANDLED_KINDS)
    assert all(handled.count(k) == fleet.N_PER_HANDLED_KIND for k in fleet.HANDLED_KINDS)
    probed = [s.kind for s, _ in generated.probes]
    assert probed == [kind for kind, _, _ in fleet.BYPASS_CASES]


def test_handled_malformations_exit_1_with_one_error_line(tmp_path):
    workload = fleet.FleetWorkload(None, tmp_path, 5)
    workload.prepare()
    workload.setup()
    malformed = [op for op in workload.deck if op.expect == "error_line"]
    assert len(malformed) == len(fleet.HANDLED_KINDS) * fleet.N_PER_HANDLED_KIND
    for op in malformed:
        assert fleet.classify(workload.execute(op)) == "error_line", op


def test_yaml_writer_round_trips():
    doc = {"name": "x", "n": 3, "f": 0.1, "s": "7+7+60", "nested": {"a": [1, 2]},
           "items": [{"k": "v", "w": 2.5}, {"k": "u"}], "bad": float("nan")}
    loaded = yaml.safe_load(fleet.to_yaml(doc))
    assert math.isnan(loaded.pop("bad"))
    doc.pop("bad")
    assert loaded == doc
