"""The tracer's self times add up and its wrappers come off cleanly."""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout

import imports
import spans


def test_self_times_sum_to_root_span_totals():
    # a(0..100) > b(10..40) > c(20..30); a > d(50..90); e(200..210) is a second root
    spans_list = [
        ["a", 0, 100, -1],
        ["b", 10, 40, 0],
        ["c", 20, 30, 1],
        ["d", 50, 90, 0],
        ["e", 200, 210, -1],
    ]
    summary = spans.summarize(spans_list)
    assert summary["self_ns"] == {"a": 30, "b": 20, "c": 10, "d": 40, "e": 10}
    assert sum(summary["self_ns"].values()) == summary["root_ns"] == 110


def test_self_time_shares_group_spans_and_sum_to_one():
    shares = spans.self_time_shares({"yaml.safe_load": 6.0, "joblog.parse_job_log": 1.0,
                                     "joblog.parse_restore_samples": 1.0, "cli.main": 2.0})
    assert shares["yaml"] == 0.6 and shares["joblog"] == 0.2 and shares["other"] == 0.2
    assert shares["engine.run"] == 0.0


def test_traced_cli_op_accounts_for_every_layer():
    from drperf.cli import main
    from drperf.data import hybrid_scenario_path

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        with redirect_stdout(io.StringIO()):
            assert sys.modules["drperf.cli"].main(["compare", str(hybrid_scenario_path())]) == 0
    finally:
        spans.restore(undo)
    op = tracer.finish_op()
    assert sum(op["self_ns"].values()) == op["root_ns"] > 0
    for name in ("cli.main", "cli.build_parser", "scenario.load_scenario", "yaml.safe_load",
                 "joblog.parse_job_log", "models.build_hybrid_basic", "engine.Model.init",
                 "report.compile_comparison"):
        assert op["calls"].get(name, 0) >= 1, name
    assert op["yaml_under_scenario_ns"] > 0
    assert sys.modules["drperf.cli"].main is main


def test_install_then_restore_leaves_every_attribute_unchanged():
    import yaml

    def snapshot():
        owners = spans.drperf_modules() + [yaml]
        engine = sys.modules["drperf.engine"]
        owners += [engine.Model, engine.RunResult]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    spans.restore(spans.install(spans.Tracer()))
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_importtime_parser_reads_top_level_and_yaml_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       900 |        900 |   yaml.error",
        "import time:       800 |      20000 |     yaml",
        "import time:      9000 |      30000 |   drperf.scenario",
        "import time:      1000 |     100000 | drperf",
        "import time:      3000 |     110000 | drperf.cli",
        "import time:       500 |        500 | encodings",
    ])
    profile = imports.parse_importtime(text)
    assert profile == {"import_ms": 210.0, "yaml_ms": 20.0, "drperf_self_ms": 13.0}
