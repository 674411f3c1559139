from __future__ import annotations

import shutil
import sys

import pytest

from drperf import joblog
from drperf.cli import main
from drperf.data import cloud_scenario_path, data_path, hybrid_scenario_path

HYBRID = str(hybrid_scenario_path())
CLOUD = str(cloud_scenario_path())


def test_simulate(capsys):
    assert main(["simulate", HYBRID]) == 0
    out = capsys.readouterr().out
    assert "hybrid-basic" in out
    assert "54.2224" in out


def test_project(capsys):
    assert main(["project", HYBRID]) == 0
    out = capsys.readouterr().out
    assert "2.72034" in out and "38.0161" in out

def test_project_with_override(capsys):
    assert main(["project", HYBRID, "--test-data-mb", "1000"]) == 0
    assert "1000 MB" in capsys.readouterr().out


def test_cost(capsys):
    assert main(["cost", CLOUD]) == 0
    assert "43.7893" in capsys.readouterr().out


def test_reliability(capsys):
    assert main(["reliability", HYBRID]) == 0
    out = capsys.readouterr().out
    assert "0.967185" in out and "DataCenter" in out


def test_bia_check_flags_failures_with_exit_2(capsys):
    assert main(["bia-check", HYBRID]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "PASS" in out


def test_bia_check_passes_with_generous_volume(capsys):
    # a small enough volume restores within every target
    assert main(["bia-check", HYBRID, "--test-data-mb", "1000"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_compare_text_and_csv(capsys):
    assert main(["compare", HYBRID, CLOUD]) == 0
    text = capsys.readouterr().out
    assert main(["compare", HYBRID, CLOUD, "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert "54.2224" in text and "54.2224" in csv_text
    assert "," in csv_text.splitlines()[0]


def test_compare_is_deterministic(capsys):
    assert main(["compare", HYBRID, CLOUD]) == 0
    first = capsys.readouterr().out
    assert main(["compare", HYBRID, CLOUD]) == 0
    assert capsys.readouterr().out == first


def test_plot(tmp_path, capsys):
    out_file = tmp_path / "chart.svg"
    code = main(
        ["plot", HYBRID, "--component", "LocalStorage", "--component", "CloudTier",
         "--out", str(out_file)]
    )
    assert code == 0
    assert out_file.read_text().startswith("<svg")


def test_plot_unknown_component(tmp_path, capsys):
    code = main(["plot", HYBRID, "--component", "Nope", "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_scenario_file(capsys):
    assert main(["simulate", "does-not-exist.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_content(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nsystem: hybrid\n")
    assert main(["simulate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        'name: "x\n',
        "name: a\n  bad: 1\nsystem: hybrid\n",
        "name: a\n\tsystem: hybrid\n",
        "name: a\nbia:\n  bad: [1, 2\n",
    ],
    ids=["unterminated-quote", "bad-indent", "tab-indent", "unclosed-flow-sequence"],
)
def test_invalid_yaml_is_one_error_line(text, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["simulate", str(bad)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: line ") and "invalid YAML: " in lines[0]


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "drperf" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["project", HYBRID, "--test-data-mb", "nan"],
        ["project", CLOUD, "--test-data-mb", "inf"],
        ["cost", HYBRID, "--test-data-mb=-inf"],
        ["bia-check", CLOUD, "--test-data-mb", "nan"],
        ["compare", HYBRID, CLOUD, "--test-data-mb", "inf"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.endswith(".yaml")),
)
def test_non_finite_test_volume_rejected(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: test_data_mb must be finite") and err.count("\n") == 1


def _hybrid_with_volume(tmp_path, volume: str) -> str:
    """A copy of the hybrid reference scenario whose own test volume is ``volume``."""
    for name in ("hybrid_backup.csv", "hybrid_restore.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    text = data_path("hybrid_reference.yaml").read_text()
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text.replace("test_data_mb: 531012", f"test_data_mb: {volume}"))
    return str(scenario)


def test_non_finite_scenario_volume_rejected(tmp_path, capsys):
    scenario = _hybrid_with_volume(tmp_path, ".nan")
    for command in ("project", "cost", "bia-check", "compare"):
        assert main([command, scenario]) == 1
        assert capsys.readouterr().err == "error: test_data_mb must be finite, got nan\n"


@pytest.mark.parametrize("volume", ["0", "-5"])
@pytest.mark.parametrize("scenario", [HYBRID, CLOUD], ids=["hybrid", "cloud"])
def test_cost_rejects_non_positive_volume_flag(scenario, volume, capsys):
    assert main(["cost", scenario, f"--test-data-mb={volume}"]) == 1
    assert capsys.readouterr().err == f"error: test_data_mb must be > 0, got {float(volume)}\n"


@pytest.mark.parametrize("volume", ["0", "-5"])
def test_cost_rejects_non_positive_scenario_volume(volume, tmp_path, capsys):
    assert main(["cost", _hybrid_with_volume(tmp_path, volume)]) == 1
    assert capsys.readouterr().err == f"error: test_data_mb must be > 0, got {float(volume)}\n"


# (command line, job-log files, restore-sample files); OUT is the plot's output path.
@pytest.mark.parametrize(
    "argv, job_log_files, restore_files",
    [
        pytest.param(["simulate", HYBRID], 1, 1, id="simulate-hybrid"),
        pytest.param(["simulate", CLOUD], 2, 1, id="simulate-cloud"),
        pytest.param(["project", HYBRID], 1, 1, id="project-hybrid"),
        pytest.param(["project", CLOUD, "--test-data-mb", "1000"], 2, 1, id="project-cloud"),
        pytest.param(["bia-check", HYBRID], 1, 1, id="bia-check-hybrid"),
        pytest.param(["bia-check", CLOUD], 2, 1, id="bia-check-cloud"),
        pytest.param(
            ["plot", HYBRID, "--component", "CloudTier", "--out", "OUT"], 1, 1, id="plot-hybrid"
        ),
        pytest.param(
            ["plot", CLOUD, "--component", "RecoveryVault", "--out", "OUT"], 2, 1, id="plot-cloud"
        ),
        pytest.param(["compare", HYBRID, CLOUD], 3, 2, id="compare-text"),
        pytest.param(
            ["compare", HYBRID, CLOUD, "--test-data-mb", "1000", "--format", "csv"],
            3,
            2,
            id="compare-csv",
        ),
        pytest.param(["reliability", HYBRID], 0, 0, id="reliability-hybrid"),
        pytest.param(["reliability", CLOUD], 0, 0, id="reliability-cloud"),
        pytest.param(["cost", HYBRID], 0, 0, id="cost-hybrid"),
        pytest.param(["cost", CLOUD, "--test-data-mb", "1000"], 0, 0, id="cost-cloud"),
    ],
)
def test_each_input_file_is_parsed_once(
    argv, job_log_files, restore_files, monkeypatch, tmp_path, capsys
):
    calls = {"parse_job_log": 0, "parse_restore_samples": 0}
    for name in calls:
        original = getattr(joblog, name)

        def counting(text, name=name, original=original):
            calls[name] += 1
            return original(text)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "drperf" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    argv = [str(tmp_path / "chart.svg") if a == "OUT" else a for a in argv]
    assert main(argv) in (0, 2)
    assert calls == {"parse_job_log": job_log_files, "parse_restore_samples": restore_files}
