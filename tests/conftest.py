from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from drperf.data import data_path, cloud_scenario_path, hybrid_scenario_path
from drperf.joblog import parse_job_log, parse_restore_samples
from drperf.scenario import load_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

# Hypothesis's explain phase re-runs a failing test many times to say which parts of
# its example matter; on the generated-scenario tests that delays the report by
# minutes.  Tests that pass their own @settings inherit the phases from here.
settings.register_profile("drperf", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("drperf")

# The drperf and PyYAML modules as the test modules imported them.  A benchmark test
# run in the same process (bench/program.py:fresh_import) replaces them, and a record
# of a re-imported class fails the isinstance checks of the modules these tests hold.
_COLLECTED: dict = {}


def _drperf_and_yaml_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k.split(".")[0] in ("drperf", "yaml")}


def pytest_collection_finish(session):
    _COLLECTED.update(_drperf_and_yaml_modules())


@pytest.fixture(autouse=True)
def _modules_as_collected():
    """Put back the modules the test modules were collected with, and drop any other."""
    for key in _drperf_and_yaml_modules().keys() - _COLLECTED.keys():
        del sys.modules[key]
    sys.modules.update(_COLLECTED)


@pytest.fixture(scope="session")
def hybrid_scenario():
    return load_scenario(hybrid_scenario_path())


@pytest.fixture(scope="session")
def cloud_scenario():
    return load_scenario(cloud_scenario_path())


@pytest.fixture(scope="session")
def hybrid_log():
    return parse_job_log(data_path("hybrid_backup.csv").read_text())


@pytest.fixture(scope="session")
def hybrid_restores():
    return parse_restore_samples(data_path("hybrid_restore.csv").read_text())


@pytest.fixture(scope="session")
def cloud_logs():
    return (
        parse_job_log(data_path("cloud_job1.csv").read_text()),
        parse_job_log(data_path("cloud_job2.csv").read_text()),
    )


@pytest.fixture(scope="session")
def cloud_restore():
    samples = parse_restore_samples(data_path("cloud_restore.csv").read_text())
    assert len(samples) == 1
    return samples[0]


@pytest.fixture
def golden():
    """Compare text against a golden file; set REGEN_GOLDEN=1 to rewrite."""

    def compare(name: str, text: str):
        path = GOLDEN_DIR / name
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            return
        assert path.is_file(), f"golden file {name} missing; run with REGEN_GOLDEN=1"
        assert text == path.read_text(encoding="utf-8"), f"output differs from golden {name}"

    return compare
