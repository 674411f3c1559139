"""The package's exports and what importing its modules loads."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drperf

# What the engine, report and plot modules must not pull in: YAML, logging, the scenario
# layers and metrics.
NOT_LOADED = (
    "yaml", "logging", "drperf.scenario", "drperf.models", "drperf.joblog", "drperf.metrics"
)
# Every drperf module they load, so a new eager import on this path fails too.
ENGINE_PATH = ("drperf", "drperf.engine", "drperf.errors", "drperf.plot", "drperf.report")
# Every drperf module the builder loads: it names the scenario layer, which imports
# it, only for type checking.
MODELS_PATH = (
    "drperf", "drperf.costs", "drperf.engine", "drperf.errors", "drperf.fields", "drperf.metrics",
    "drperf.models",
)


def _loaded_by(modules: str) -> list[str]:
    """Every module a fresh interpreter has loaded once it imports ``modules``."""
    src = str(Path(drperf.__file__).parents[1])
    code = f"import sys; import {modules}; print(*sorted(sys.modules), sep='\\n')"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    return done.stdout.splitlines()


def test_engine_report_and_plot_do_not_load_yaml_or_scenarios():
    loaded = _loaded_by("drperf.engine, drperf.report, drperf.plot")
    assert [m for m in NOT_LOADED if m in loaded] == []
    assert tuple(m for m in loaded if m.split(".")[0] == "drperf") == ENGINE_PATH


def test_models_does_not_load_yaml_or_the_scenario_layer():
    loaded = _loaded_by("drperf.models")
    assert "yaml" not in loaded
    assert tuple(m for m in loaded if m.split(".")[0] == "drperf") == MODELS_PATH


def test_errors_loads_no_other_drperf_module():
    loaded = _loaded_by("drperf.errors")
    assert tuple(m for m in loaded if m.split(".")[0] == "drperf") == ("drperf", "drperf.errors")


def test_every_export_is_its_defining_modules_object():
    for name in drperf.__all__:
        if name != "__version__":
            value = getattr(drperf, name)
            assert value.__module__.startswith("drperf."), name
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_system_kind_is_one_object_under_every_name():
    from drperf import models, scenario

    assert drperf.SystemKind is models.SystemKind is scenario.SystemKind


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from drperf import *", namespace)
    assert set(drperf.__all__) <= namespace.keys()
    assert set(drperf.__all__) <= set(dir(drperf))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        drperf.no_such_name
    with pytest.raises(ImportError):
        exec("from drperf import no_such_name", {})


def test_version_matches_pyproject():
    # A regex, not tomllib, so the test also runs on 3.10.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == drperf.__version__
