"""Bundled reference datasets: measured job logs and ready-made scenarios.

Two complete scenarios ship with the package so every command can be
tried without preparing input files:

* ``hybrid_reference.yaml``: 14-day hybrid appliance measurement
* ``cloud_reference.yaml``: 7-day recovery vault measurement
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    path = Path(str(files(__package__).joinpath(name)))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def hybrid_scenario_path() -> Path:
    return data_path("hybrid_reference.yaml")


def cloud_scenario_path() -> Path:
    return data_path("cloud_reference.yaml")
