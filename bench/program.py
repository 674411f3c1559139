"""Locating and importing the program under test from this checkout's ``src``."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_sources() -> None:
    """Raise unless this checkout holds the drperf sources; put them first on sys.path."""
    if not (SRC / "drperf" / "cli.py").is_file():
        raise FileNotFoundError(f"drperf sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_import(*names: str) -> list:
    """Import the named drperf modules anew, so each set-up pays the import cost.

    PyYAML's Python modules are dropped too, so a set-up also pays for
    importing the YAML library (its compiled extension stays loaded).
    """
    for key in [k for k in sys.modules if k.split(".")[0] in ("drperf", "yaml")]:
        if key != "yaml._yaml":
            del sys.modules[key]
    modules = [importlib.import_module(name) for name in names]
    origin = Path(sys.modules["drperf"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"drperf imported from {origin}, not from {SRC}")
    return modules
