"""Determinism as a contract: ``fingerprint.py`` hashes the numbers drperf
computes for generated models, and its digest is pinned here.  Every Python
version that drperf supports gives this one value; a change that moves it says
why in CHANGES.md."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import drperf

from .fingerprint import fingerprint

FINGERPRINT = "beee860e0da9f36883afbb13d78bdc7ca51db0a2075dc373ca5afde419e4ee8a"
SCRIPT = Path(__file__).with_name("fingerprint.py")


def test_fingerprint_of_generated_models_is_pinned():
    assert fingerprint() == FINGERPRINT


def test_fingerprint_runs_as_a_script_without_pyyaml():
    # A None in sys.modules makes every import of yaml raise ImportError.
    run_without_yaml = (
        "import runpy, sys; sys.modules['yaml'] = None;"
        " runpy.run_path(sys.argv[1], run_name='__main__')"
    )
    src = str(Path(drperf.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", run_without_yaml, str(SCRIPT)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, FINGERPRINT + "\n", "")
