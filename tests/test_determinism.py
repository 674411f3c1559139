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
from drperf.engine import _kernel

from .fingerprint import fingerprint

FINGERPRINT = "beee860e0da9f36883afbb13d78bdc7ca51db0a2075dc373ca5afde419e4ee8a"
SCRIPT = Path(__file__).with_name("fingerprint.py")


def test_fingerprint_of_generated_models_is_pinned():
    # the first pass compiles a kernel for each shape; the second runs them all from the cache
    _kernel.cache_clear()
    assert fingerprint() == FINGERPRINT
    compiled = _kernel.cache_info()
    assert fingerprint() == FINGERPRINT
    cached = _kernel.cache_info()
    runs = compiled.hits + compiled.misses
    assert cached.misses == compiled.misses and cached.hits == compiled.hits + runs


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
