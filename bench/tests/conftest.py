"""Make the benchmark's modules and this checkout's drperf sources importable."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import program  # noqa: E402

program.require_sources()
