"""Cold-start profile of ``drperf.cli``: bare interpreter start and ``-X importtime``.

A shell user pays interpreter start plus imports on every ``drperf``
command.  Traced runs report these as the ``cli.*`` import metrics, each
the median over a few fresh processes.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

TIMEOUT_S = 60
IMPORT_PROBES = 5


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import cost of ``drperf.cli`` from ``-X importtime`` output, in ms.

    ``import_ms`` sums the cumulative time of top-level drperf entries,
    ``yaml_ms`` is the cumulative time of the ``yaml`` package wherever it
    is imported, and ``drperf_self_ms`` sums the self time of every drperf
    module.
    """
    import_us = yaml_us = drperf_self_us = 0
    for match in _IMPORT_LINE.finditer(stderr):
        self_us, cumulative_us = int(match.group(1)), int(match.group(2))
        depth, module = len(match.group(3)) - 1, match.group(4)
        is_drperf = module.split(".")[0] == "drperf"
        if is_drperf and depth == 0:
            import_us += cumulative_us
        if is_drperf:
            drperf_self_us += self_us
        if module == "yaml":
            yaml_us += cumulative_us
    return {"import_ms": import_us / 1e3, "yaml_ms": yaml_us / 1e3,
            "drperf_self_ms": drperf_self_us / 1e3}


def import_profile(root: Path, work: Path) -> dict[str, float]:
    """Medians over a few cold starts: bare interpreter and ``import drperf.cli``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    interp, profiles = [], []
    for _ in range(IMPORT_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=work, check=True,
                       timeout=TIMEOUT_S)
        interp.append((perf_counter() - start) * 1e3)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import drperf.cli"],
                              env=env, cwd=work, capture_output=True, text=True, check=True,
                              timeout=TIMEOUT_S)
        profiles.append(parse_importtime(done.stderr))
    result = {"interp_ms": median(interp)}
    for key in profiles[0]:
        result[key] = median(p[key] for p in profiles)
    return result
