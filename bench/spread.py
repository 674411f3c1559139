"""Run the benchmark over several seeds and report each metric's run-to-run spread.

Usage (from the repository root)::

    python3 bench/spread.py --workload fleet --seeds 1-10 [--seconds 30]
        [--write bench/baseline.json]

Spread is the distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median.  With
``--write`` the per-workload summary is merged into that JSON file, which
``run.py`` then quotes in its environment record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, mid, q3 = quantiles(values, n=4)
    center = median(values)
    return {
        "median": center,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / center if center else None,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} samples={detail['samples']} {values}", flush=True)
    names = list(runs[0]["metrics"])
    summary = {
        "seconds": seconds,
        "seeds": seed_list(args.seeds),
        "metrics": {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names},
    }
    for name, stats in summary["metrics"].items():
        spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.3f}"
        print(f"{args.workload:13s} {name:38s} median {stats['median']:12.5g}  spread {spread}")
    if args.write:
        existing = json.loads(args.write.read_text()) if args.write.is_file() else {}
        existing.setdefault("workloads", {})[args.workload] = summary
        args.write.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
