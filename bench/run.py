"""drperf benchmark: one command, two workloads, end-to-end or traced per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload {fleet,engine-scale} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (op latency percentiles, throughput,
set-up time, peak memory), measured with no tracing installed.  With
``--trace 1`` they are the per-layer ones from ``spans``; traced and
untraced deck cycles alternate, and their median difference is the
tracing overhead.  The line before it holds the environment record,
sample counts and outcome tallies.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

import spans
from program import ROOT, require_sources

MIN_OPS = 100  # so that at least ten samples lie beyond p90
HARD_LIMIT_FACTOR = 2.0  # stop after this many times --seconds even below MIN_OPS
SETUP_REPS = 7
CALIBRATION_KEYS = 3000
CALIBRATION_REFERENCE_S = 0.001  # the calibration loop's time at the reference host speed
WORK = ROOT / ".bench_work"
BASELINE = ROOT / "bench" / "baseline.json"


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of them at or below."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _calibration_loop() -> float:
    start = perf_counter()
    table = {}
    for i in range(CALIBRATION_KEYS):
        key = "k" + str(i)
        table[key] = [i, key]
    total = 0
    for key, value in table.items():
        total += len(key) + value[0]
    return perf_counter() - start


def calibrate() -> float:
    """Seconds a fixed allocation-heavy Python loop takes now: the host's current speed.

    The shared host this benchmark runs on changes speed by up to twice,
    for seconds within a run and from one run to the next.  Every op is
    bracketed by two calibrations, and its time is reported at the
    reference speed: multiplied by ``CALIBRATION_REFERENCE_S`` over the
    slower of its two brackets.  The loop builds strings, lists and a dict
    because a pure arithmetic loop misses part of the slow-downs the
    workloads feel.

    The bracket must not depend on the op it follows.  The loop runs once
    untimed first, because right after an op it ran about a tenth slower
    (caches and heap as the op left them); and the garbage collector is
    off, so no collection that the op's allocations made due falls into
    it.  The loop frees what it allocates, so it leaves no collection
    debt to the next op.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _calibration_loop()
        return _calibration_loop()
    finally:
        if was_enabled:
            gc.enable()


def at_reference_speed(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S / calibration


def make_workload(name: str, work, seed: int):
    if name == "fleet":
        from fleet import FleetWorkload

        return FleetWorkload(ROOT, work, seed)
    from engine_scale import EngineScale

    return EngineScale(ROOT, work, seed)


def timed_phase(workload, seconds: float, seed: int, tracer: spans.Tracer | None) -> dict:
    """Closed loop, one caller: the next op starts when the previous one returns.

    Ops run in whole deck cycles, each cycle in a new seeded order.  With a
    tracer, even-numbered cycles run traced and odd ones untraced; layer
    totals come from complete traced cycles only, so call counts depend on
    the deck alone.  Op times are in ms at the reference host speed.
    """
    rng = random.Random(seed)
    order = list(range(len(workload.deck)))
    samples: list[float] = []  # untraced ops that had their expected outcome
    traced_samples: list[float] = []
    wall_ms: list[float] = []  # the same untraced ops, unconverted
    by_label: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    outcomes: dict[str, dict[str, int]] = {}
    totals = spans.Totals()
    calibrations = [calibrate()]
    attempted = cycles = 0
    start = perf_counter()
    deadline, hard_deadline = start + seconds, start + seconds * HARD_LIMIT_FACTOR
    while True:
        now = perf_counter()
        enough = cycles >= 2 if tracer is not None else len(samples) >= MIN_OPS
        if now >= hard_deadline or (now >= deadline and enough):
            break
        rng.shuffle(order)
        traced = tracer is not None and cycles % 2 == 0
        cycle_traces = []
        for key in order:
            op = workload.deck[key]
            if traced:
                undo = spans.install(tracer)
            t0 = perf_counter()
            outcome = workload.execute(op)
            elapsed = perf_counter() - t0
            if traced:
                spans.restore(undo)
            calibrations.append(calibrate())
            scale = at_reference_speed(1.0, max(calibrations[-2:]))
            op_ms = elapsed * scale * 1e3
            if traced:  # the op's spans are converted with the op's own brackets
                cycle_traces.append((tracer.finish_op(), op_ms, op.csv_files, op.n_scenarios,
                                     scale))
            attempted += 1
            tally = outcomes.setdefault(op.label, {})
            label = workload.outcome_label(op, outcome)
            tally[label] = tally.get(label, 0) + 1
            reason = workload.check(key, op, outcome)
            if reason is not None:
                failures[reason] = failures.get(reason, 0) + 1
            elif traced:
                traced_samples.append(op_ms)
            else:
                samples.append(op_ms)
                wall_ms.append(elapsed * 1e3)
                by_label.setdefault(op.label, []).append(op_ms)
            if perf_counter() >= hard_deadline:
                break
        else:
            cycles += 1
            for trace in cycle_traces:
                totals.add(*trace)
    return {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "outcomes": outcomes,
        "samples": samples,
        "wall_ms_p50": median(wall_ms) if wall_ms else None,
        "traced_samples": traced_samples,
        "label_ms_p50": {label: median(ms) for label, ms in sorted(by_label.items())},
        "wall_s": perf_counter() - start,
        "cycles": cycles,
        "calibrations": calibrations,
        "totals": totals,
    }


def environment(seed: int, workload: str) -> dict:
    import yaml

    def git_commit():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    spread = None
    if BASELINE.is_file():
        spread = json.loads(BASELINE.read_text()).get("workloads", {}).get(workload)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "yaml_version": yaml.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
        "baseline_spread": spread,
    }


def run(args) -> dict:
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        for rep in range(1 if args.trace else SETUP_REPS):
            # Inputs are written before the clock starts, and each set-up gets its
            # own directory: file creation on the shared host takes 0.1 to 0.9 s for
            # the same files, which would drown the program's own set-up cost.
            (work / f"setup{rep}").mkdir(parents=True)
            workload = make_workload(args.workload, work / f"setup{rep}", args.seed)
            workload.prepare()
            os.sync()
            before = calibrate()
            start = perf_counter()
            workload.setup()
            elapsed = perf_counter() - start
            setup_s.append(at_reference_speed(elapsed, max(before, calibrate())))
            # Free the module trees the earlier set-ups imported, so that
            # peak_rss_mb does not grow with the number of set-ups.
            gc.collect()
        phase = timed_phase(workload, args.seconds, args.seed,
                            spans.Tracer() if args.trace else None)
        probe = workload.probe()
        bypass_failures = sum(n for tally in probe.values()
                              for label, n in tally.items() if label != "error_line")
        samples = phase["samples"]
        detail = {
            "workload": args.workload,
            "env": environment(args.seed, args.workload),
            "samples": len(samples),
            "wall_ms_p50": phase["wall_ms_p50"],
            "cycles": phase["cycles"],
            "timed_s": phase["wall_s"],
            "fail_ratio": phase["failed"] / phase["attempted"],
            "failures": phase["failures"],
            "outcomes": phase["outcomes"],
            "label_ms_p50": phase["label_ms_p50"],
            "bypass_probe": probe,
            "bypass_failures": bypass_failures,
            "setup_s_reps": setup_s,
            "calibration_ms": {"fastest": min(phase["calibrations"]) * 1e3,
                               "median": median(phase["calibrations"]) * 1e3},
        }
        if args.trace:
            from imports import import_profile

            totals = phase["totals"].as_dict()
            detail["trace_totals"] = totals
            detail["self_time_share"] = spans.self_time_shares(totals["self_ms"])
            # Cold starts run in child processes, so they are converted with the
            # run's median speed.
            scale = CALIBRATION_REFERENCE_S / median(phase["calibrations"])
            profile = {k: ms * scale for k, ms in import_profile(ROOT, workload.work).items()}
            layer = spans.layer_metrics(totals, profile, bypass_failures)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}
            metrics["trace.overhead_ms"] = {
                "value": median(phase["traced_samples"]) - median(samples), "unit": "ms"}
            metrics["trace.unattributed_ms"] = {
                "value": (totals["op_ms"] - totals["root_ms"]) / max(totals["ops"], 1),
                "unit": "ms"}
        else:
            metrics = {
                "op_ms_p50": {"value": median(samples), "unit": "ms"},
                "op_ms_p90": {"value": percentile(samples, 0.9), "unit": "ms"},
                "ops_per_s": {"value": len(samples) / sum(samples) * 1e3, "unit": "1/s"},
                "setup_s": {"value": median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
        os.sync()  # leave no pending discards to the next run
    print(json.dumps(detail, sort_keys=True))
    return {
        "correct": phase["failed"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fleet", "engine-scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
