"""In-memory span tracer installed around drperf's public functions.

The tracer lives entirely in the benchmark: ``install`` replaces every
public function of each ``drperf`` module, every name another ``drperf``
module imported from it, three engine methods and PyYAML's loaders with a
wrapper that records a span (name, start, end, parent).  ``restore`` puts
the originals back, so untraced measurements see the program unchanged.

Self time is a span's duration minus the time its child spans cover.
Because spans nest strictly (one thread, no overlap), the self times of
an op sum exactly to the durations of its root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter_ns

# Methods wrapped in addition to module-level functions: (module, class, attr, span name).
METHODS = (
    ("drperf.engine", "Model", "__post_init__", "engine.Model.init"),
    ("drperf.engine", "Model", "digest", "engine.Model.digest"),
    ("drperf.engine", "RunResult", "values", "engine.RunResult.values"),
)
YAML_FUNCTIONS = ("load", "safe_load")


def _count_component_periods(counts, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    counts["engine.run.cp"] += len(model.components) * model.horizon


def _count_svg_bytes(counts, args, kwargs, result):
    counts["plot.bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "engine.run": _count_component_periods,
    "plot.render_svg": _count_svg_bytes,
}


class Tracer:
    """Spans and counts of the op in progress."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def finish_op(self) -> dict:
        """Summarize the current op's spans and clear them for the next op."""
        op = summarize(self.spans, self.counts)
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        return op


def summarize(spans, counts=None) -> dict:
    """Per-name calls and self time of one op's spans, plus its root time.

    ``yaml_under_scenario_ns`` is the self time of PyYAML spans that have a
    ``scenario.*`` span among their ancestors.
    """
    child_ns = [0] * len(spans)
    under_scenario = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            under_scenario[i] = under_scenario[parent] or spans[parent][0].startswith("scenario.")
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    root_ns = 0
    yaml_ns = 0
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_ns[i]
        calls[name] += 1
        self_ns[name] += own
        if parent < 0:
            root_ns += end - start
        if name.startswith("yaml.") and under_scenario[i]:
            yaml_ns += own
    return {
        "calls": dict(calls),
        "self_ns": dict(self_ns),
        "root_ns": root_ns,
        "yaml_under_scenario_ns": yaml_ns,
        "counts": dict(counts or {}),
    }


class Totals:
    """Sums of the op summaries of whole traced deck cycles."""

    def __init__(self):
        self.ops = 0
        self.op_ms = 0.0  # the ops' wall time as the harness reports it
        self.csv_files = 0  # distinct CSV files whose data the ops use, summed over ops
        self.scenarios = 0  # scenarios whose data the ops use, summed over ops
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_ns = 0.0
        self.yaml_under_scenario_ns = 0.0

    def add(self, op: dict, op_ms: float, csv_files: int, scenarios: int, scale: float) -> None:
        """Add one op's summary, its span times multiplied by ``scale``."""
        self.ops += 1
        self.op_ms += op_ms
        self.csv_files += csv_files
        self.scenarios += scenarios
        for key, value in op["calls"].items():
            self.calls[key] += value
        for key, value in op["self_ns"].items():
            self.self_ns[key] += value * scale
        for key, value in op["counts"].items():
            self.counts[key] += value
        self.root_ns += op["root_ns"] * scale
        self.yaml_under_scenario_ns += op["yaml_under_scenario_ns"] * scale

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "op_ms": self.op_ms,
            "csv_files": self.csv_files,
            "scenarios": self.scenarios,
            "calls": dict(sorted(self.calls.items())),
            "self_ms": {k: v / 1e6 for k, v in sorted(self.self_ns.items())},
            "counts": dict(sorted(self.counts.items())),
            "root_ms": self.root_ns / 1e6,
            "yaml_under_scenario_ms": self.yaml_under_scenario_ns / 1e6,
        }


def drperf_modules() -> list:
    """Every drperf module, importing any submodule not yet loaded."""
    package = importlib.import_module("drperf")
    for info in pkgutil.walk_packages(package.__path__, "drperf."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "drperf"]


def _span_name(module_name: str, attr: str) -> str:
    return f"{module_name.removeprefix('drperf.')}.{attr}"


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap drperf's public functions in place; returns what ``restore`` undoes."""
    modules = drperf_modules()
    wrappers: dict[int, object] = {}
    for module in modules:
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                wrappers[id(value)] = tracer.wrap(_span_name(module.__name__, attr), value)
    undo: list[tuple[object, str, object]] = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    for module_name, class_name, attr, span in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(span, original))
    yaml = importlib.import_module("yaml")
    for attr in YAML_FUNCTIONS:
        original = getattr(yaml, attr)
        undo.append((yaml, attr, original))
        setattr(yaml, attr, tracer.wrap(f"yaml.{attr}", original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


SHARE_GROUPS = ("yaml", "cli.build_parser", "scenario.parse_scenario", "joblog", "engine.run")


def self_time_shares(self_ms: dict[str, float]) -> dict[str, float]:
    """Each group's share of all traced self time; a group holds a span and its sub-names."""
    total = sum(self_ms.values())
    shares = dict.fromkeys(SHARE_GROUPS + ("other",), 0.0)
    for name, ms in self_ms.items():
        group = next((g for g in SHARE_GROUPS if name == g or name.startswith(g + ".")), "other")
        shares[group] += ms / total if total else 0.0
    return shares


def layer_metrics(totals: dict, import_profile: dict,
                  bypass_failures: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from ``Totals.as_dict()`` of whole traced deck cycles.

    A ratio whose base is zero (the ops use no CSV file) reads 0.
    """
    n = max(totals["ops"], 1)
    calls, self_ms, counts = totals["calls"], totals["self_ms"], totals["counts"]

    def c(*names):
        return sum(calls.get(name, 0) for name in names)

    def s(*names):
        return sum(self_ms.get(name, 0.0) for name in names)

    def prefixed(prefix):
        return sum(v for k, v in self_ms.items() if k.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    builds = ("models.build_hybrid_basic", "models.build_cloud_basic")
    parses = c("joblog.parse_job_log", "joblog.parse_restore_samples")
    return {
        "cli.interp_ms": (import_profile["interp_ms"], "ms"),
        "cli.import_ms": (import_profile["import_ms"], "ms"),
        "cli.import.yaml_ms": (import_profile["yaml_ms"], "ms"),
        "cli.import.drperf_self_ms": (import_profile["drperf_self_ms"], "ms"),
        "cli.build_parser.calls": (c("cli.build_parser") / n, "count"),
        "cli.build_parser.self_ms": (s("cli.build_parser") / n, "ms"),
        "scenario.load_scenario.calls": (c("scenario.load_scenario") / n, "count"),
        "scenario.parse_scenario.self_ms": (s("scenario.parse_scenario") / n, "ms"),
        "scenario.yaml_ms": (totals["yaml_under_scenario_ms"] / n, "ms"),
        "joblog.parse_job_log.calls": (c("joblog.parse_job_log") / n, "count"),
        "joblog.parse_job_log.self_ms": (s("joblog.parse_job_log") / n, "ms"),
        "joblog.parse_restore_samples.calls": (c("joblog.parse_restore_samples") / n, "count"),
        "joblog.parse_restore_samples.self_ms": (s("joblog.parse_restore_samples") / n, "ms"),
        "joblog.parses_per_file": (ratio(parses, totals["csv_files"]), "ratio"),
        "models.build.calls": (c(*builds) / n, "count"),
        "models.build.self_ms": (s(*builds) / n, "ms"),
        "models.builds_per_scenario": (ratio(c(*builds), totals["scenarios"]), "ratio"),
        "engine.Model.init.calls": (c("engine.Model.init") / n, "count"),
        "engine.Model.init.self_ms": (s("engine.Model.init") / n, "ms"),
        "engine.run.calls": (c("engine.run") / n, "count"),
        "engine.run.self_ms": (s("engine.run") / n, "ms"),
        "engine.run.ns_per_cp": (ratio(s("engine.run") * 1e6, counts.get("engine.run.cp", 0)),
                                 "ns"),
        "engine.Model.digest.calls": (c("engine.Model.digest") / n, "count"),
        "engine.Model.digest.self_ms": (s("engine.Model.digest") / n, "ms"),
        "engine.RunResult.values.calls": (c("engine.RunResult.values") / n, "count"),
        "metrics.self_ms": (prefixed("metrics.") / n, "ms"),
        "costs.self_ms": (prefixed("costs.") / n, "ms"),
        "reliability.self_ms": (prefixed("reliability.") / n, "ms"),
        "bia.self_ms": (prefixed("bia.") / n, "ms"),
        "report.render.self_ms": (prefixed("report.render_") / n, "ms"),
        "report.compile_comparison.self_ms": (
            s("report.compile_comparison", "report.compile_column") / n, "ms"),
        "plot.render_svg.self_ms": (s("plot.render_svg") / n, "ms"),
        "plot.bytes_written": (counts.get("plot.bytes", 0) / n, "bytes"),
        "reject.bypass_failures": (bypass_failures, "count"),
    }
