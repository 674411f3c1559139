"""Brute-force reference implementations used only by the tests.

``retention_tiering_oracle``: the engine tracks storage through stock/flow
arithmetic; this oracle instead keeps an explicit list of backup copies and
moves each one the first period its age reaches the tiering threshold.
Agreement between the two is a strong check that the stock updates are
wired correctly.

``polyline_points``: the ``points`` text of each polyline ``plot.render_svg``
draws, written one f-string per point with the chart's own scaling
expressions, where ``render_svg`` formats each series in bulk.

``reference_run``: a direct period loop that builds a fresh read view of
each component's dependencies on every call, where ``engine.run`` compiles
a plan once and reuses its scopes; the two must give identical series.

``projection_oracle``: each rate and projected time of a scenario, computed
from the raw YAML mapping and CSV text as README defines them, with no
system table, model, engine or ``Evaluation`` in between.

``cost_oracle``: the monthly cost items of a scenario, from the same raw
inputs and README's definitions, with no cost function or record either.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Mapping, Sequence

from drperf.engine import Kind, Model, RunResult, _converter_order
from drperf.errors import ModelError
from drperf.metrics import JobSample
from drperf.plot import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH, _coord


def retention_tiering_oracle(
    job_log: Sequence[JobSample], threshold_days: int, horizon: int
) -> tuple[list[float], list[float]]:
    """Per-period (local, cloud) storage from a naive copy-list simulation."""
    by_day = {s.day: s.data_mb for s in job_log}
    local_copies: list[tuple[int, float]] = []
    cloud_total = 0.0
    local_series: list[float] = []
    cloud_series: list[float] = []
    for period in range(1, horizon + 1):
        if period in by_day:
            local_copies.append((period, by_day[period]))
        still_local = []
        for day, mb in local_copies:
            if period - day >= threshold_days:
                cloud_total += mb
            else:
                still_local.append((day, mb))
        local_copies = still_local
        local_series.append(sum(mb for _, mb in local_copies))
        cloud_series.append(cloud_total)
    return local_series, cloud_series


def polyline_points(series: Mapping[str, Sequence[tuple[int, float]]]) -> list[str]:
    """Each series' ``points`` attribute, in name order, one point at a time."""
    names = sorted(series)
    periods = sorted({p for name in names for p, _ in series[name]})
    values = [v for name in names for _, v in series[name]]
    x_lo, x_hi = min(periods), max(periods)
    y_lo, y_hi = min(0.0, min(values)), max(values)
    if x_hi == x_lo:
        x_hi = x_lo + 1
        if x_hi == x_lo:  # a float period too large for 1 to move: span up to the next float
            x_hi = math.nextafter(x_lo, math.inf)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
        if y_hi == y_lo:  # a negative value too large for 1.0 to move: span up to zero
            y_hi = 0.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    y_span = y_hi - y_lo
    attributes = []
    for name in names:
        points = []
        for p, v in series[name]:
            x = MARGIN_LEFT + (p - x_lo) / (x_hi - x_lo) * plot_w
            y = MARGIN_TOP + (y_hi - v) / y_span * plot_h
            points.append(f"{_coord(x)},{y:.2f}")
        attributes.append(" ".join(points))
    return attributes


class _Scope(Mapping[str, float]):
    """Read view restricted to a component's declared dependencies."""

    def __init__(self, allowed: Mapping[str, float], owner: str):
        self._allowed = allowed
        self._owner = owner

    def __getitem__(self, key: str) -> float:
        try:
            return self._allowed[key]
        except KeyError:
            raise ModelError(
                f"{self._owner!r} read {key!r} without declaring it as a dependency"
            ) from None

    def __iter__(self):
        return iter(self._allowed)

    def __len__(self):
        return len(self._allowed)


def reference_run(model: Model) -> RunResult:
    """Evaluate the model period by period, building every scope anew."""
    order = _converter_order(model)
    flows = [c for c in model.components if c.kind is Kind.FLOW and not c.is_exogenous]
    stocks = [c for c in model.components if c.kind is Kind.STOCK]
    exogenous = [c for c in model.components if c.is_exogenous]

    trajectories: dict[str, list[float]] = {c.name: [] for c in model.components}
    stock_prev = {c.name: float(c.initial) for c in stocks}

    for period in range(1, model.horizon + 1):
        current: dict[str, float] = dict(stock_prev)
        for comp in exogenous:
            current[comp.name] = float(model.exogenous[comp.name][period - 1])
        for comp in order:
            if comp.is_exogenous:
                continue
            scope = _Scope({d: current[d] for d in comp.depends}, comp.name)
            current[comp.name] = float(comp.expression(scope))
        for comp in flows:
            scope = _Scope({d: current[d] for d in comp.depends}, comp.name)
            current[comp.name] = float(comp.expression(scope))
        for comp in stocks:
            delta_in = sum(current[f] for f in comp.inflows)
            delta_out = sum(current[f] for f in comp.outflows)
            current[comp.name] = stock_prev[comp.name] + delta_in - delta_out
        for comp in model.components:
            trajectories[comp.name].append(current[comp.name])
        stock_prev = {c.name: current[c.name] for c in stocks}

    return RunResult(
        digest=model.digest(),
        trajectories={name: tuple(values) for name, values in trajectories.items()},
    )


# README's table of supplied averages: per system, each rate's label, role, the
# supplied average that overrides it, its source (a job-log label or a restore
# tier) and its unit.
_PROJECTION_RATES = {
    "hybrid": (
        ("Backup", "backup", "MeanDailyThroughput", "backup", "MB/s"),
        ("Local", "restore", "RestoreTimePerMbLocal", "Local", "s/MB"),
        ("Archive", "restore", "RestoreTimePerMbArchive", "Archive", "s/MB"),
    ),
    "cloud-vault": (
        ("Job1", "backup", "AvgJob1Throughput", "job1", "MB/s"),
        ("Job2", "backup", "AvgJob2Throughput", "job2", "MB/s"),
        ("Vault", "restore", "RecoveryThroughput", "Vault", "MB/s"),
    ),
}


def projection_oracle(
    doc: Mapping, files: Mapping[str, str]
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """(rates, backup times in s, restore times in s), each by rate label.

    ``doc`` is the scenario's YAML mapping and ``files`` maps each file name it
    references to the file's text.  A backup rate is the mean of its log's
    per-day throughputs (data over duration, summed exactly); a restore rate is
    its tier's sample as s/MB (duration over data) or MB/s (data over
    duration); a supplied average replaces the rate of its name.  A time is
    volume / rate for MB/s and volume * rate for s/MB.
    """
    volume = float(doc["test_data_mb"])
    supplied = doc.get("supplied_averages") or {}
    restores = {
        row["tier"]: row for row in csv.DictReader(io.StringIO(files[doc["restore_samples"]]))
    }
    rates, backup, restore = {}, {}, {}
    for label, role, average, source, unit in _PROJECTION_RATES[doc["system"]]:
        if average in supplied:
            rate = float(supplied[average])
        elif role == "backup":
            rows = list(csv.DictReader(io.StringIO(files[doc["job_logs"][source]])))
            per_day = [float(row["data_mb"]) / float(row["duration_s"]) for row in rows]
            rate = math.fsum(per_day) / len(per_day)
        elif unit == "s/MB":
            rate = float(restores[source]["duration_s"]) / float(restores[source]["data_mb"])
        else:
            rate = float(restores[source]["data_mb"]) / float(restores[source]["duration_s"])
        rates[label] = rate
        times = backup if role == "backup" else restore
        times[label] = volume * rate if unit == "s/MB" else volume / rate
    return rates, backup, restore


# The paper's prices, operation counts, tiering threshold and vault frontend (GB),
# which README gives for a scenario that leaves them out.
_PAPER_PRICING = {
    "hybrid": {"per_gb_month": 0.02, "per_10k_ingress_egress": 0.54, "per_10k_listing": 0.50},
    "cloud-vault": {
        "per_gb_month": 0.0448,
        "instance_fee_tiers": [{"upper_gb": 50, "fee": 5}, {"upper_gb": 500, "fee": 10}],
        "block_gb": 500,
        "block_fee": 10,
    },
}
_PAPER_OPS = {"ingress_egress_ops": 10_000, "listing_ops": 10_000}
_PAPER_THRESHOLD_DAYS = 14
_PAPER_FRONTEND_GB = 50


def cost_oracle(doc: Mapping, files: Mapping[str, str]) -> tuple[float, float, float]:
    """(storage, transaction, instance) monthly cost items of a scenario, in USD.

    With a test volume, its GB are priced, and it is the vault's frontend
    too.  Without one, the hybrid prices the data that tiering moved to the
    cloud tier within the cycle (day d's, for each d + threshold up to the
    last day + 1), and the vault the data of every day of every log, with
    ``frontend_gb`` as its frontend.  A GB is 1000 MB.
    """
    system = doc["system"]
    pricing = {**_PAPER_PRICING[system], **(doc.get("pricing") or {})}
    logs = [list(csv.DictReader(io.StringIO(files[name]))) for name in doc["job_logs"].values()]
    volume_mb = doc.get("test_data_mb")
    if system == "hybrid":
        if volume_mb is None:
            threshold = (doc.get("bia") or {}).get("cloud_tiering_threshold_days")
            threshold = threshold or _PAPER_THRESHOLD_DAYS
            (log,) = logs
            moved_days = max(len(log) + 1 - threshold, 0)
            volume_mb = sum(float(row["data_mb"]) for row in log[:moved_days])
        counts = {**_PAPER_OPS, **(doc.get("transactions") or {})}
        storage = float(volume_mb) / 1000 * float(pricing["per_gb_month"])
        transaction = (
            float(pricing["per_10k_ingress_egress"]) * counts["ingress_egress_ops"] / 10_000
            + float(pricing["per_10k_listing"]) * counts["listing_ops"] / 10_000
        )
        return storage, transaction, 0.0
    if volume_mb is None:
        daily = [sum(float(row["data_mb"]) for row in day) for day in zip(*logs)]
        stored_gb = sum(daily) / 1000
        frontend_gb = float(doc.get("frontend_gb", _PAPER_FRONTEND_GB))
    else:
        stored_gb = frontend_gb = float(volume_mb) / 1000
    fees = [float(t["fee"]) for t in pricing["instance_fee_tiers"]
            if frontend_gb <= t["upper_gb"]]
    if fees:
        fee = fees[0]
    else:
        blocks = math.ceil(frontend_gb / float(pricing["block_gb"]))
        fee = blocks * float(pricing["block_fee"])
    return stored_gb * float(pricing["per_gb_month"]), 0.0, fee
