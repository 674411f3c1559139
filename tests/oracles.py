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

``verdict_oracle``: each BIA verdict and the MTD of a scenario, from
``projection_oracle``'s times and the raw inputs, with no BIA function or
record.

``reliability_oracle``: the mission reliability of each link of a scenario's
recovery chain and of the chain, from the raw YAML mapping and README's
definitions, with no component or system record.

Every oracle adds floats with ``left_sum``, the left-to-right fold that drperf
adds with on every Python version, so that it can be compared bit for bit.
``compensated_sum`` is ``sum`` as Python 3.12 and later add floats, for tests
that show that no drperf result depends on the version's ``sum``.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Mapping, Sequence

from drperf.engine import Kind, Model, RunResult, _converter_order
from drperf.errors import ModelError
from drperf.metrics import JobSample
from drperf.plot import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH, _coord


_builtin_sum = sum


def left_sum(values: Iterable[float]) -> float:
    """``0.0 + x1 + x2 + ...``, added left to right."""
    total = 0.0
    for value in values:
        total += value
    return total


def compensated_sum(iterable, /, start=0):
    """``sum`` with CPython 3.12's float loop: Neumaier's compensated summation.
    Anything but a non-empty run of floats from 0 goes to the built-in ``sum``."""
    items = list(iterable)
    if start != 0 or not items or not all(type(item) is float for item in items):
        return _builtin_sum(items, start)
    total = compensation = 0.0
    for item in items:
        new = total + item
        compensation += (total - new) + item if abs(total) >= abs(item) else (item - new) + total
        total = new
    return total + compensation if compensation and math.isfinite(compensation) else total


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
        local_series.append(left_sum(mb for _, mb in local_copies))
        cloud_series.append(cloud_total)
    return local_series, cloud_series


def polyline_points(series: Mapping[str, Sequence[tuple[int, float]]]) -> list[str]:
    """Each series' ``points`` attribute, in name order, one point at a time.

    Each series holds the pairs of periods 1..n, so the x axis runs from 1 to
    the largest n.
    """
    names = sorted(series)
    values = [v for name in names for _, v in series[name]]
    x_lo, x_hi = 1, max(len(series[name]) for name in names)
    y_lo, y_hi = min(0.0, min(values)), max(values)
    if x_hi == x_lo:
        x_hi = x_lo + 1
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
            delta_in = left_sum(current[f] for f in comp.inflows)
            delta_out = left_sum(current[f] for f in comp.outflows)
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
            volume_mb = left_sum(float(row["data_mb"]) for row in log[:moved_days])
        counts = {**_PAPER_OPS, **(doc.get("transactions") or {})}
        storage = float(volume_mb) / 1000 * float(pricing["per_gb_month"])
        transaction = (
            float(pricing["per_10k_ingress_egress"]) * counts["ingress_egress_ops"] / 10_000
            + float(pricing["per_10k_listing"]) * counts["listing_ops"] / 10_000
        )
        return storage, transaction, 0.0
    if volume_mb is None:
        daily = [left_sum(float(row["data_mb"]) for row in day) for day in zip(*logs)]
        stored_gb = left_sum(daily) / 1000
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


def verdict_oracle(
    doc: Mapping, files: Mapping[str, str]
) -> tuple[list[tuple[str, float | None, float | None, str]], float | None]:
    """((metric, measured, target, unit) of each BIA verdict, MTD in hours or None).

    Each projected time is in hours (seconds / 3600): each restore time is
    checked against the RTO target and each backup time against the backup
    window, the backup frequency in hours; the achieved RPO is the backup
    frequency, against the RPO target.  When the BIA sets a data-loss
    ceiling, the data lost is the largest day's data summed over the agents
    in log order.
    When it sets a WRT, the MTD is the fastest restore time plus the WRT.
    """
    bia = doc["bia"]
    frequency_days = float(bia.get("backup_frequency_days", 1.0))
    _, backup_s, restore_s = projection_oracle(doc, files)
    restore_h = {label: seconds / 3600 for label, seconds in restore_s.items()}
    backup_h = {label: seconds / 3600 for label, seconds in backup_s.items()}
    verdicts = [
        (f"restore time ({label})", restore_h[label], bia.get("rto_target_h"), "h")
        for label in sorted(restore_h)
    ]
    for label in sorted(backup_h):
        verdicts.append((f"backup time ({label})", backup_h[label], frequency_days * 24, "h"))
    verdicts.append(("achieved RPO", frequency_days, bia.get("rpo_target_days"), "days"))
    if bia.get("max_data_loss_mb") is not None:
        logs = [list(csv.DictReader(io.StringIO(files[name]))) for name in doc["job_logs"].values()]
        daily = [left_sum(float(row["data_mb"]) for row in day) for day in zip(*logs)]
        verdicts.append(("data loss", max(daily), bia["max_data_loss_mb"], "MB"))
    wrt_h = bia.get("wrt_h")
    return verdicts, None if wrt_h is None else min(restore_h.values()) + wrt_h


# The recovery chain and mission (h) that README gives for a scenario without a
# ``reliability`` block: each link's MTBF in hours.
_DEFAULT_CHAIN = {"DataCenter": 61_320.0, "CloudProvider": 61_320.0, "ISPLink": 17_520.0}
_DEFAULT_MISSION_H = 372.0
_DEFAULT_SLA_PERIOD_H = 360.0


def reliability_oracle(doc: Mapping) -> tuple[dict[str, float], float]:
    """(mission reliability of each link by name, of the whole chain).

    A link survives the mission with probability exp(-mission_h / mtbf_h);
    an SLA link's MTBF is sla_period_h / -ln(sla).  The links are in series,
    so the chain's value is their product, taken from 1.0 in document order.
    """
    block = doc.get("reliability")
    if block is None:
        mission_h = _DEFAULT_MISSION_H
        links = [{"name": name, "mtbf_h": mtbf_h} for name, mtbf_h in _DEFAULT_CHAIN.items()]
    else:
        mission_h = float(block.get("mission_h", _DEFAULT_MISSION_H))
        links = block["components"]
    values = {}
    for link in links:
        if "sla" in link:
            period_h = float(link.get("sla_period_h", _DEFAULT_SLA_PERIOD_H))
            mtbf_h = period_h / -math.log(float(link["sla"]))
        else:
            mtbf_h = float(link["mtbf_h"])
        values[link["name"]] = math.exp(-mission_h / mtbf_h)
    system = 1.0
    for value in values.values():
        system *= value
    return values, system
