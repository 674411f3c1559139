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
"""

from __future__ import annotations

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
        horizon=model.horizon,
        trajectories={name: tuple(values) for name, values in trajectories.items()},
    )
