"""Deterministic SVG line charts for simulation trajectories.

The chart is written by hand (no plotting dependency) so identical inputs
always produce byte-identical files, which keeps plots usable as golden
test artifacts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from .errors import DomainError

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_svg(
    series: Mapping[str, Sequence[tuple[int, float]]],
    title: str = "",
    y_label: str = "",
) -> str:
    """Render one polyline per named series; x axis is the period index."""
    if not series:
        raise DomainError("nothing to plot: no series given")
    for name, points in series.items():
        if not points:
            raise DomainError(f"nothing to plot: series {name!r} is empty")

    names = sorted(series)
    columns = [tuple(zip(*series[name])) for name in names]  # (periods, values) per series
    periods = sorted({p for series_periods, _ in columns for p in series_periods})
    values = [v for _, series_values in columns for v in series_values]
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

    def sx(period: float) -> float:
        return MARGIN_LEFT + (period - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value: float) -> float:
        return MARGIN_TOP + (y_hi - value) / y_span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="13">'
            f"{_text(title)}</text>"
        )

    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}" '
        f'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        f'stroke="black"/>'
    )

    x_ticks = periods if len(periods) <= 16 else _ticks(x_lo, x_hi, 9)
    for tick in x_ticks:
        x = sx(tick)
        parts.append(
            f'<line x1="{_coord(x)}" y1="{axis_y}" x2="{_coord(x)}" y2="{axis_y + 4}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_coord(x)}" y="{axis_y + 16}" text-anchor="middle">{tick:g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 4}" y1="{_coord(y)}" x2="{MARGIN_LEFT}" y2="{_coord(y)}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_coord(y + 4)}" text-anchor="end">{tick:.6g}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle">period</text>'
    )
    if y_label:
        cy = MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.0f})">{_text(y_label)}</text>'
        )

    # Each polyline's points are one %-format call, not one f-string per point.
    # "%.2f" % x prints what _coord's f"{x:.2f}" prints: both end in CPython's
    # PyOS_double_to_string(x, 'f', 2), nan, the infinities and -0.0 included.
    # x is formatted once per period.  x and y are sx and sy written inline, with
    # the int constants as the floats they equal: Python converts an int operand
    # to that float anyway, so the results are the same, and float-only operations
    # run faster.  A scale factor plot_h / y_span taken out of the loop would not
    # be the same: it rounds differently.
    left, top = float(MARGIN_LEFT), float(MARGIN_TOP)
    width, height, x_span = float(plot_w), float(plot_h), x_hi - x_lo
    xs = tuple([left + (p - x_lo) / x_span * width for p in periods])
    x_text = dict(zip(periods, ("%.2f " * len(xs) % xs).split()))
    for i, (name, (series_periods, series_values)) in enumerate(zip(names, columns)):
        color = PALETTE[i % len(PALETTE)]
        cells = [None] * (2 * len(series_values))
        cells[::2] = map(x_text.__getitem__, series_periods)
        cells[1::2] = [top + (y_hi - v) / y_span * height for v in series_values]
        points = ("%s,%.2f " * len(series_values))[:-1] % tuple(cells)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        legend_y = MARGIN_TOP + 14 * i
        legend_x = MARGIN_LEFT + plot_w - 150
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 18}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{legend_x + 24}" y="{legend_y + 4}">{_text(name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

