from __future__ import annotations

import re
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from drperf.engine import Kind, Model, ModelComponent, run
from drperf.errors import DomainError
from drperf.plot import render_svg
from drperf.scenario import Evaluation

from .oracles import polyline_points

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def test_polyline_per_series():
    svg = render_svg({"a": [(1, 1.0), (2, 2.0)], "b": [(1, 3.0), (2, 1.0)]})
    assert svg.count("<polyline") == 2
    assert "period" in svg


def test_point_counts_match_the_series(hybrid_scenario):
    result = run(Evaluation(hybrid_scenario).basic_model)
    backup_cycle = result.series["DailyBackup"][:14]
    svg = render_svg({"DailyBackup": backup_cycle})
    polyline = [line for line in svg.splitlines() if "<polyline" in line][0]
    points = polyline.split('points="')[1].split('"')[0].split()
    assert len(points) == 14


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300)


@st.composite
def charts(draw):
    """1-3 series over sorted periods with gaps; each series is a prefix, so some end early."""
    size = draw(st.integers(1, 1500))
    rng = draw(st.randoms(use_true_random=False))
    periods = sorted(rng.sample(range(1, 3 * size + 1), size))

    def value() -> float:
        roll = rng.random()
        if roll < 0.2:
            return rng.choice(EDGE_VALUES)
        if roll < 0.6:
            return rng.uniform(-1000.0, 1000.0)
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.0, 300.0)

    series = {}
    for i in range(draw(st.integers(1, 3))):
        end = draw(st.integers(1, size))
        series[f"s{i}"] = [(p, value()) for p in periods[:end]]
    return series


@settings(deadline=None)
@given(charts())
def test_polylines_match_the_point_by_point_oracle(series):
    svg = render_svg(series, title="t", y_label="MB")
    assert re.findall(r'points="([^"]*)"', svg) == polyline_points(series)


def test_markup_in_text_is_escaped():
    svg = render_svg({"a<b & c": [(1, 1.0), (2, 2.0)]}, title="R&D <primary>", y_label="MB & <x>")
    texts = [node.text for node in ElementTree.fromstring(svg).iter(SVG_TEXT)]
    assert texts[0] == "R&D <primary>"
    assert "a<b & c" in texts and "MB & <x>" in texts


def test_constant_series_draws_a_horizontal_line():
    svg = render_svg({"flat": [(1, 5.0), (2, 5.0), (3, 5.0)]})
    polyline = [line for line in svg.splitlines() if "<polyline" in line][0]
    points = polyline.split('points="')[1].split('"')[0].split()
    ys = {p.split(",")[1] for p in points}
    assert len(ys) == 1


@pytest.mark.parametrize("value", [0.0, -5.0, -1e300])
def test_constant_series_at_or_below_zero_draws_a_horizontal_line(value):
    # At -1e300, y_lo + 1.0 == y_lo, so the y range reaches up to zero instead.
    svg = render_svg({"flat": [(1, value), (2, value), (3, value)]})
    points = re.findall(r'points="([^"]*)"', svg)[0].split()
    assert len({p.split(",")[1] for p in points}) == 1


@pytest.mark.parametrize("period", [1e17, -1e17, 2.0**53])
def test_lone_float_period_that_one_cannot_move_sits_at_the_left_edge(period):
    # period + 1 == period, so the x span reaches up to the next float instead.
    points = re.findall(r'points="([^"]*)"', render_svg({"a": [(period, 1.0)]}))
    assert points == ["70.00,40.00"]


def test_empty_series_rejected():
    with pytest.raises(DomainError):
        render_svg({})
    with pytest.raises(DomainError):
        render_svg({"a": []})


def test_deterministic_output():
    series = {"a": [(1, 1.23), (2, 4.56)]}
    assert render_svg(series, title="t", y_label="MB") == render_svg(
        series, title="t", y_label="MB"
    )


def test_golden_stock_chart(hybrid_scenario, golden):
    result = run(Evaluation(hybrid_scenario).basic_model)
    svg = render_svg(
        {
            "LocalStorage": result.series["LocalStorage"],
            "CloudTier": result.series["CloudTier"],
        },
        title="hybrid-reference",
        y_label="MB",
    )
    golden("hybrid_stocks.svg", svg)


def test_golden_long_horizon_chart(golden):
    """Over 16 periods the x axis gets 9 ticks; a series may end before the others."""
    horizon = 40
    model = Model(
        name="three-stocks",
        components=(
            ModelComponent("Ingest", Kind.FLOW, unit="MB"),
            ModelComponent("Batch", Kind.FLOW, unit="MB"),
            ModelComponent(
                "Tier", Kind.FLOW, unit="MB", expression=lambda v: 0.15 * v["Local"],
                depends=("Local",),
            ),
            ModelComponent(
                "Local", Kind.STOCK, unit="MB", inflows=("Ingest",), outflows=("Tier",)
            ),
            ModelComponent("Cloud", Kind.STOCK, unit="MB", initial=40.0, inflows=("Tier",)),
            ModelComponent("Archive", Kind.STOCK, unit="MB", inflows=("Batch",)),
        ),
        horizon=horizon,
        exogenous={
            "Ingest": tuple(10.0 + (7 * p) % 13 for p in range(horizon)),
            "Batch": tuple(120.0 if p % 10 == 9 else 0.0 for p in range(horizon)),
        },
    )
    result = run(model)
    svg = render_svg(
        {
            "Local": result.series["Local"],
            "Cloud": result.series["Cloud"],
            "Archive": result.series["Archive"][:25],
        },
        title="three-stocks",
        y_label="MB",
    )
    golden("long_horizon.svg", svg)


def test_cloud_transfer_peaks_at_the_measured_maximum(cloud_scenario):
    result = run(Evaluation(cloud_scenario).basic_model)
    transfers = result.series["DailyTransfer"][:7]
    assert max(v for _, v in transfers) == 9458.0
    svg = render_svg({"DailyTransfer": transfers})
    assert svg.count("<polyline") == 1
