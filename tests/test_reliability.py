from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from drperf.errors import DomainError
from drperf.reliability import (
    DEFAULT_MISSION_HOURS,
    ReliabilityComponent,
    SeriesSystem,
    component_reliability,
    default_recovery_chain,
    series_reliability,
    sla_to_mtbf,
)


class TestComponentReliability:
    def test_reference_components(self):
        assert component_reliability(61320, 372) == pytest.approx(0.993952, abs=2e-5)
        assert component_reliability(17520, 372) == pytest.approx(0.978981, abs=2e-5)

    def test_zero_mission_is_certain_survival(self):
        assert component_reliability(123.0, 0.0) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            component_reliability(0.0, 10.0)
        with pytest.raises(DomainError):
            component_reliability(-5.0, 10.0)
        with pytest.raises(DomainError):
            component_reliability(5.0, -1.0)

    @given(st.floats(1.0, 1e7), st.floats(0.0, 1e5), st.floats(0.001, 1e5))
    def test_decreasing_in_mission_time(self, mtbf, mission, extra):
        # non-strict: the two exponentials can round to the same float
        longer = component_reliability(mtbf, mission + extra)
        assert longer <= component_reliability(mtbf, mission)

    @given(st.floats(1.0, 1e7), st.floats(1.0, 1e7), st.floats(0.001, 1e5))
    def test_increasing_in_mtbf(self, mtbf, extra, mission):
        assert component_reliability(mtbf + extra, mission) >= component_reliability(mtbf, mission)

    def test_strictly_ordered_at_working_scale(self):
        assert component_reliability(61320.0, 400.0) < component_reliability(61320.0, 372.0)
        assert component_reliability(61320.0, 372.0) < component_reliability(70000.0, 372.0)

    @given(st.floats(1.0, 1e7), st.floats(0.0, 1e6))
    def test_always_a_probability(self, mtbf, mission):
        # exp underflows to exactly 0.0 for extreme mission/MTBF ratios
        value = component_reliability(mtbf, mission)
        assert 0.0 <= value <= 1.0


class TestSlaToMtbf:
    def test_reference_sla(self):
        assert sla_to_mtbf(0.9995, 360.0) == pytest.approx(719819.985, abs=0.01)

    def test_consistency_with_the_reference_mtbf(self):
        # Inverting the published component value lands near its MTBF.
        assert sla_to_mtbf(0.993952, 372.0) == pytest.approx(61320, abs=10)

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                sla_to_mtbf(bad, 360.0)
        with pytest.raises(DomainError):
            sla_to_mtbf(0.99, 0.0)

    @given(st.floats(1e-6, 1 - 1e-9, exclude_min=False), st.floats(0.001, 1e6))
    def test_round_trip_identity(self, sla, period):
        mtbf = sla_to_mtbf(sla, period)
        assert component_reliability(mtbf, period) == pytest.approx(sla, rel=1e-12)


class TestSeriesReliability:
    def test_reference_product(self):
        product = series_reliability([0.993952, 0.993952, 0.978981])
        assert product == pytest.approx(0.993952 * 0.993952 * 0.978981)

    def test_trivial_cases(self):
        assert series_reliability([1.0, 1.0, 1.0]) == 1.0
        assert series_reliability([0.5]) == 0.5

    def test_rejects_out_of_range_and_empty(self):
        with pytest.raises(DomainError):
            series_reliability([0.5, 1.2])
        with pytest.raises(DomainError):
            series_reliability([-0.1])
        with pytest.raises(DomainError):
            series_reliability([])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_bounded_by_weakest_component(self, values):
        assert series_reliability(values) <= min(values) + 1e-15

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_order_independent(self, values):
        assert series_reliability(values) == pytest.approx(
            series_reliability(list(reversed(values))), rel=1e-12
        )

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_perfect_component_changes_nothing(self, values):
        assert series_reliability(values + [1.0]) == series_reliability(values)


class TestComponentAndSystemTypes:
    @pytest.mark.parametrize(
        "arguments, words",
        [
            ({}, "component 'x': give exactly one of mtbf_h or sla"),
            ({"mtbf_h": 100.0, "sla": 0.99}, "component 'x': give exactly one of mtbf_h or sla"),
            ({"mtbf_h": 0.0}, "mtbf_h must be > 0, got 0.0"),
            ({"sla": 0.0}, "sla must be > 0, got 0.0"),
            ({"sla": 1.0}, "sla must be < 1, got 1.0"),
            ({"sla": 1.5}, "sla must be < 1, got 1.5"),
            ({"mtbf_h": 100.0, "sla_period_h": 0.0}, "sla_period_h must be > 0, got 0.0"),
            ({"sla": 0.9999999999999999, "sla_period_h": 1e308},
             "sla and sla_period_h give an MTBF beyond float range in hours,"
             " got 0.9999999999999999 and 1e+308"),
        ],
    )
    def test_exactly_one_parameterization_each_in_its_bounds(self, arguments, words):
        # One of mtbf_h and sla, each in its bounds, a reference period > 0, and a finite
        # MTBF from an SLA.  A bound or the SLA's MTBF names the fields; only the rule
        # that one of mtbf_h and sla is given names the part.
        with pytest.raises(DomainError) as excinfo:
            ReliabilityComponent("x", **arguments)
        assert str(excinfo.value) == words

    def test_sla_component_converts(self):
        comp = ReliabilityComponent("cloud", sla=0.9995, sla_period_h=360.0)
        assert comp.reliability(360.0) == pytest.approx(0.9995, rel=1e-12)

    def test_mtbf_component(self):
        comp = ReliabilityComponent("dc", mtbf_h=61320.0)
        assert comp.reliability(372.0) == pytest.approx(math.exp(-372 / 61320))

    def test_system_rejects_duplicates_and_empty(self):
        with pytest.raises(DomainError):
            SeriesSystem(components=())
        with pytest.raises(DomainError, match="^duplicate component name 'a'$"):
            SeriesSystem(
                components=(
                    ReliabilityComponent("a", mtbf_h=10.0),
                    ReliabilityComponent("a", mtbf_h=20.0),
                )
            )

    def test_default_chain(self):
        chain = default_recovery_chain()
        assert chain.mission_h == DEFAULT_MISSION_HOURS == 372.0
        values = {c.name: c.reliability(chain.mission_h) for c in chain.components}
        assert set(values) == {"DataCenter", "CloudProvider", "ISPLink"}
        assert values["DataCenter"] == values["CloudProvider"]
        assert chain.system_reliability() == pytest.approx(0.9671845544830694, rel=1e-12)
