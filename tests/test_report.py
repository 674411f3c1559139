from __future__ import annotations

import dataclasses

import pytest

from drperf.engine import run
from drperf.errors import ConfigError
from drperf.report import (
    compile_comparison,
    fmt_num,
    render_comparison,
    render_comparison_csv,
    render_compliance,
    render_cost,
    render_projection,
    render_reliability,
    render_run_summary,
)
from drperf.scenario import Evaluation


def test_fmt_num_uses_six_significant_digits():
    assert fmt_num(54.22238512956061) == "54.2224"
    assert fmt_num(0.020964797342) == "0.0209648"
    assert fmt_num(63103.0) == "63103"
    assert fmt_num(0.9671845544830694) == "0.967185"


class TestComparison:
    def test_text_golden(self, hybrid_scenario, cloud_scenario, golden):
        report = compile_comparison([hybrid_scenario, cloud_scenario])
        golden("comparison.txt", render_comparison(report))

    def test_csv_golden(self, hybrid_scenario, cloud_scenario, golden):
        report = compile_comparison([hybrid_scenario, cloud_scenario])
        golden("comparison.csv", render_comparison_csv(report))

    def test_rendering_is_stable(self, hybrid_scenario, cloud_scenario):
        scenarios = [hybrid_scenario, cloud_scenario]
        first = render_comparison(compile_comparison(scenarios))
        second = render_comparison(compile_comparison(scenarios))
        assert first == second

    def test_reference_values_appear(self, hybrid_scenario, cloud_scenario):
        text = render_comparison(compile_comparison([hybrid_scenario, cloud_scenario]))
        for expected in ("54.2224", "2.57731", "1.83045", "0.25773", "11.6602", "43.7893"):
            assert expected in text

    def test_single_scenario_table(self, hybrid_scenario):
        text = render_comparison(compile_comparison([hybrid_scenario]))
        assert "hybrid-reference" in text
        assert "cloud" not in text.split("\n")[0]

    def test_mismatched_volumes_rejected(self, hybrid_scenario, cloud_scenario):
        other = dataclasses.replace(cloud_scenario, test_data_mb=1.0)
        with pytest.raises(ConfigError, match="test_data_mb"):
            compile_comparison([hybrid_scenario, other])

    def test_duplicate_scenario_names_rejected(self, hybrid_scenario):
        with pytest.raises(ConfigError, match="duplicate"):
            compile_comparison([hybrid_scenario, hybrid_scenario])

    def test_empty_comparison_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            compile_comparison([])

    def test_volume_override(self, hybrid_scenario):
        (column,) = compile_comparison([hybrid_scenario], test_data_mb=1000.0)
        assert column.test_data_mb == 1000.0
        assert column.projection.test_data_mb == 1000.0


class TestSingleReports:
    def test_run_summary_lists_components(self, hybrid_scenario):
        model = Evaluation(hybrid_scenario).basic_model
        text = render_run_summary(model, run(model))
        assert "MeanDailyThroughput" in text
        assert "54.2224" in text
        assert text.endswith("\n")

    def test_cost_table(self, hybrid_scenario):
        text = render_cost(Evaluation(hybrid_scenario).cost, hybrid_scenario.name)
        assert "total" in text and "11.6602" in text

    def test_projection_report(self, hybrid_scenario):
        text = render_projection(Evaluation(hybrid_scenario).projection, hybrid_scenario.name)
        assert "2.72034" in text and "computed" in text

    def test_projection_marks_supplied_rates(self, cloud_scenario):
        text = render_projection(Evaluation(cloud_scenario).projection, cloud_scenario.name)
        assert "supplied" in text

    def test_reliability_table(self, hybrid_scenario):
        text = render_reliability(hybrid_scenario.reliability)
        assert "SYSTEM" in text
        assert "0.993952" in text and "0.967185" in text

    def test_compliance_table(self, hybrid_scenario):
        text = render_compliance(Evaluation(hybrid_scenario).compliance, hybrid_scenario.name)
        assert text.startswith(f"scenario: {hybrid_scenario.name}\n")
        assert "FAIL" in text and "PASS" in text
        assert "restore time (Archive)" in text

    def test_compliance_shows_mtd_when_wrt_set(self, hybrid_scenario):
        scenario = dataclasses.replace(
            hybrid_scenario,
            bia=dataclasses.replace(hybrid_scenario.bia, wrt_h=1.90761),
        )
        text = render_compliance(Evaluation(scenario).compliance, scenario.name)
        assert "MTD" in text and "5 h" in text
