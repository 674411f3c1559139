"""Plain-text and CSV report rendering.

All numbers print with 6 significant digits so reports are stable,
diff-friendly golden files.  The comparison report lines up one column
per evaluated scenario: measured rates, projected times for the shared
test volume, monthly cost, reliability, and the BIA verdict.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError
from .metrics import Projection, Rate, RateKind, RateRole, seconds_to_hours

if TYPE_CHECKING:
    from .bia import ComplianceReport
    from .costs import CostBreakdown
    from .engine import Model, RunResult
    from .reliability import SeriesSystem
    from .scenario import Scenario


def fmt_num(value: float) -> str:
    """Render a number with 6 significant digits."""
    return f"{value:.6g}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _csv(headers: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def render_run_summary(model: Model, result: RunResult) -> str:
    """Final value of every component, one row per name."""
    rows = [
        [comp.name, comp.kind.value, comp.unit, fmt_num(result.final(comp.name))]
        for comp in sorted(model.components, key=lambda c: c.name)
    ]
    header = f"model: {model.name}  horizon: {model.horizon}  digest: {result.digest[:12]}\n"
    return header + _table(["component", "kind", "unit", "final value"], rows)


def render_cost(breakdown: CostBreakdown, label: str) -> str:
    rows = [
        ["storage", fmt_num(breakdown.storage_cost)],
        ["transactions", fmt_num(breakdown.transaction_cost)],
        ["instance fee", fmt_num(breakdown.instance_cost)],
        ["total", fmt_num(breakdown.total)],
    ]
    return f"monthly cost: {label}\n" + _table(["item", "USD/month"], rows)


def render_projection(projection: Projection, label: str) -> str:
    basis_rows = [
        [
            r.label,
            r.role.value,
            fmt_num(r.value),
            r.kind.value,
            "supplied" if r.supplied else "computed",
        ]
        for r in projection.basis
    ]
    time_rows = [
        [f"{role} {label}", fmt_num(seconds), fmt_num(seconds_to_hours(seconds))]
        for role, times in (
            ("backup", projection.backup_times_s),
            ("restore", projection.restore_times_s),
        )
        for label, seconds in sorted(times.items())
    ]
    return (
        f"projection for {fmt_num(projection.test_data_mb)} MB: {label}\n"
        + _table(["rate", "role", "value", "unit", "source"], basis_rows)
        + "\n"
        + _table(["time", "seconds", "hours"], time_rows)
    )


def render_reliability(system: SeriesSystem) -> str:
    rows = []
    for comp in system.components:
        basis = (
            f"SLA {fmt_num(comp.sla)} over {fmt_num(comp.sla_period_h)} h"
            if comp.sla_based
            else f"MTBF {fmt_num(comp.mtbf_h)} h"
        )
        rows.append([comp.name, basis, fmt_num(comp.reliability(system.mission_h))])
    rows.append(["SYSTEM", f"series of {len(system.components)}", fmt_num(system.system_reliability())])
    title = f"mission window: {fmt_num(system.mission_h)} h\n"
    return title + _table(["component", "basis", "reliability"], rows)


def render_compliance(report: ComplianceReport) -> str:
    rows = []
    for verdict in report.verdicts:
        rows.append(
            [
                verdict.metric,
                str(verdict.measured) if verdict.measured is not None else "-",
                verdict.relation.value,
                str(verdict.target) if verdict.target is not None else "-",
                verdict.status.value,
            ]
        )
    lines = [f"scenario: {report.scenario}"]
    if report.mtd_hours is not None:
        lines.append(f"MTD (fastest restore + WRT): {fmt_num(report.mtd_hours)} h")
    lines.append(_table(["metric", "measured", "relation", "target", "status"], rows))
    return "\n".join(lines)


@dataclass(frozen=True)
class SystemColumn:
    """One scenario's numbers, ready to sit in a comparison column."""

    scenario_name: str
    system: str
    test_data_mb: float | None
    rates: tuple[Rate, ...]
    projection: Projection | None
    cost: CostBreakdown
    reliability_value: float
    mission_h: float
    compliance: ComplianceReport | None


@dataclass(frozen=True)
class ComparisonReport:
    """Columns compared on an identical test data volume."""

    columns: tuple[SystemColumn, ...]

    def __post_init__(self):
        if not self.columns:
            raise ConfigError("comparison needs at least one scenario")
        volumes = {c.test_data_mb for c in self.columns}
        if len(volumes) > 1:
            raise ConfigError(
                f"scenarios must share one test_data_mb, got {sorted(volumes, key=str)}"
            )
        names = [c.scenario_name for c in self.columns]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate scenario names: {names}")


def compile_column(scenario: Scenario, test_data_mb: float | None = None) -> SystemColumn:
    """Evaluate one scenario into a comparison column."""
    from .scenario import Evaluation  # here, so importing report does not load YAML

    evaluation = Evaluation(scenario, test_data_mb)
    volume = evaluation.test_data_mb
    return SystemColumn(
        scenario_name=scenario.name,
        system=scenario.system.value,
        test_data_mb=volume,
        rates=evaluation.rates,
        projection=evaluation.projection if volume is not None else None,
        compliance=evaluation.compliance if volume is not None else None,
        cost=evaluation.cost,
        reliability_value=scenario.reliability.system_reliability(),
        mission_h=scenario.reliability.mission_h,
    )


def compile_comparison(
    scenarios: list[Scenario], test_data_mb: float | None = None
) -> ComparisonReport:
    return ComparisonReport(
        columns=tuple(compile_column(s, test_data_mb) for s in scenarios)
    )


def _restore_per_mb(rate: Rate) -> float:
    return rate.value if rate.kind is RateKind.SECONDS_PER_MB else 1.0 / rate.value


def _comparison_rows(report: ComparisonReport) -> tuple[list[str], list[list[str]]]:
    columns = report.columns
    headers = ["metric"] + [c.scenario_name for c in columns]

    rows: list[list[str]] = []

    def row(label: str, cells: dict[str, str]) -> None:
        rows.append([label] + [cells.get(c.scenario_name, "-") for c in columns])

    row("system", {c.scenario_name: c.system for c in columns})
    row(
        "test data (MB)",
        {
            c.scenario_name: fmt_num(c.test_data_mb)
            for c in columns
            if c.test_data_mb is not None
        },
    )

    def rate_labels(role: RateRole) -> list[str]:
        seen: list[str] = []
        for c in columns:
            for r in c.rates:
                if r.role is role and r.label not in seen:
                    seen.append(r.label)
        return seen

    def rate_rows(title, value, among=columns) -> None:
        """One row per rate label, backup rates first; ``value(column, rate)`` fills a cell."""
        for role in RateRole:
            for label in rate_labels(role):
                row(
                    title(role, label),
                    {
                        c.scenario_name: fmt_num(value(c, r))
                        for c in among
                        for r in c.rates
                        if r.role is role and r.label == label
                    },
                )

    rate_rows(
        lambda role, label: (
            f"backup throughput {label} (MB/s)"
            if role is RateRole.BACKUP
            else f"restore time per MB {label} (s/MB)"
        ),
        lambda c, r: r.value if r.role is RateRole.BACKUP else _restore_per_mb(r),
    )
    # A projection holds one time per rate, under the rate's own label and role.
    projected = [c for c in columns if c.projection is not None]
    if projected:
        rate_rows(
            lambda role, label: f"projected {role.value} time {label} (h)",
            lambda c, r: seconds_to_hours(
                (c.projection.backup_times_s if r.role is RateRole.BACKUP
                 else c.projection.restore_times_s)[r.label]
            ),
            projected,
        )

    row("monthly cost (USD)", {c.scenario_name: fmt_num(c.cost.total) for c in columns})
    row("mission window (h)", {c.scenario_name: fmt_num(c.mission_h) for c in columns})
    row(
        "system reliability",
        {c.scenario_name: fmt_num(c.reliability_value) for c in columns},
    )
    row(
        "BIA compliance",
        {
            c.scenario_name: (
                "PASS"
                if c.compliance.compliant
                else f"FAIL ({len(c.compliance.failures)} of {len(c.compliance.verdicts)})"
            )
            for c in columns
            if c.compliance is not None
        },
    )
    return headers, rows


def render_comparison(report: ComparisonReport) -> str:
    """Aligned plain-text comparison table."""
    headers, rows = _comparison_rows(report)
    return _table(headers, rows)


def render_comparison_csv(report: ComparisonReport) -> str:
    """The same comparison as CSV."""
    headers, rows = _comparison_rows(report)
    return _csv(headers, rows)
