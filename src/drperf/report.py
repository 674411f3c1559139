"""Plain-text and CSV report rendering.

All numbers print with 6 significant digits so reports are stable,
diff-friendly golden files.  The comparison report lines up one column
per evaluated scenario: measured rates, projected times for the shared
test volume, monthly cost, reliability, and the BIA verdict.
"""

from __future__ import annotations

import io
import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError

if TYPE_CHECKING:
    from .bia import ComplianceReport
    from .costs import CostBreakdown
    from .engine import Model, RunResult
    from .metrics import Projection, Rate
    from .reliability import SeriesSystem
    from .scenario import Evaluation, Scenario


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
        [f"{role} {label}", fmt_num(seconds), fmt_num(hours[label])]
        for role, times, hours in (
            ("backup", projection.backup_times_s, projection.backup_times_h),
            ("restore", projection.restore_times_s, projection.restore_times_h),
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


def render_compliance(report: ComplianceReport, label: str) -> str:
    def cell(value: float | None, unit: str) -> str:
        return "-" if value is None else f"{fmt_num(value)} {unit}"

    rows = [
        [
            v.metric,
            cell(v.measured, v.unit),
            "<=",
            cell(v.target, v.unit),
            v.status.value,
        ]
        for v in report.verdicts
    ]
    lines = [f"scenario: {label}"]
    if report.mtd_hours is not None:
        lines.append(f"MTD (fastest restore + WRT): {fmt_num(report.mtd_hours)} h")
    lines.append(_table(["metric", "measured", "relation", "target", "status"], rows))
    return "\n".join(lines)


@dataclass(frozen=True)
class ComparisonReport:
    """Evaluations compared on an identical test data volume."""

    columns: tuple[Evaluation, ...]

    def __post_init__(self):
        if not self.columns:
            raise ConfigError("comparison needs at least one scenario")
        volumes = {c.test_data_mb for c in self.columns}
        if len(volumes) > 1:
            raise ConfigError(
                f"scenarios must share one test_data_mb, got {sorted(volumes, key=str)}"
            )
        names = [c.scenario.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate scenario names: {names}")


def compile_comparison(
    scenarios: list[Scenario], test_data_mb: float | None = None
) -> ComparisonReport:
    """Each scenario evaluated at the shared volume; fields are derived as rows render."""
    from .scenario import Evaluation  # here, so importing report does not load YAML

    return ComparisonReport(tuple(Evaluation(s, test_data_mb) for s in scenarios))


def _cells(values: Iterable[float | None]) -> list[str]:
    return ["-" if v is None else fmt_num(v) for v in values]


def _comparison_rows(report: ComparisonReport) -> tuple[list[str], list[list[str]]]:
    from .metrics import RateKind, RateRole  # here, so importing report does not load metrics

    def measured(rate: Rate) -> float:
        """A backup rate as it is, a restore rate as seconds per MB."""
        if rate.role is RateRole.BACKUP or rate.kind is RateKind.SECONDS_PER_MB:
            return rate.value
        seconds = 1.0 / rate.value
        if not math.isfinite(seconds):  # a supplied throughput near zero
            raise DomainError(
                f"rate {rate.label!r} of {rate.value} {rate.kind.value} gives a"
                f" {rate.role.value} time of {seconds} s per MB"
            )
        return seconds

    columns = report.columns
    volume = columns[0].test_data_mb
    rates = [{(r.role, r.label): r for r in c.rates} for c in columns]  # per column, by key
    # One key per rate row: backup rates first, labels in the order the columns give them.
    keys = dict.fromkeys(
        key for role in RateRole for by_key in rates for key in by_key if key[0] is role
    )
    rows = [
        ["system", *(c.scenario.system.value for c in columns)],
        ["test data (MB)", *_cells(volume for _ in columns)],
    ]
    for key in keys:
        role, label = key
        title = (
            f"backup throughput {label} (MB/s)"
            if role is RateRole.BACKUP
            else f"restore time per MB {label} (s/MB)"
        )
        cells = _cells(measured(by_key[key]) if key in by_key else None for by_key in rates)
        rows.append([title, *cells])
    if volume is not None:
        # A projection holds one time per rate, under the rate's own label and role.
        hours = [
            {RateRole.BACKUP: c.projection.backup_times_h,
             RateRole.RESTORE: c.projection.restore_times_h}
            for c in columns
        ]
        for role, label in keys:
            cells = _cells(by_role[role].get(label) for by_role in hours)
            rows.append([f"projected {role.value} time {label} (h)", *cells])
    chains = [c.scenario.reliability for c in columns]
    rows += [
        ["monthly cost (USD)", *_cells(c.cost.total for c in columns)],
        ["mission window (h)", *_cells(chain.mission_h for chain in chains)],
        ["system reliability", *_cells(chain.system_reliability() for chain in chains)],
        ["BIA compliance", *map(_verdict, columns)],
    ]
    return ["metric", *(c.scenario.name for c in columns)], rows


def _verdict(evaluation: Evaluation) -> str:
    if evaluation.test_data_mb is None:
        return "-"
    compliance = evaluation.compliance
    if compliance.compliant:
        return "PASS"
    return f"FAIL ({len(compliance.failures)} of {len(compliance.verdicts)})"


def render_comparison(report: ComparisonReport) -> str:
    """Aligned plain-text comparison table."""
    headers, rows = _comparison_rows(report)
    return _table(headers, rows)


def render_comparison_csv(report: ComparisonReport) -> str:
    """The same comparison as CSV."""
    headers, rows = _comparison_rows(report)
    return _csv(headers, rows)
