"""Plain-text and CSV report rendering.

Each renderer builds rows of values: a string, a number, or ``None`` for a
gap.  One pass, shared by the text table and the CSV writer, turns them
into text: a string stays as it is, a gap prints ``-`` and a number prints
with 6 significant digits, so reports are stable, diff-friendly golden
files.  The comparison lines up one column per evaluated scenario:
measured rates, projected times for the shared test volume, monthly cost,
reliability, and the BIA verdict.
"""

from __future__ import annotations

import io
import csv
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    from .bia import ComplianceReport
    from .costs import CostBreakdown
    from .engine import Model, RunResult
    from .metrics import Projection, Rate
    from .reliability import SeriesSystem
    from .scenario import Evaluation, Scenario

Cell = str | float | None  # a row cell: text, a number, or None for a gap


def fmt_num(value: float) -> str:
    """Render a number with 6 significant digits."""
    return f"{value:.6g}"


def _text(rows: list[list[Cell]]) -> list[list[str]]:
    """Every cell as text; ``type(c) is str`` costs less per cell than ``isinstance``."""
    return [
        [c if type(c) is str else "-" if c is None else fmt_num(c) for c in row]
        for row in rows
    ]


def _table(headers: list[str], rows: list[list[Cell]]) -> str:
    rows = _text(rows)
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


def _csv(headers: list[str], rows: list[list[Cell]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(_text(rows))
    return buffer.getvalue()


def render_run_summary(model: Model, result: RunResult) -> str:
    """Final value of every component, one row per name."""
    rows = [
        [comp.name, comp.kind.value, comp.unit, result.values(comp.name)[-1]]
        for comp in sorted(model.components, key=lambda c: c.name)
    ]
    header = f"model: {model.name}  horizon: {model.horizon}  digest: {result.digest[:12]}\n"
    return header + _table(["component", "kind", "unit", "final value"], rows)


def render_cost(breakdown: CostBreakdown, label: str) -> str:
    rows = [
        ["storage", breakdown.storage_cost],
        ["transactions", breakdown.transaction_cost],
        ["instance fee", breakdown.instance_cost],
        ["total", breakdown.total],
    ]
    return f"monthly cost: {label}\n" + _table(["item", "USD/month"], rows)


def render_projection(projection: Projection, label: str) -> str:
    basis_rows = [
        [r.label, r.role.value, r.value, r.kind.value, "supplied" if r.supplied else "computed"]
        for r in projection.basis
    ]
    time_rows = []
    for role, times in projection.times_s.items():
        hours = projection.times_h(role)
        time_rows += (
            [f"{role.value} {label}", times[label], hours[label]] for label in sorted(times)
        )
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
            if comp.sla is not None
            else f"MTBF {fmt_num(comp.mtbf_h)} h"
        )
        rows.append([comp.name, basis, comp.reliability(system.mission_h)])
    rows.append(["SYSTEM", f"series of {len(system.components)}", system.system_reliability()])
    title = f"mission window: {fmt_num(system.mission_h)} h\n"
    return title + _table(["component", "basis", "reliability"], rows)


def render_compliance(report: ComplianceReport, label: str) -> str:
    def cell(value: float | None, unit: str) -> str | None:
        return None if value is None else f"{fmt_num(value)} {unit}"

    rows = [
        [v.metric, cell(v.measured, v.unit), "<=", cell(v.target, v.unit), v.status.value]
        for v in report.verdicts
    ]
    lines = [f"scenario: {label}"]
    if report.mtd_hours is not None:
        lines.append(f"MTD (fastest restore + WRT): {fmt_num(report.mtd_hours)} h")
    lines.append(_table(["metric", "measured", "relation", "target", "status"], rows))
    return "\n".join(lines)


def compile_comparison(
    scenarios: list[Scenario], test_data_mb: float | None = None
) -> tuple[Evaluation, ...]:
    """One column per scenario, each evaluated at the one shared volume.

    A column's fields are derived as the comparison renders its rows of values.
    """
    from .scenario import Evaluation  # here, so importing report does not load YAML

    columns = tuple(Evaluation(s, test_data_mb) for s in scenarios)
    if not columns:
        raise ConfigError("comparison needs at least one scenario")
    volumes = {c.test_data_mb for c in columns}
    if len(volumes) > 1:
        raise ConfigError(f"scenarios must share one test_data_mb, got {sorted(volumes, key=str)}")
    names = [c.scenario.name for c in columns]
    if len(names) != len(set(names)):
        raise ConfigError(f"duplicate scenario names: {names}")
    return columns


def _comparison_rows(columns: tuple[Evaluation, ...]) -> tuple[list[str], list[list[Cell]]]:
    from .metrics import RateRole  # here, so importing report does not load metrics

    def measured(rate: Rate) -> float:
        """A backup rate as it is, a restore rate as seconds per MB."""
        return rate.value if rate.role is RateRole.BACKUP else rate.time_s(1.0)

    volume = columns[0].test_data_mb
    rates = [{(r.role, r.label): r for r in c.rates} for c in columns]  # per column, by key
    # One key per rate row: backup rates first, labels in the order the columns give them.
    keys = dict.fromkeys(
        key for role in RateRole for by_key in rates for key in by_key if key[0] is role
    )
    rows = [
        ["system", *(c.scenario.system.value for c in columns)],
        ["test data (MB)", *(volume for _ in columns)],
    ]
    for key in keys:
        role, label = key
        title = (
            f"backup throughput {label} (MB/s)"
            if role is RateRole.BACKUP
            else f"restore time per MB {label} (s/MB)"
        )
        cells = [measured(by_key[key]) if key in by_key else None for by_key in rates]
        rows.append([title, *cells])
    if volume is not None:
        for role, label in keys:
            cells = [c.projection.times_h(role).get(label) for c in columns]
            rows.append([f"projected {role.value} time {label} (h)", *cells])
    chains = [c.scenario.reliability for c in columns]
    rows += [
        ["monthly cost (USD)", *(c.cost.total for c in columns)],
        ["mission window (h)", *(chain.mission_h for chain in chains)],
        ["system reliability", *(chain.system_reliability() for chain in chains)],
        ["BIA compliance", *map(_verdict, columns)],
    ]
    return ["metric", *(c.scenario.name for c in columns)], rows


def _verdict(evaluation: Evaluation) -> str | None:
    if evaluation.test_data_mb is None:
        return None
    compliance = evaluation.compliance
    if compliance.compliant:
        return "PASS"
    return f"FAIL ({len(compliance.failures)} of {len(compliance.verdicts)})"


def render_comparison(columns: tuple[Evaluation, ...]) -> str:
    """Aligned plain-text comparison table."""
    headers, rows = _comparison_rows(columns)
    return _table(headers, rows)


def render_comparison_csv(columns: tuple[Evaluation, ...]) -> str:
    """The same comparison as CSV."""
    headers, rows = _comparison_rows(columns)
    return _csv(headers, rows)
