"""CSV ingestion for measured backup jobs and restore samples.

Job logs are CSV with header ``day,data_mb,duration_s`` (or
``duration_min``, converted to seconds at parse time).  Restore samples
use ``tier,data_mb,duration_s`` with one row per sampled restore.
Numeric cells must be finite, and so must a duration once converted to
seconds and the rate a row measures: data over duration, and for a
restore also duration over data.
"""

from __future__ import annotations

import csv
import math

from .errors import DomainError, ParseError
from .metrics import JobSample, RestoreSample, Tier

JOB_HEADER = ("day", "data_mb", "duration_s")
JOB_HEADER_MINUTES = ("day", "data_mb", "duration_min")
RESTORE_HEADER = ("tier", "data_mb", "duration_s")


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """Non-empty CSV rows paired with their 1-based line numbers."""
    rows = []
    reader = csv.reader(text.splitlines())
    try:
        for lineno, row in enumerate(reader, start=1):
            cells = [cell.strip() for cell in row]
            if not cells or all(cell == "" for cell in cells):
                continue
            rows.append((lineno, cells))
    except csv.Error as exc:  # a cell beyond csv's size limit; before 3.11, also a NUL
        raise ParseError(str(exc), line=reader.line_num) from None
    return rows


def _header(rows: list[tuple[int, list[str]]], *accepted: tuple[str, ...]) -> tuple[str, ...]:
    if not rows:
        raise ParseError("empty input: no header row")
    lineno, cells = rows[0]
    header = tuple(cell.lower() for cell in cells)
    if header not in accepted:
        wanted = " or ".join(",".join(h) for h in accepted)
        got = ",".join(cells)
        if not got.isprintable():  # quoted, so no control character reaches the terminal
            got = repr(got)
        raise ParseError(f"expected header {wanted}, got {got}", line=lineno)
    return header


def _number(cell: str, column: str, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {column} value {cell!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {column} value {cell!r}", line=lineno)
    return value


def _overflow(data_cell: str, column: str, duration_cell: str) -> str:
    return f"data_mb {data_cell!r} over {column} {duration_cell!r} overflows as a rate"


def parse_job_log(text: str) -> tuple[JobSample, ...]:
    """Parse a backup job log; samples must appear in increasing day order."""
    rows = _rows(text)
    header = _header(rows, JOB_HEADER, JOB_HEADER_MINUTES)
    scale = 60.0 if header == JOB_HEADER_MINUTES else 1.0
    samples: list[JobSample] = []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", line=lineno
            )
        day_f = _number(cells[0], "day", lineno)
        if day_f != int(day_f):
            raise ParseError(f"day must be an integer, got {cells[0]!r}", line=lineno)
        data_mb = _number(cells[1], "data_mb", lineno)
        duration = _number(cells[2], header[2], lineno) * scale
        if not math.isfinite(duration):  # minutes too many to hold in seconds
            raise ParseError(f"{header[2]} value {cells[2]!r} overflows in seconds", line=lineno)
        try:
            sample = JobSample(day=int(day_f), data_mb=data_mb, duration_s=duration)
        except DomainError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not math.isfinite(data_mb / duration):
            raise ParseError(_overflow(cells[1], header[2], cells[2]), line=lineno)
        if samples and sample.day <= samples[-1].day:
            raise ParseError(
                f"day {sample.day} repeats or precedes day {samples[-1].day}", line=lineno
            )
        samples.append(sample)
    if not samples:
        raise ParseError("no samples")
    return tuple(samples)


def parse_restore_samples(text: str) -> tuple[RestoreSample, ...]:
    """Parse sampled restores; the tier column must name a known tier."""
    rows = _rows(text)
    _header(rows, RESTORE_HEADER)
    samples: list[RestoreSample] = []
    for lineno, cells in rows[1:]:
        if len(cells) != len(RESTORE_HEADER):
            raise ParseError(
                f"expected {len(RESTORE_HEADER)} columns, got {len(cells)}", line=lineno
            )
        try:
            tier = Tier(cells[0])
        except ValueError:
            known = ", ".join(t.value for t in Tier)
            raise ParseError(
                f"unknown tier {cells[0]!r}; expected one of {known}", line=lineno
            ) from None
        data_mb = _number(cells[1], "data_mb", lineno)
        duration = _number(cells[2], "duration_s", lineno)
        try:
            samples.append(RestoreSample(source_tier=tier, data_mb=data_mb, duration_s=duration))
        except DomainError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        # a restore rate is read either way round: MB/s or s/MB
        if not (math.isfinite(data_mb / duration) and math.isfinite(duration / data_mb)):
            raise ParseError(_overflow(cells[1], "duration_s", cells[2]), line=lineno)
    if not samples:
        raise ParseError("no samples")
    return tuple(samples)
