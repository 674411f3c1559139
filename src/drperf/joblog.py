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
from collections.abc import Callable

from .errors import DomainError, ParseError
from .metrics import JobSample, RestoreSample, Tier

JOB_HEADER = ("day", "data_mb", "duration_s")
JOB_HEADER_MINUTES = ("day", "data_mb", "duration_min")
RESTORE_HEADER = ("tier", "data_mb", "duration_s")


def _records(text: str, accepted: tuple[tuple[str, ...], ...], make_row: Callable) -> tuple:
    """The samples ``make_row(header, cells, samples)`` builds from each row
    after the header, given the row's stripped cells and the samples so far.

    Blank rows are skipped.  An error in the header or a row is raised as a
    ``ParseError`` at the physical line the row ends on, which differs from
    the row's record number after a quoted cell that spans lines.
    """
    reader = csv.reader(text.splitlines())
    header = None
    samples: list = []
    try:
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if header is None:
                header = _header(cells, accepted)
            elif len(cells) != len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(cells)}")
            else:
                samples.append(make_row(header, cells, samples))
    # csv.Error: a cell beyond csv's size limit; before 3.11, also a NUL
    except (csv.Error, ParseError, DomainError) as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if header is None:
        raise ParseError("empty input: no header row")
    if not samples:
        raise ParseError("no samples")
    return tuple(samples)


def _header(cells: list[str], accepted: tuple[tuple[str, ...], ...]) -> tuple[str, ...]:
    header = tuple(cell.lower() for cell in cells)
    if header not in accepted:
        wanted = " or ".join(",".join(h) for h in accepted)
        got = ",".join(cells)
        if not got.isprintable():  # quoted, so no control character reaches the terminal
            got = repr(got)
        raise ParseError(f"expected header {wanted}, got {got}")
    return header


def _number(cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {column} value {cell!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {column} value {cell!r}")
    return value


def _overflow(data_cell: str, column: str, duration_cell: str) -> str:
    return f"data_mb {data_cell!r} over {column} {duration_cell!r} overflows as a rate"


def _job_sample(header: tuple[str, ...], cells: list[str], samples: list) -> JobSample:
    day = _number(cells[0], "day")
    if day != int(day):
        raise ParseError(f"day must be an integer, got {cells[0]!r}")
    data_mb = _number(cells[1], "data_mb")
    duration = _number(cells[2], header[2]) * (60.0 if header == JOB_HEADER_MINUTES else 1.0)
    if not math.isfinite(duration):  # minutes too many to hold in seconds
        raise ParseError(f"{header[2]} value {cells[2]!r} overflows in seconds")
    sample = JobSample(day=int(day), data_mb=data_mb, duration_s=duration)
    if not math.isfinite(data_mb / duration):
        raise ParseError(_overflow(cells[1], header[2], cells[2]))
    if samples and sample.day <= samples[-1].day:
        raise ParseError(f"day {sample.day} repeats or precedes day {samples[-1].day}")
    return sample


def _restore_sample(header: tuple[str, ...], cells: list[str], samples: list) -> RestoreSample:
    try:
        tier = Tier(cells[0])
    except ValueError:
        known = ", ".join(t.value for t in Tier)
        raise ParseError(f"unknown tier {cells[0]!r}; expected one of {known}") from None
    data_mb = _number(cells[1], "data_mb")
    duration = _number(cells[2], "duration_s")
    sample = RestoreSample(source_tier=tier, data_mb=data_mb, duration_s=duration)
    # a restore rate is read either way round: MB/s or s/MB
    if not (math.isfinite(data_mb / duration) and math.isfinite(duration / data_mb)):
        raise ParseError(_overflow(cells[1], "duration_s", cells[2]))
    return sample


def parse_job_log(text: str) -> tuple[JobSample, ...]:
    """Parse a backup job log; samples must appear in increasing day order."""
    return _records(text, (JOB_HEADER, JOB_HEADER_MINUTES), _job_sample)


def parse_restore_samples(text: str) -> tuple[RestoreSample, ...]:
    """Parse sampled restores; the tier column must name a known tier."""
    return _records(text, (RESTORE_HEADER,), _restore_sample)
