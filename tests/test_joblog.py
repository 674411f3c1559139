from __future__ import annotations

import sys

import pytest
from hypothesis import given, strategies as st

from drperf.errors import ParseError
from drperf.joblog import parse_job_log, parse_restore_samples
from drperf.metrics import JobSample, RestoreSample, Tier


class TestParseJobLog:
    def test_seconds_header(self):
        samples = parse_job_log("day,data_mb,duration_s\n1,8362,3270\n")
        assert samples == (JobSample(1, 8362.0, 3270.0),)

    def test_minutes_header_converts(self):
        samples = parse_job_log("day,data_mb,duration_min\n1,26956,8.75\n")
        assert samples == (JobSample(1, 26956.0, 525.0),)

    def test_crlf_and_blank_lines(self):
        samples = parse_job_log("day,data_mb,duration_s\r\n1,10,20\r\n\r\n2,11,21\r\n")
        assert [s.day for s in samples] == [1, 2]

    def test_whitespace_tolerated(self):
        samples = parse_job_log("day, data_mb, duration_s\n 1 , 10 , 20 \n")
        assert samples[0].data_mb == 10.0

    def test_empty_body(self):
        with pytest.raises(ParseError, match="no samples"):
            parse_job_log("day,data_mb,duration_s\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_job_log("")
        with pytest.raises(ParseError, match="expected header"):
            parse_job_log("day,mb,secs\n1,2,3\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 3") as excinfo:
            parse_job_log("day,data_mb,duration_s\n1,10,20\n2,oops,30\n")
        assert excinfo.value.line == 3

    def test_duplicate_day(self):
        with pytest.raises(ParseError, match="repeats or precedes"):
            parse_job_log("day,data_mb,duration_s\n1,10,20\n1,11,21\n")

    def test_decreasing_day(self):
        with pytest.raises(ParseError, match="repeats or precedes"):
            parse_job_log("day,data_mb,duration_s\n2,10,20\n1,11,21\n")

    def test_non_positive_duration(self):
        with pytest.raises(ParseError, match="duration_s"):
            parse_job_log("day,data_mb,duration_s\n1,10,0\n")

    def test_fractional_day_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse_job_log("day,data_mb,duration_s\n1.5,10,20\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="columns"):
            parse_job_log("day,data_mb,duration_s\n1,10\n")

    @pytest.mark.parametrize("row", ["1,nan,20", "1,10,inf", "inf,10,20", "nan,10,20", "1,-inf,9"])
    def test_non_finite_cell_rejected(self, row):
        with pytest.raises(ParseError, match="non-finite") as excinfo:
            parse_job_log(f"day,data_mb,duration_s\n{row}\n")
        assert excinfo.value.line == 2

    def test_minutes_that_overflow_in_seconds_rejected(self):
        text = "day,data_mb,duration_min\n1,10,8.75\n2,10,1e307\n"
        with pytest.raises(ParseError, match="duration_min value '1e307' overflows") as excinfo:
            parse_job_log(text)
        assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_job_log, "day,data_mb,duration_min\n1,10,8.75\n2,1000,1e-320\n"),
        (parse_job_log, "day,data_mb,duration_s\n1,10,20\n2,1e300,1e-300\n"),
        (parse_restore_samples, "tier,data_mb,duration_s\nLocal,1,1\nVault,1e308,1e-10\n"),
        (parse_restore_samples, "tier,data_mb,duration_s\nLocal,1,1\nVault,1e-10,1e308\n"),
    ],
    ids=["job-minutes", "job-seconds", "restore-throughput", "restore-time-per-mb"],
)
def test_rate_that_overflows_rejected(parse, text):
    with pytest.raises(ParseError, match="line 3: data_mb .* overflows as a rate") as excinfo:
        parse(text)
    assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "header",
    ["\x1b[31mday,data_mb,duration_s", "day,data_mb,\x00duration_s", "day,data_mb\ufeff,duration_s"],
    ids=["escape", "nul", "byte-order-mark"],
)
def test_unprintable_header_is_quoted(header):
    # Before, the cells were printed raw: an escape reached the user's terminal.
    with pytest.raises(ParseError) as excinfo:
        parse_job_log(f"\n{header}\n1,10,20\n")
    assert excinfo.value.line == 2
    message = str(excinfo.value)
    assert message.isprintable()
    if "\x00" not in header or sys.version_info >= (3, 11):  # csv rejects a NUL before 3.11
        assert message.endswith(f", got {header!r}")


def test_printable_header_is_printed_as_it_is():
    with pytest.raises(ParseError) as excinfo:
        parse_job_log("Day, MB, secs\n1,2,3\n")
    assert str(excinfo.value) == (
        "line 1: expected header day,data_mb,duration_s or day,data_mb,duration_min,"
        " got Day,MB,secs"
    )


# (parser, header, the first cell of row i, a cell each column rejects); the
# restore duration is rejected by RestoreSample, the other cells by the parser.
LINE_FORMATS = {
    "job-log": (
        parse_job_log, "day,data_mb,duration_s", lambda i: st.just(str(i + 1)), ("1.5", "nan", "x")
    ),
    "restore-samples": (
        parse_restore_samples,
        "tier,data_mb,duration_s",
        lambda i: st.sampled_from([tier.value for tier in Tier]),
        ("Tape", "x", "-1"),
    ),
}


@pytest.mark.parametrize("kind", LINE_FORMATS)
@given(data=st.data())
def test_error_names_the_line_its_row_ends_on(kind, data):
    # A quoted cell that spans lines puts a row's end past its count of CSV records.
    parse, header, first_cell, bad_cells = LINE_FORMATS[kind]
    eol = data.draw(st.sampled_from(["\n", "\r\n"]), label="eol")
    n_rows = data.draw(st.integers(1, 6), label="rows")
    bad_row = data.draw(st.integers(0, n_rows - 1), label="bad row")
    bad_column = data.draw(st.integers(0, 2), label="bad column")
    text, lines, expected = "", 0, None
    for i in range(-1, n_rows):  # -1 is the header
        blank = data.draw(st.integers(0, 2))
        text += eol * blank
        lines += blank
        if i < 0:
            cells = header.split(",")
        else:
            cells = [data.draw(first_cell(i)), "100", "20"]
            if i == bad_row:
                cells[bad_column] = bad_cells[bad_column]
            for c, cell in enumerate(cells):
                if data.draw(st.booleans()):  # quoted around a line break, which the reader drops
                    cut = data.draw(st.integers(0, len(cell)))
                    cells[c] = f'"{cell[:cut]}{eol}{cell[cut:]}"'
                    lines += 1
        text += ",".join(cells) + eol
        lines += 1
        if i == bad_row:
            expected = lines
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.line == expected
    assert str(excinfo.value).startswith(f"line {expected}: ")


def test_error_after_a_cell_spanning_lines_names_the_physical_line():
    with pytest.raises(ParseError, match="line 4: non-numeric data_mb value 'x'"):
        parse_job_log('day,data_mb,duration_s\n1,"10\n",20\n2,x,3\n')


def test_cell_beyond_the_csv_field_limit_rejected():
    # csv.Error escaped as a traceback.
    with pytest.raises(ParseError, match="field limit") as excinfo:
        parse_restore_samples("tier,data_mb,duration_s\nLocal,1,1\nVault," + "9" * 200_000 + ",1\n")
    assert excinfo.value.line == 3


finite_mb = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)
finite_duration = st.floats(0.001, 1e9, allow_nan=False, allow_infinity=False)


def _job_csv(samples) -> str:
    """A job log in seconds, each float written with ``repr``."""
    return "day,data_mb,duration_s\n" + "".join(
        f"{s.day},{s.data_mb!r},{s.duration_s!r}\n" for s in samples
    )


def _restore_csv(samples) -> str:
    return "tier,data_mb,duration_s\n" + "".join(
        f"{s.source_tier.value},{s.data_mb!r},{s.duration_s!r}\n" for s in samples
    )


class TestRoundTrip:
    """The parsers read back exactly the samples a test writes as CSV."""

    @given(
        st.lists(st.tuples(finite_mb, finite_duration), min_size=1, max_size=25)
    )
    def test_job_log_round_trip(self, rows):
        samples = tuple(
            JobSample(day=i + 1, data_mb=mb, duration_s=sec)
            for i, (mb, sec) in enumerate(rows)
        )
        assert parse_job_log(_job_csv(samples)) == samples

    @given(
        st.lists(
            st.tuples(st.sampled_from(list(Tier)), finite_duration, finite_duration),
            min_size=1,
            max_size=6,
        )
    )
    def test_restore_round_trip(self, rows):
        samples = tuple(
            RestoreSample(source_tier=tier, data_mb=mb, duration_s=sec)
            for tier, mb, sec in rows
        )
        assert parse_restore_samples(_restore_csv(samples)) == samples

    def test_reference_files_round_trip(self, hybrid_log, hybrid_restores):
        assert parse_job_log(_job_csv(hybrid_log)) == hybrid_log
        assert parse_restore_samples(_restore_csv(hybrid_restores)) == hybrid_restores


class TestParseRestoreSamples:
    def test_basic(self):
        samples = parse_restore_samples("tier,data_mb,duration_s\nVault,7690,1380\n")
        assert samples == (RestoreSample(Tier.VAULT, 7690.0, 1380.0),)

    def test_unknown_tier(self):
        with pytest.raises(ParseError, match="unknown tier") as excinfo:
            parse_restore_samples("tier,data_mb,duration_s\nTape,1,1\n")
        assert excinfo.value.line == 2

    def test_empty_body(self):
        with pytest.raises(ParseError, match="no samples"):
            parse_restore_samples("tier,data_mb,duration_s\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_restore_samples("tier,data_mb,duration_s\nLocal,x,1\n")

    @pytest.mark.parametrize("row", ["Local,nan,1", "Local,1,nan", "Vault,inf,1", "Vault,1,inf"])
    def test_non_finite_cell_rejected(self, row):
        with pytest.raises(ParseError, match="non-finite") as excinfo:
            parse_restore_samples(f"tier,data_mb,duration_s\nLocal,1,1\n{row}\n")
        assert excinfo.value.line == 3
