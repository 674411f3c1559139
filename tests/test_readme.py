"""README's tables against the code they describe."""

from __future__ import annotations

import re
import typing
from pathlib import Path

import pytest

import drperf
from drperf.cli import main
from drperf.fields import checked
from drperf.metrics import JobSample, RestoreSample
from drperf.models import SYSTEMS
from drperf.scenario import Scenario

from .test_fields import declared_bounds

README = Path(__file__).parents[1] / "README.md"
SUPPLIED_AVERAGES_HEADER = "| system | supplied average | rate it sets |\n|---|---|---|\n"
# | `hybrid` | `MeanDailyThroughput` (MB/s) | backup `Backup` |, the system cell empty
# on a row of the same system
SUPPLIED_AVERAGE_ROW = re.compile(
    r"\| (?:`(?P<system>[^`]+)` )?\| `(?P<average>\w+)` \((?P<unit>[^)]+)\)"
    r" \| (?P<role>\w+) `(?P<label>\w+)` \|"
)
BOUNDS_HEADER = "| file | field | type | bound |\n|---|---|---|---|\n"
# | scenario | `bia.rto_target_h` | float, optional | > 0 |
BOUND_ROW = re.compile(
    r"\| (?P<file>[a-z ]+) \| `(?P<field>[^`]+)` \| (?P<type>\w+(?:, optional)?)"
    r" \| (?P<bound>[^|]+) \|"
)
HELPER_BOUNDS_HEADER = "| helper | parameter | bound |\n|---|---|---|\n"
# | `mtd` | `rto_h` | >= 0 |
HELPER_BOUND_ROW = re.compile(
    r"\| `(?P<helper>[\w.]+)` \| `(?P<parameter>[^`]+)` \| (?P<bound>[^|]+) \|"
)
# The code of every function that ``fields.checked`` wraps.
CHECKED_CODE = checked(lambda: None).__code__
# The file each root record is read from.
BOUNDED_FILES = {Scenario: "scenario", JobSample: "job log", RestoreSample: "restore samples"}
# `project`, `cost`, `bia-check`, and `compare` accept `--test-data-mb`
VOLUME_SENTENCE = re.compile(r"((?:`[\w-]+`,? (?:and )?)+)accept `--test-data-mb`")


def test_supplied_average_table_lists_the_rate_rows_of_every_system():
    text = README.read_text(encoding="utf-8")
    assert text.count(SUPPLIED_AVERAGES_HEADER) == 1
    table = text.split(SUPPLIED_AVERAGES_HEADER)[1].split("\n\n")[0]
    listed, system = [], None
    for line in table.splitlines():
        row = SUPPLIED_AVERAGE_ROW.fullmatch(line)
        assert row, f"not a row of the supplied-average table: {line!r}"
        system = row["system"] or system
        listed.append((system, row["average"], row["unit"], row["role"], row["label"]))
    assert listed == [
        (system.value, row.average, row.kind.value, row.role.value, row.label)
        for system, spec in SYSTEMS.items()
        for row in spec.rates
    ]


def test_bounds_table_lists_every_bound_the_records_declare():
    text = README.read_text(encoding="utf-8")
    assert text.count(BOUNDS_HEADER) == 1
    table = text.split(BOUNDS_HEADER)[1].split("\n\n")[0]
    listed = []
    for line in table.splitlines():
        row = BOUND_ROW.fullmatch(line)
        assert row, f"not a row of the bounds table: {line!r}"
        listed.append(tuple(row.groups()))
    declared = {  # a dict keeps the first of pricing.per_gb_month's two records
        (where, bound.path, bound.kind.__name__ + ", optional" * bound.optional,
         " and ".join(f"{op} {limit}" for op, limit in bound.bounds)): None
        for root, where in BOUNDED_FILES.items()
        for bound in declared_bounds(root)
    }
    assert listed == list(declared)


def helper_bounds():
    """Each bounded parameter of each exported function or method that ``fields.checked``
    wraps, in ``drperf.__all__`` order, read from the hints the decorator reads."""
    for name in drperf.__all__:
        exported = getattr(drperf, name)
        members = vars(exported).values() if isinstance(exported, type) else (exported,)
        for helper in members:
            if getattr(helper, "__code__", None) is not CHECKED_CODE:
                continue
            for parameter, tp in typing.get_type_hints(helper, include_extras=True).items():
                if typing.get_origin(tp) is tuple:  # tuple[Probability, ...]
                    parameter, tp = f"{parameter}[i]", typing.get_args(tp)[0]
                if typing.get_origin(tp) is typing.Annotated:
                    bound = " and ".join(f"{op} {limit}" for op, limit in tp.__metadata__)
                    yield helper.__qualname__, parameter, bound


def test_helper_bounds_table_lists_every_bound_the_helpers_declare():
    text = README.read_text(encoding="utf-8")
    assert text.count(HELPER_BOUNDS_HEADER) == 1
    table = text.split(HELPER_BOUNDS_HEADER)[1].split("\n\n")[0]
    listed = []
    for line in table.splitlines():
        row = HELPER_BOUND_ROW.fullmatch(line)
        assert row, f"not a row of the helper bounds table: {line!r}"
        listed.append(tuple(row.groups()))
    assert listed == list(helper_bounds())
    assert len(listed) == 12


def _help(argv: list[str], capsys) -> str:
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return capsys.readouterr().out


def test_volume_sentence_names_the_commands_that_accept_the_option(capsys):
    sentence = VOLUME_SENTENCE.findall(README.read_text(encoding="utf-8"))
    assert len(sentence) == 1
    commands = re.search(r"\{([\w,-]+)\}", _help([], capsys))[1].split(",")
    accepting = [command for command in commands if "--test-data-mb" in _help([command], capsys)]
    assert re.findall(r"`([\w-]+)`", sentence[0]) == accepting
