"""The bounds that input records declare in their field types, read back from
``fields.schema`` and checked at each limit from both sides, and the exported
helpers that check their arguments by the same types."""

from __future__ import annotations

import dataclasses
import math
import operator
import types
import typing
from collections.abc import Iterator, Mapping
from typing import Annotated, NamedTuple

import pytest

from drperf.bia import BiaTargets, mtd
from drperf.costs import (
    ObjectStoreRates,
    TransactionCounts,
    VaultRates,
    cloud_vault_cost,
    hybrid_cloud_cost,
    vault_instance_fee,
)
from drperf.errors import ConfigError, DomainError
from drperf.fields import build, schema
from drperf.metrics import JobSample, Rate, RateKind, RateRole, RestoreSample, project
from drperf.models import SYSTEMS, SystemKind
from drperf.reliability import (
    ReliabilityComponent,
    SeriesSystem,
    component_reliability,
    series_reliability,
    sla_to_mtbf,
)
from drperf.scenario import Scenario


class Bound(NamedTuple):
    record: type  # the record class that declares the field
    name: str  # the field
    path: str  # its dotted path from the root record: reliability.components[i].mtbf_h
    kind: type  # float or int
    optional: bool  # None is a value of the field
    bounds: tuple  # its (operator, limit) pairs
    keyed: bool  # the bounds hold each value of a mapping, as of supplied_averages


def declared_bounds(cls, prefix: str = "") -> Iterator[Bound]:
    """Each bounded field of the record class ``cls`` and of every record under it,
    in declaration order, read from the declared types of ``fields.schema``'s fields."""
    hints = typing.get_type_hints(cls, include_extras=True)
    for name in schema(cls)[0]:
        declared = hints[name]
        union = typing.get_origin(declared) in (typing.Union, types.UnionType)
        members = typing.get_args(declared) if union else (declared,)
        for tp in members:
            path, keyed = prefix + name, False
            if typing.get_origin(tp) is tuple:  # tuple[Record, ...]
                tp, path = typing.get_args(tp)[0], f"{path}[i]"
            if typing.get_origin(tp) is Mapping:  # Mapping[str, X]
                tp, path, keyed = typing.get_args(tp)[1], f"{path}.<name>", True
            if dataclasses.is_dataclass(tp):
                yield from declared_bounds(tp, f"{path}.")
            elif typing.get_origin(tp) is Annotated:
                kind = typing.get_args(tp)[0]
                yield Bound(cls, name, path, kind, type(None) in members, tp.__metadata__, keyed)


BOUNDS = [
    *declared_bounds(Scenario),
    *declared_bounds(JobSample),
    *declared_bounds(RestoreSample),
]
# The operators a bound may name.
HOLDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
_CLOUD_VAULT = SYSTEMS[SystemKind.CLOUD_VAULT]
# A valid document of each record with bounds; the field under test replaces its value.
# The vault's one tier is tiny and free, so that block_gb and block_fee reach their
# limits without breaking the rules between the tiers and the blocks.  A sample's data
# and duration are the smallest float alike, so that either at its limit keeps the rate
# between them finite.
VALID = {
    Scenario: {
        "name": "tiny", "system": "cloud-vault", "restore_samples": "restore.csv",
        "job_logs": {agent.log: f"{agent.log}.csv" for agent in _CLOUD_VAULT.agents},
        "bia": {"agent": "a"},
    },
    BiaTargets: {"agent": "a"},
    ObjectStoreRates: {},
    TransactionCounts: {},
    VaultRates: {"instance_fee_tiers": [{"upper_gb": 1e-20, "fee": 0.0}], "block_gb": 1.0},
    SeriesSystem: {"components": [{"name": "c", "mtbf_h": 1.0}]},
    ReliabilityComponent: {"name": "c", "sla": 0.5},
    JobSample: {"day": 1, "data_mb": 5e-324, "duration_s": 5e-324},
    RestoreSample: {"source_tier": "Local", "data_mb": 5e-324, "duration_s": 5e-324},
}
# What else a field under test changes: a component gives one of mtbf_h and sla.
ALSO = {(ReliabilityComponent, "mtbf_h"): {"sla": None}}
KEY = _CLOUD_VAULT.rates[0].average  # a supplied average the cloud-vault scenario takes


def test_the_schema_declares_every_bound_of_the_input_records():
    # A bound added or dropped changes this count, and README's table of bounds.
    assert len({(b.record, b.name) for b in BOUNDS}) == 27
    assert all(b.kind in (float, int) and b.bounds for b in BOUNDS)


def _values(bound: Bound) -> list:
    """Each limit of ``bound`` and the nearest value of its kind on each side."""
    if bound.kind is int:
        return sorted({limit + step for _, limit in bound.bounds for step in (-1, 0, 1)})
    return sorted({
        side
        for _, limit in bound.bounds
        for side in (math.nextafter(limit, -math.inf), limit, math.nextafter(limit, math.inf))
    })


@pytest.mark.parametrize(
    "bound, value",
    [
        pytest.param(bound, value, id=f"{bound.record.__name__}.{bound.name}={value!r}")
        for bound in BOUNDS
        for value in _values(bound)
    ],
)
def test_each_bound_holds_at_its_limit_from_both_sides(bound, value):
    held = bound.kind(value)
    given = {KEY: value} if bound.keyed else value
    also = ALSO.get((bound.record, bound.name), {})
    document = {**VALID[bound.record], bound.name: given, **also}
    path = f"{bound.name}.{KEY}" if bound.keyed else bound.name
    broken = [(op, limit) for op, limit in bound.bounds if not HOLDS[op](held, limit)]
    # made in Python, and read from a document whose path goes in front
    for make, prefix in (
        (lambda: bound.record(**document), ""),
        (lambda: build(bound.record, document, "doc"), "doc."),
    ):
        if not broken:
            made = getattr(make(), bound.name)
            assert (made[KEY] if bound.keyed else made) == held
            continue
        op, limit = broken[0]
        with pytest.raises(DomainError) as excinfo:
            make()
        assert str(excinfo.value) == f"{prefix}{path} must be {op} {limit}, got {held}"


# Each exported helper that checks its arguments by declared types: valid arguments
# for it, and the bounds of each parameter it checks; ``values[0]`` is the first item
# of the list given as ``values``.
_VALID_RATE = Rate("r", 1.0, RateKind.THROUGHPUT, RateRole.BACKUP)
HELPERS = [
    (_VALID_RATE.time_s, {"data_mb": 1.0}, {"data_mb": ("> 0",)}),
    (series_reliability, {"values": [0.5]}, {"values[0]": (">= 0", "<= 1")}),
    (project, {"test_data_mb": 1.0, "rates": [_VALID_RATE]}, {"test_data_mb": ("> 0",)}),
    (hybrid_cloud_cost,
     {"tiered_gb": 1.0, "transactions": TransactionCounts(), "rates": ObjectStoreRates()},
     {"tiered_gb": (">= 0",)}),
    (vault_instance_fee, {"frontend_gb": 1.0, "rates": VaultRates()}, {"frontend_gb": (">= 0",)}),
    (cloud_vault_cost, {"frontend_gb": 1.0, "stored_gb": 1.0, "rates": VaultRates()},
     {"frontend_gb": (">= 0",), "stored_gb": (">= 0",)}),
    (mtd, {"rto_h": 1.0, "wrt_h": 1.0}, {"rto_h": (">= 0",), "wrt_h": (">= 0",)}),
    (component_reliability, {"mtbf_h": 1.0, "mission_h": 1.0},
     {"mtbf_h": ("> 0",), "mission_h": (">= 0",)}),
    (sla_to_mtbf, {"sla": 0.5, "reference_period_h": 1.0},
     {"sla": ("> 0", "< 1"), "reference_period_h": ("> 0",)}),
]
# The value of each bound's type just past it.
PAST = {"> 0": 0.0, ">= 0": -5e-324, "< 1": 1.0, "<= 1": 1.0000000000000002}
NOT_FINITE_OR_NOT_A_NUMBER = [
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
    (-math.inf, "must be finite, got -inf"),
    (True, "must be a number, got True"),
    ("1", "must be a number, got '1'"),
]


@pytest.mark.parametrize(
    "helper, arguments, name, value, line",
    [
        pytest.param(helper, arguments, name, value, f"{name} {words}",
                     id=f"{helper.__name__}-{name}={value!r}")
        for helper, arguments, checked in HELPERS
        for name, bounds in checked.items()
        for value, words in [
            *NOT_FINITE_OR_NOT_A_NUMBER,
            *((PAST[bound], f"must be {bound}, got {PAST[bound]}") for bound in bounds),
        ]
    ],
)
def test_each_helper_parameter_is_checked_as_a_record_field(helper, arguments, name, value, line):
    helper(**arguments)
    parameter = name.removesuffix("[0]")
    with pytest.raises(DomainError) as excinfo:
        helper(**{**arguments, parameter: [value] if parameter != name else value})
    assert str(excinfo.value) == line


def test_a_helper_reads_an_int_as_its_float_by_position_or_keyword():
    assert type(mtd(1, 2)) is float and mtd(rto_h=1, wrt_h=2) == 3.0
    for call in (lambda: _VALID_RATE.time_s(0), lambda: _VALID_RATE.time_s(data_mb=0)):
        with pytest.raises(DomainError) as excinfo:
            call()
        assert str(excinfo.value) == "data_mb must be > 0, got 0.0"


def test_series_reliability_names_the_item_it_refuses_and_takes_a_list_or_a_tuple():
    # as a record's tuple field does; an int item reads as its float
    assert series_reliability((0.5, 1, 0.0)) == 0.0
    with pytest.raises(DomainError) as excinfo:
        series_reliability([0.5, 1.2])
    assert str(excinfo.value) == "values[1] must be <= 1, got 1.2"
    # a value that is not a scalar is named by its type, so the line holds no address:
    # two generators alive at once, at two addresses, give one line
    messages = set()
    for generator in [(v for v in [0.5]) for _ in range(2)]:
        with pytest.raises(ConfigError) as excinfo:
            series_reliability(generator)
        messages.add(str(excinfo.value))
    assert messages == {"values must be a list, got generator"}
