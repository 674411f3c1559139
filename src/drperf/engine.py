"""Deterministic discrete-time stock-and-flow simulation engine.

A model is a set of named components evaluated once per period:

1. exogenous components take their value from the model's input series,
2. converters are evaluated in dependency order,
3. flows are evaluated,
4. stocks update as stock(p) = stock(p-1) + inflows(p) - outflows(p).

Converters may read previous-period stocks, exogenous inputs, and other
converters.  Flows may additionally read converters but never other
flows.  Expressions must be pure; they receive exactly their declared
dependencies, so an undeclared read fails loudly.

``run`` first compiles the model into a flat plan, then runs a period loop
that allocates no dict, no scope and no list:

- Each expression has one scope, a dict holding exactly its declared
  dependencies, passed to it as a read-only ``MappingProxyType``.
- Every trajectory list is allocated in full before the loop and written
  by period index.  A stock's list holds one element more, its initial
  level at index 0: the period at ``index`` reads the level at ``index``
  and writes the new one at ``index + 1``.  Element 0 is dropped before
  the result is built.
- Each stock has two slot lists, ``ins`` and ``outs``, with one slot per
  entry of its ``inflows`` and ``outflows`` (a flow named twice fills two
  slots); a side with no flow reads a shared ``[0.0]`` slot that nothing
  writes.  Its new level is ``level + fold(ins) - fold(outs)``: each side
  added left to right from ``0.0``, ``-0.0`` counting as ``0.0``, on every
  Python version (``sum()`` compensates from 3.12).  With at most one flow
  a side, that is ``level + (0.0 + ins[0]) - (0.0 + outs[0])``.
- A readers table lists, per name, the ``(container, key)`` pairs that
  hold that name: ``(scope, name)`` for a scope, ``(ins or outs, position)``
  for a stock.  Every value, once computed (an input, a converter, a flow,
  or a stock after its update), is stored into each of them: straight into
  the one pair when it has exactly one reader, by a loop over its list
  otherwise.  So a scope or a slot always holds current values by the time
  it is read.
- A scope raises on any name it does not hold, on every lookup (``[]``,
  ``get``, ``in``) and every call, so a read that a later period's branch
  makes is caught too; ``run`` reports it as a ``ModelError`` naming the
  expression's owner.

The result keeps one tuple of floats per component
(``RunResult.trajectories``), read by name with ``RunResult.values``; the
final value is the last element.  ``RunResult.series`` shows the same
tuples as ``(period, value)`` pairs, built anew on each read.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from types import MappingProxyType

from .errors import ModelError

Expression = Callable[[Mapping[str, float]], float]


class Kind(str, Enum):
    STOCK = "stock"
    FLOW = "flow"
    CONVERTER = "converter"


@dataclass(frozen=True)
class ModelComponent:
    """One named node of a model.

    Stocks declare an initial value plus inflow/outflow names.  Flows and
    converters declare either an expression over ``depends`` or nothing,
    in which case their values come from the model's exogenous series.
    """

    name: str
    kind: Kind
    unit: str = ""
    expression: Expression | None = None
    depends: tuple[str, ...] = ()
    initial: float = 0.0
    inflows: tuple[str, ...] = ()
    outflows: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ModelError("component name must be non-empty")
        if self.kind is Kind.STOCK:
            if self.expression is not None or self.depends:
                raise ModelError(f"stock {self.name!r} cannot carry an expression")
            if not self.inflows and not self.outflows:
                raise ModelError(f"stock {self.name!r} has no attached flows")
        else:
            if self.inflows or self.outflows:
                raise ModelError(f"{self.kind.value} {self.name!r} cannot declare flows")
            if self.expression is None and self.depends:
                raise ModelError(f"exogenous {self.name!r} cannot declare dependencies")

    @property
    def is_exogenous(self) -> bool:
        return self.kind is not Kind.STOCK and self.expression is None


@dataclass(frozen=True)
class Model:
    """An immutable model: components, horizon, and exogenous input series.

    Exogenous series are indexed by period (element 0 is period 1) and
    hold exactly one value per period of the horizon; any other length is
    rejected.  ``meta`` holds builder bookkeeping and must stay
    JSON-serializable so it can feed the configuration digest.
    """

    name: str
    components: tuple[ModelComponent, ...]
    horizon: int
    exogenous: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 1:
            raise ModelError(f"horizon must be >= 1, got {self.horizon}")
        names = [c.name for c in self.components]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ModelError(f"duplicate component names: {dupes}")
        by_name = {c.name: c for c in self.components}
        for comp in self.components:
            for dep in comp.depends:
                if dep not in by_name:
                    raise ModelError(f"{comp.name!r} depends on unknown component {dep!r}")
            for flow_name in comp.inflows + comp.outflows:
                flow = by_name.get(flow_name)
                if flow is None:
                    raise ModelError(f"stock {comp.name!r} references unknown flow {flow_name!r}")
                if flow.kind is not Kind.FLOW:
                    raise ModelError(f"stock {comp.name!r} attaches non-flow {flow_name!r}")
            if comp.kind is Kind.CONVERTER:
                for dep in comp.depends:
                    if by_name[dep].kind is Kind.FLOW:
                        raise ModelError(
                            f"converter {comp.name!r} cannot depend on flow {dep!r}"
                        )
            if comp.kind is Kind.FLOW:
                for dep in comp.depends:
                    if by_name[dep].kind is Kind.FLOW and not by_name[dep].is_exogenous:
                        raise ModelError(f"flow {comp.name!r} cannot depend on flow {dep!r}")
        for name, series in self.exogenous.items():
            comp = by_name.get(name)
            if comp is None:
                raise ModelError(f"exogenous series for unknown component {name!r}")
            if not comp.is_exogenous:
                raise ModelError(f"component {name!r} has an expression; it cannot be exogenous")
            if len(series) != self.horizon:
                raise ModelError(
                    f"series for {name!r} has {len(series)} entries, horizon is {self.horizon}"
                )
        for comp in self.components:
            if comp.is_exogenous and comp.name not in self.exogenous:
                raise ModelError(f"no exogenous series supplied for {comp.name!r}")

    def component(self, name: str) -> ModelComponent:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise ModelError(f"model {self.name!r} has no component {name!r}")

    def digest(self) -> str:
        """Configuration digest over structure, inputs, and meta (not code)."""
        doc = {
            "name": self.name,
            "horizon": self.horizon,
            "components": [
                {
                    "name": c.name,
                    "kind": c.kind.value,
                    "unit": c.unit,
                    "depends": list(c.depends),
                    "initial": c.initial,
                    "inflows": list(c.inflows),
                    "outflows": list(c.outflows),
                    "exogenous": c.is_exogenous,
                }
                for c in sorted(self.components, key=lambda c: c.name)
            ],
            "exogenous": {k: list(v) for k, v in sorted(self.exogenous.items())},
            "meta": self.meta,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


class _Series(Mapping[str, tuple[tuple[int, float], ...]]):
    """Read-only ``(period, value)`` pairs over a run's trajectories, built per read."""

    __slots__ = ("_trajectories",)

    def __init__(self, trajectories: Mapping[str, tuple[float, ...]]):
        self._trajectories = trajectories

    def __getitem__(self, name: str) -> tuple[tuple[int, float], ...]:
        values = self._trajectories[name]
        return tuple(zip(range(1, len(values) + 1), values))

    def __iter__(self):
        return iter(self._trajectories)

    def __len__(self):
        return len(self._trajectories)


@dataclass(frozen=True)
class RunResult:
    """Trajectories of every component, one value per period (element 0 is period 1).

    ``values(name)`` is the checked read of one trajectory.  ``series`` shows
    the same trajectories as ``(period, value)`` pairs, building a new tuple
    of pairs on each read of ``series[name]``.
    """

    digest: str
    trajectories: Mapping[str, tuple[float, ...]]

    @property
    def series(self) -> Mapping[str, tuple[tuple[int, float], ...]]:
        return _Series(self.trajectories)

    def values(self, name: str) -> tuple[float, ...]:
        try:
            return self.trajectories[name]
        except KeyError:
            raise ModelError(f"run has no series {name!r}") from None


class _UndeclaredRead(Exception):
    """An expression read a name it did not declare; ``run`` names the owner."""


class _Scope(dict):
    """The values one expression may read: exactly its declared dependencies.

    ``run`` stores each dependency's value here as soon as it is computed.
    Any other name raises on every lookup, whichever way it is made.
    """

    def __missing__(self, key):
        raise _UndeclaredRead(key)

    def get(self, key, default=None):
        # a declared name always holds a value, so ``default`` never applies
        return self[key]

    def __contains__(self, key):
        if not dict.__contains__(self, key):
            raise _UndeclaredRead(key)
        return True


def fold(values: Iterable[float]) -> float:
    """``0.0 + x1 + x2 + ...``, left to right; ``sum()`` compensates from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _converter_order(model: Model) -> list[ModelComponent]:
    """Converters sorted so dependencies come first; cycles are an error."""
    converters = {c.name: c for c in model.components if c.kind is Kind.CONVERTER}
    graph = {
        name: {d for d in comp.depends if d in converters}
        for name, comp in converters.items()
    }
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise ModelError(f"cyclic converter dependencies: {exc.args[1]}") from exc
    return [converters[name] for name in order]


def _stores(readers: list[tuple[dict | list, str | int]]) -> tuple:
    """Where a value goes: ``(container, key, None)`` when it has exactly one
    reader, stored straight there; ``(None, None, readers)`` otherwise."""
    if len(readers) == 1:
        return (*readers[0], None)
    return None, None, readers


def run(model: Model) -> RunResult:
    """Evaluate the model over its horizon; same model, same result, always."""
    order = _converter_order(model)
    horizon = model.horizon

    # The plan (see the module docstring): ``readers[name]`` lists the
    # ``(container, key)`` pairs that each new value of ``name`` is stored into.
    readers: dict[str, list[tuple[dict | list, str | int]]] = {
        c.name: [] for c in model.components
    }
    trajectories: dict[str, Sequence[float]] = {}
    inputs, expressions, stocks = [], {}, []
    for comp in model.components:
        name = comp.name
        if comp.is_exogenous:
            trajectories[name] = tuple(map(float, model.exogenous[name]))
            inputs.append(name)
        elif comp.kind is Kind.STOCK:
            # Element 0 holds the initial level; it is dropped below.
            trajectories[name] = values = [float(comp.initial)] * (horizon + 1)
            ins, outs = [0.0] * len(comp.inflows), [0.0] * len(comp.outflows)
            for slots, flow_names in ((ins, comp.inflows), (outs, comp.outflows)):
                for position, flow in enumerate(flow_names):
                    readers[flow].append((slots, position))
            stocks.append((name, ins, outs, values))
        else:
            trajectories[name] = values = [0.0] * horizon
            scope = _Scope.fromkeys(comp.depends)
            for dep in scope:
                readers[dep].append((scope, dep))
            view = MappingProxyType(scope)
            expressions[name] = (name, comp.expression, view, values)
    inputs = [(trajectories[name], *_stores(readers[name])) for name in inputs]
    flows = [c for c in model.components if c.kind is Kind.FLOW]
    evaluations = [
        (*expressions[c.name], *_stores(readers[c.name]))
        for c in order + flows
        if c.name in expressions
    ]
    no_flow = [0.0]  # the slot a stock side without flows reads; nothing writes it
    one_flow, several_flows = [], []
    for name, ins, outs, values in stocks:
        for target, key in readers[name]:
            target[key] = values[0]
        plan = one_flow if len(ins) <= 1 and len(outs) <= 1 else several_flows
        plan.append((ins or no_flow, outs or no_flow, values, *_stores(readers[name])))

    for index in range(horizon):
        for values, target, key, targets in inputs:
            value = values[index]
            if targets is None:
                target[key] = value
            else:
                for other, other_key in targets:
                    other[other_key] = value
        for name, expression, view, values, target, key, targets in evaluations:
            try:
                value = float(expression(view))
            except _UndeclaredRead as exc:
                raise ModelError(
                    f"{name!r} read {exc.args[0]!r} without declaring it as a dependency"
                ) from None
            values[index] = value
            if targets is None:
                target[key] = value
            else:
                for other, other_key in targets:
                    other[other_key] = value
        after = index + 1
        for ins, outs, values, target, key, targets in one_flow:
            value = values[index] + (0.0 + ins[0]) - (0.0 + outs[0])
            values[after] = value
            if targets is None:
                target[key] = value
            else:
                for other, other_key in targets:
                    other[other_key] = value
        for ins, outs, values, target, key, targets in several_flows:
            inflow = outflow = 0.0  # ``fold`` inline
            for flow in ins:
                inflow += flow
            for flow in outs:
                outflow += flow
            value = values[index] + inflow - outflow
            values[after] = value
            if targets is None:
                target[key] = value
            else:
                for other, other_key in targets:
                    other[other_key] = value

    for _, _, _, values in stocks:
        del values[0]
    return RunResult(
        digest=model.digest(),
        trajectories={name: tuple(values) for name, values in trajectories.items()},
    )
