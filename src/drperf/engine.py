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
that allocates no dict and no scope:

- Each expression has one scope, a dict holding exactly its declared
  dependencies, passed to it as a read-only ``MappingProxyType``.
- Each stock has two slot lists, ``ins`` and ``outs``, with one slot per
  entry of its ``inflows`` and ``outflows`` (a flow named twice fills two
  slots).  Its level is the last element of its own trajectory list, which
  starts with the initial value; that value is dropped before the result
  is built.  A stock updates as ``level + sum(ins) - sum(outs)``.
- A readers table lists, per name, the ``(container, key)`` pairs that
  hold that name: ``(scope, name)`` for a scope, ``(ins or outs, position)``
  for a stock.  Every value, once computed (an input, a converter, a flow,
  or a stock after its update), is stored into each of them by one loop,
  so a scope or a slot always holds current values by the time it is read.
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
from collections.abc import Callable, Mapping, Sequence
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
        by_name = self.by_name
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

    @property
    def by_name(self) -> dict[str, ModelComponent]:
        return {c.name: c for c in self.components}

    def component(self, name: str) -> ModelComponent:
        try:
            return self.by_name[name]
        except KeyError:
            raise ModelError(f"model {self.name!r} has no component {name!r}") from None

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


def run(model: Model) -> RunResult:
    """Evaluate the model over its horizon; same model, same result, always."""
    order = _converter_order(model)

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
            trajectories[name] = values = tuple(map(float, model.exogenous[name]))
            inputs.append((values, readers[name]))
        elif comp.kind is Kind.STOCK:
            # The level is the trajectory's last element; the initial one is dropped below.
            trajectories[name] = values = [float(comp.initial)]
            ins, outs = [0.0] * len(comp.inflows), [0.0] * len(comp.outflows)
            for slots, flow_names in ((ins, comp.inflows), (outs, comp.outflows)):
                for position, flow in enumerate(flow_names):
                    readers[flow].append((slots, position))
            stocks.append((ins, outs, values, readers[name]))
        else:
            trajectories[name] = values = []
            scope = _Scope.fromkeys(comp.depends)
            for dep in scope:
                readers[dep].append((scope, dep))
            view = MappingProxyType(scope)
            expressions[name] = (name, comp.expression, view, values.append, readers[name])
    for _, _, values, targets in stocks:
        for target, key in targets:
            target[key] = values[-1]
    flows = [c for c in model.components if c.kind is Kind.FLOW]
    evaluations = [expressions[c.name] for c in order + flows if c.name in expressions]

    for index in range(model.horizon):
        for values, targets in inputs:
            value = values[index]
            for target, key in targets:
                target[key] = value
        for name, expression, view, append, targets in evaluations:
            try:
                value = float(expression(view))
            except _UndeclaredRead as exc:
                raise ModelError(
                    f"{name!r} read {exc.args[0]!r} without declaring it as a dependency"
                ) from None
            append(value)
            for target, key in targets:
                target[key] = value
        for ins, outs, values, targets in stocks:
            value = values[-1] + sum(ins) - sum(outs)
            values.append(value)
            for target, key in targets:
                target[key] = value

    for _, _, values, _ in stocks:
        del values[0]
    return RunResult(
        digest=model.digest(),
        trajectories={name: tuple(values) for name, values in trajectories.items()},
    )
