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

``run`` compiles the period loop of a model's *shape* into one
straight-line Python function, its kernel, and calls it.  Kernels are cached
by shape, so every later model of that shape skips the compile:

- A shape holds, per component, one tuple: a kind code and the positions in
  ``Model.components`` of its ``depends``, ``inflows`` and ``outflows``; no
  name, unit, horizon, expression, series or initial level.  The kernel's
  source holds only generated identifiers and integer literals; names,
  expressions, series and levels reach it as arguments.  ``functools.lru_cache``
  keeps the 128 most recently used kernels.  The first run of a shape pays for
  the compile: about 0.4 ms for 10 components and 2 ms for 60.
- In each period the kernel reads the exogenous inputs into locals, calls
  each expression in evaluation order (converters in dependency order, then
  flows), and then updates each stock.  Every value, once computed, is
  written to its trajectory and stored into the scope of each expression
  that reads it, so a scope holds current values by the time it is read.
- A stock's new level is ``level + fold(inflows) - fold(outflows)``: each
  side is added left to right from ``0.0`` in flat ``+=`` statements,
  ``-0.0`` counting as ``0.0``, on every Python version (``sum()``
  compensates from 3.12).
- Each expression has one scope, a dict holding exactly its declared
  dependencies, passed to it as a read-only ``MappingProxyType``.  The scope
  knows its owner, the expression's component, and raises a ``ModelError``
  naming it on any name it does not hold, on every lookup (``[]``, ``get``,
  ``in``) and every call, so a read that a later period's branch makes is
  caught too.

The result keeps one tuple of floats per component
(``RunResult.trajectories``), read by name with ``RunResult.values``; the
final value is the last element.  ``RunResult.series`` shows the same
tuples as ``(period, value)`` pairs, built anew on each read.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
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
        # NaN fails the comparison, and so do the infinities and an int beyond float range
        if type(self.initial) not in (int, float) or not abs(self.initial) <= sys.float_info.max:
            raise ModelError(
                f"{self.kind.value} {self.name!r} initial must be a finite int or float,"
                f" got {self.initial!r}"
            )
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
        if type(self.horizon) is not int:
            raise ModelError(f"horizon must be an int, got {self.horizon!r}")
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
        return tuple(enumerate(self._trajectories[name], 1))

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


class _Scope(dict):
    """The values one expression may read: exactly its declared dependencies.

    ``run``'s kernel stores each dependency's value here as soon as it is computed.
    Any other name raises a ``ModelError`` naming ``owner``, the expression's
    component, on every lookup, whichever way it is made.
    """

    __slots__ = ("owner",)

    def __missing__(self, key):
        raise ModelError(f"{self.owner!r} read {key!r} without declaring it as a dependency")

    def get(self, key, default=None):
        # a declared name always holds a value, so ``default`` never applies
        return self[key]

    def __contains__(self, key):
        # a scope starts full of ``None``, so the lookup, not the value, is the test
        self[key]
        return True


def fold(values: Iterable[float]) -> float:
    """``0.0 + x1 + x2 + ...``, left to right; ``sum()`` compensates from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


# The kind codes of a shape (see ``_shape``).
_INPUT, _CONVERTER, _FLOW, _STOCK = range(4)
_CODES = {Kind.CONVERTER: _CONVERTER, Kind.FLOW: _FLOW, Kind.STOCK: _STOCK}
_Shape = tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]


def _shape(model: Model) -> _Shape:
    """A model's cache key: per component, its kind code and the positions of
    its ``depends``, of its ``inflows`` and of its ``outflows``."""
    at = {c.name: i for i, c in enumerate(model.components)}.__getitem__
    return tuple([
        (_INPUT if c.is_exogenous else _CODES[c.kind],
         tuple(map(at, c.depends)), tuple(map(at, c.inflows)), tuple(map(at, c.outflows)))
        for c in model.components
    ])


def _source(shape: _Shape) -> str:
    """The kernel of a shape as Python source.  The kernel calls converters
    first, in dependency order, then flows; a converter cycle raises
    ``CycleError`` with its positions.

    ``kernel(T, E, S, L, N, h)`` takes every trajectory (``T``, a tuple of
    floats for an input and a list of ``h`` zeros to fill otherwise), the
    expressions (``E``) and their scopes (``S``), the stocks' initial levels
    (``L``) and every name (``N``), each in component order, and the horizon.
    Component ``i`` has trajectory ``t{i}`` and name ``n{i}``; an expression
    has ``e{i}``, scope ``s{i}`` and view ``v{i}``.  Every component holds its
    current value in ``x{i}``.
    """
    kinds, depends, inflows, outflows = zip(*shape) if shape else ((), (), (), ())
    every = range(len(kinds))
    inputs = [i for i in every if kinds[i] == _INPUT]
    stocks = [i for i in every if kinds[i] == _STOCK]
    expressions = [i for i in every if kinds[i] in (_CONVERTER, _FLOW)]
    converters = [i for i in every if kinds[i] == _CONVERTER]
    graph = {i: {d for d in depends[i] if kinds[d] == _CONVERTER} for i in converters}
    order = (*TopologicalSorter(graph).static_order(), *(i for i in every if kinds[i] == _FLOW))
    readers = [[] for _ in every]
    for i in expressions:
        for d in dict.fromkeys(depends[i]):
            readers[d].append(i)

    def unpack(prefix: str, positions: Sequence[int], value: str) -> list[str]:
        return [f"{''.join(f'{prefix}{i}, ' for i in positions)}= {value}"] if positions else []

    def store(i: int) -> str:
        return "".join(f"; s{r}[n{i}] = x{i}" for r in readers[i])

    def add(total: str, flows: tuple[int, ...]) -> str:
        return "".join([f"{total} = 0.0", *(f"; {total} += x{f}" for f in flows)])

    prologue = [
        *unpack("t", every, "T"),
        *unpack("e", expressions, "E"),
        *unpack("s", expressions, "S"),
        *unpack("v", expressions, "map(MappingProxyType, S)"),
        *unpack("x", stocks, "L"),
        *unpack("n", every, "N"),
    ]
    lines = [
        "def kernel(T, E, S, L, N, h, fl=float):",
        f"    {'; '.join(prologue) or 'pass'}{''.join(store(i) for i in stocks)}",
        "    for p in range(h):",
        f"        {'; '.join(f'x{i} = t{i}[p]{store(i)}' for i in inputs) or 'pass'}",
        *(f"        x{i} = fl(e{i}(v{i})); t{i}[p] = x{i}{store(i)}" for i in order),
        *(
            f"        {add('a', inflows[i])}; {add('b', outflows[i])}"
            f"; x{i} = x{i} + a - b; t{i}[p] = x{i}{store(i)}"
            for i in stocks
        ),
    ]
    return "\n".join(lines) + "\n"


@lru_cache
def _kernel(shape: _Shape) -> Callable[..., None]:
    """The compiled kernel of a shape (see ``_source``)."""
    namespace = {"MappingProxyType": MappingProxyType}
    exec(compile(_source(shape), "<drperf.engine kernel>", "exec"), namespace)
    return namespace["kernel"]


def run(model: Model) -> RunResult:
    """Evaluate the model over its horizon; same model, same result, always."""
    components, horizon = model.components, model.horizon
    names = tuple(c.name for c in components)
    try:
        kernel = _kernel(_shape(model))
    except CycleError as exc:
        cycle = [names[i] for i in exc.args[1]]
        raise ModelError(f"cyclic converter dependencies: {cycle}") from None
    trajectories = {
        c.name: tuple(map(float, model.exogenous[c.name])) if c.is_exogenous else [0.0] * horizon
        for c in components
    }
    expressions = [c for c in components if c.expression is not None]
    scopes = [_Scope.fromkeys(c.depends) for c in expressions]
    for scope, c in zip(scopes, expressions):
        scope.owner = c.name
    kernel(
        tuple(trajectories.values()),
        [c.expression for c in expressions],
        scopes,
        [float(c.initial) for c in components if c.kind is Kind.STOCK],
        names,
        horizon,
    )
    return RunResult(
        digest=model.digest(),
        trajectories={name: tuple(values) for name, values in trajectories.items()},
    )
