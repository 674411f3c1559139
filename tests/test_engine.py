from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from drperf.engine import Kind, Model, ModelComponent, _kernel, _shape, _source, fold, run
from drperf.errors import ModelError

from .oracles import left_sum, reference_run


def accumulator(horizon=5, inflow=(1.0,) * 5):
    return Model(
        name="accumulator",
        components=(
            ModelComponent("Inflow", Kind.FLOW, unit="MB"),
            ModelComponent("Tank", Kind.STOCK, unit="MB", inflows=("Inflow",)),
        ),
        horizon=horizon,
        exogenous={"Inflow": tuple(inflow)},
    )


class TestRun:
    def test_unit_accumulation(self):
        result = run(accumulator())
        assert result.values("Tank") == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_matched_in_and_outflow_conserves_the_stock(self):
        model = Model(
            name="steady",
            components=(
                ModelComponent("In", Kind.FLOW),
                ModelComponent("Out", Kind.FLOW),
                ModelComponent(
                    "Level", Kind.STOCK, initial=10.0, inflows=("In",), outflows=("Out",)
                ),
            ),
            horizon=4,
            exogenous={"In": (3.0,) * 4, "Out": (3.0,) * 4},
        )
        assert run(model).values("Level") == (10.0,) * 4

    def test_converter_chain_and_flow(self):
        model = Model(
            name="chain",
            components=(
                ModelComponent("Raw", Kind.CONVERTER),
                ModelComponent(
                    "Double",
                    Kind.CONVERTER,
                    expression=lambda v: 2 * v["Raw"],
                    depends=("Raw",),
                ),
                ModelComponent(
                    "Feed",
                    Kind.FLOW,
                    expression=lambda v: v["Double"],
                    depends=("Double",),
                ),
                ModelComponent("Level", Kind.STOCK, inflows=("Feed",)),
            ),
            horizon=3,
            exogenous={"Raw": (1.0, 2.0, 3.0)},
        )
        result = run(model)
        assert result.values("Double") == (2.0, 4.0, 6.0)
        assert result.values("Level") == (2.0, 6.0, 12.0)

    def test_converter_reads_previous_period_stock(self):
        model = Model(
            name="observer",
            components=(
                ModelComponent("Inflow", Kind.FLOW),
                ModelComponent("Tank", Kind.STOCK, inflows=("Inflow",)),
                ModelComponent(
                    "Seen",
                    Kind.CONVERTER,
                    expression=lambda v: v["Tank"],
                    depends=("Tank",),
                ),
            ),
            horizon=3,
            exogenous={"Inflow": (5.0, 5.0, 5.0)},
        )
        # converters run before the stock update, so they see the old level
        assert run(model).values("Seen") == (0.0, 5.0, 10.0)

    def test_determinism(self):
        model = accumulator(inflow=(0.1, 0.7, 1.3, 2.9, 0.05))
        first, second = run(model), run(model)
        assert first.trajectories == second.trajectories
        assert first.digest == second.digest


# Each way an expression can look a name up in its view.
UNDECLARED_READS = [
    pytest.param(lambda v, name: v[name], id="getitem"),
    pytest.param(lambda v, name: v.get(name), id="get"),
    pytest.param(lambda v, name: name in v, id="contains"),
]


class TestValidation:
    def test_short_and_long_series_are_rejected(self):
        for entries in (2, 5):
            with pytest.raises(ModelError, match=f"'Inflow' has {entries} entries, horizon is 4"):
                accumulator(horizon=4, inflow=(2.0,) * entries)

    def test_duplicate_names(self):
        # each repeated name once, sorted; a name that is not repeated is not listed
        with pytest.raises(ModelError) as excinfo:
            Model(
                name="dupes",
                components=tuple(
                    ModelComponent(name, Kind.CONVERTER) for name in ("Y", "X", "Z", "X", "Y", "X")
                ),
                horizon=1,
                exogenous={"X": (1.0,), "Y": (1.0,), "Z": (1.0,)},
            )
        assert str(excinfo.value) == "duplicate component names: ['X', 'Y']"

    def test_unknown_dependency(self):
        with pytest.raises(ModelError, match="unknown component"):
            Model(
                name="bad",
                components=(
                    ModelComponent(
                        "A", Kind.CONVERTER, expression=lambda v: v["B"], depends=("B",)
                    ),
                ),
                horizon=1,
            )

    def test_stock_must_attach_flows(self):
        with pytest.raises(ModelError, match="non-flow"):
            Model(
                name="bad",
                components=(
                    ModelComponent("C", Kind.CONVERTER),
                    ModelComponent("S", Kind.STOCK, inflows=("C",)),
                ),
                horizon=1,
                exogenous={"C": (1.0,)},
            )

    def test_converter_cannot_depend_on_flow(self):
        with pytest.raises(ModelError, match="cannot depend on flow"):
            Model(
                name="bad",
                components=(
                    ModelComponent("F", Kind.FLOW),
                    ModelComponent(
                        "C", Kind.CONVERTER, expression=lambda v: v["F"], depends=("F",)
                    ),
                    ModelComponent("S", Kind.STOCK, inflows=("F",)),
                ),
                horizon=1,
                exogenous={"F": (1.0,)},
            )

    @pytest.mark.parametrize("side", ["inflows", "outflows"])
    @pytest.mark.parametrize("kind", [Kind.CONVERTER, Kind.FLOW], ids=lambda k: k.value)
    def test_only_a_stock_declares_flows(self, kind, side):
        with pytest.raises(ModelError) as excinfo:
            ModelComponent("C", kind, **{side: ("F",)})
        assert str(excinfo.value) == f"{kind.value} 'C' cannot declare flows"

    def test_a_flow_may_read_an_exogenous_flow_and_no_other(self):
        def model(feed):
            return Model("flows", (
                feed,
                ModelComponent("Drain", Kind.FLOW, expression=lambda v: v["Feed"] / 2,
                               depends=("Feed",)),
                ModelComponent("Tank", Kind.STOCK, inflows=("Feed",), outflows=("Drain",)),
            ), 2, {} if feed.expression else {"Feed": (2.0, 4.0)})

        assert run(model(ModelComponent("Feed", Kind.FLOW))).values("Tank") == (1.0, 3.0)
        with pytest.raises(ModelError) as excinfo:
            model(ModelComponent("Feed", Kind.FLOW, expression=lambda v: 2.0))
        assert str(excinfo.value) == "flow 'Drain' cannot depend on flow 'Feed'"

    def test_a_component_is_found_by_name(self):
        model = accumulator()
        assert model.component("Inflow") is model.components[0]
        assert model.component("Tank") is model.components[1]
        with pytest.raises(ModelError) as excinfo:
            model.component("Nope")
        assert str(excinfo.value) == "model 'accumulator' has no component 'Nope'"

    def test_cycle_detection(self):
        model = Model(
            name="loop",
            components=(
                ModelComponent(
                    "A", Kind.CONVERTER, expression=lambda v: v["B"], depends=("B",)
                ),
                ModelComponent(
                    "B", Kind.CONVERTER, expression=lambda v: v["A"], depends=("A",)
                ),
            ),
            horizon=1,
        )
        # no kernel is cached for a cyclic shape, so every run finds the cycle again
        for _ in range(2):
            with pytest.raises(ModelError) as excinfo:
                run(model)
            assert str(excinfo.value) == "cyclic converter dependencies: ['A', 'B', 'A']"

    @pytest.mark.parametrize("from_period", [1, 3])
    @pytest.mark.parametrize("kind", [Kind.CONVERTER, Kind.FLOW], ids=lambda k: k.value)
    @pytest.mark.parametrize("read", UNDECLARED_READS)
    def test_undeclared_read_fails_loudly(self, read, kind, from_period):
        # the check holds on every call: this read first happens in a later period
        periods = []

        def expression(v):
            periods.append(v["T"])
            return float(read(v, "X")) if v["T"] >= from_period else 0.0

        model = Model(
            name="sneaky",
            components=(
                ModelComponent("X", Kind.CONVERTER),
                ModelComponent("T", Kind.CONVERTER),
                ModelComponent("Y", kind, expression=expression, depends=("T",)),
            ),
            horizon=4,
            exogenous={"X": (1.0,) * 4, "T": (1.0, 2.0, 3.0, 4.0)},
        )
        with pytest.raises(ModelError, match="^'Y' read 'X' without declaring"):
            run(model)
        assert periods[-1] == from_period

    def test_expressions_get_a_read_only_mapping_of_their_dependencies(self):
        views = []
        model = Model(
            name="views",
            components=(
                ModelComponent("X", Kind.CONVERTER),
                ModelComponent("Y", Kind.CONVERTER, expression=lambda v: 0.0),
                ModelComponent(
                    "Z",
                    Kind.CONVERTER,
                    expression=lambda v: views.append(v) or v["X"] + v["Y"],
                    depends=("X", "Y"),
                ),
            ),
            horizon=2,
            exogenous={"X": (1.0, 2.0)},
        )
        assert run(model).values("Z") == (1.0, 2.0)
        view = views[-1]
        assert isinstance(view, Mapping)
        assert dict(view) == {"X": 2.0, "Y": 0.0}
        assert view.get("X") == 2.0 and "Y" in view
        with pytest.raises(TypeError):
            view["X"] = 5.0

    def test_series_longer_than_horizon_rejected(self):
        with pytest.raises(ModelError, match="horizon"):
            accumulator(horizon=2, inflow=(1.0, 2.0, 3.0))

    def test_missing_series_rejected(self):
        with pytest.raises(ModelError, match="no exogenous series"):
            Model(
                name="bad",
                components=(
                    ModelComponent("F", Kind.FLOW),
                    ModelComponent("S", Kind.STOCK, inflows=("F",)),
                ),
                horizon=1,
            )

    def test_series_for_expression_component_rejected(self):
        with pytest.raises(ModelError, match="cannot be exogenous"):
            Model(
                name="bad",
                components=(
                    ModelComponent("C", Kind.CONVERTER, expression=lambda v: 1.0),
                ),
                horizon=1,
                exogenous={"C": (1.0,)},
            )

    @pytest.mark.parametrize(
        "horizon, words",
        [(2.0, "an int, got 2.0"), (True, "an int, got True"), ("3", "an int, got '3'"),
         (None, "an int, got None"), (0, ">= 1, got 0"), (-2, ">= 1, got -2")],
    )
    def test_horizon_must_be_an_int_of_at_least_one(self, horizon, words):
        with pytest.raises(ModelError) as excinfo:
            accumulator(horizon=horizon, inflow=())
        assert str(excinfo.value) == f"horizon must be {words}"

    @pytest.mark.parametrize(
        "initial", ["5", True, False, None, math.nan, math.inf, -math.inf, 10**400, 1j]
    )
    @pytest.mark.parametrize("kind", [Kind.STOCK, Kind.CONVERTER], ids=lambda k: k.value)
    def test_initial_must_be_a_finite_int_or_float(self, kind, initial):
        flows = {"inflows": ("F",)} if kind is Kind.STOCK else {}
        with pytest.raises(ModelError) as excinfo:
            ModelComponent("C", kind, initial=initial, **flows)
        assert str(excinfo.value) == (
            f"{kind.value} 'C' initial must be a finite int or float, got {initial!r}"
        )

    @pytest.mark.parametrize("initial", [5, -2.5, 0, 2**1023, 1.7976931348623157e308])
    def test_a_finite_int_or_float_initial_starts_the_stock(self, initial):
        model = Model("start", (
            ModelComponent("F", Kind.FLOW),
            ModelComponent("Tank", Kind.STOCK, initial=initial, inflows=("F",)),
        ), 2, {"F": (0.0, 0.0)})
        assert run(model).values("Tank") == (float(initial),) * 2

    def test_stock_cannot_carry_expression(self):
        with pytest.raises(ModelError, match="expression"):
            ModelComponent("S", Kind.STOCK, expression=lambda v: 0.0, inflows=("F",))


class TestRunResult:
    def test_components_models_and_results_are_immutable(self):
        model = accumulator()
        result = run(model)
        for record, name in ((model.components[1], "initial"), (model, "horizon"),
                             (result, "digest")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))

    def test_accessors(self):
        result = run(accumulator())
        assert result.values("Tank") is result.trajectories["Tank"]
        assert result.values("Tank")[-1] == 5.0  # the final value comes last
        assert result.series["Tank"][0] == (1, 1.0)

    def test_bad_lookups(self):
        result = run(accumulator())
        with pytest.raises(ModelError, match="run has no series 'Nope'"):
            result.values("Nope")

    def test_every_series_covers_the_horizon(self):
        result = run(accumulator())
        assert all(len(series) == 5 for series in result.series.values())

    def test_series_is_a_read_only_view_of_every_component(self):
        result = run(accumulator())
        assert list(result.series) == ["Inflow", "Tank"]
        assert len(result.series) == 2
        with pytest.raises(TypeError):
            result.series["Tank"] = ()

    def test_series_pairs_each_period_with_its_value(self):
        model = accumulator(inflow=(1.0, 0.5, 2.0, 0.0, 0.0))
        result = run(model)
        assert result.trajectories["Tank"] == (1.0, 1.5, 3.5, 3.5, 3.5)
        for name in result.series:
            pairs = tuple(zip(range(1, model.horizon + 1), result.values(name)))
            assert result.series[name] == pairs


class TestDigest:
    def test_sensitive_to_inputs(self):
        base = accumulator().digest()
        changed = accumulator(inflow=(1.0, 1.0, 1.0, 1.0, 2.0)).digest()
        assert base != changed

    def test_stable_for_equal_models(self):
        assert accumulator().digest() == accumulator().digest()


def _expression(kind, names, a, b):
    """A bounded expression over one or two declared names."""
    x, y = names[0], names[-1]
    if kind == "linear":
        return lambda v: a * v[x] + b * v[y]
    if kind == "damp":
        return lambda v: a * v[x] / (1.0 + abs(v[y]))
    if kind == "gate":  # reads x only in the periods where y is positive
        return lambda v: v[x] if v[y] > 0 else b
    return lambda v: a * v[x] / (1.0 + abs(v[x]) / 100.0)  # saturate


@st.composite
def engine_models(draw):
    """Random shapes: exogenous converters and flows, acyclic converter chains
    that may read stocks, expression flows, stocks with several inflows and
    outflows or with outflows only, and exogenous series of one value per period."""
    horizon = draw(st.integers(1, 12))
    number = st.floats(-50.0, 50.0).map(lambda x: round(x, 3)) | st.just(-0.0)
    coefficient = st.floats(-1.0, 1.0).map(lambda x: round(x, 3))
    kinds = st.sampled_from(["linear", "damp", "gate", "saturate"])
    exogenous = {}

    def series(name):
        exogenous[name] = tuple(draw(st.lists(number, min_size=horizon, max_size=horizon)))

    def expression_component(name, kind, readable):
        names = tuple(draw(st.lists(st.sampled_from(readable), min_size=1, max_size=2)))
        expression = _expression(draw(kinds), names, draw(coefficient), draw(coefficient))
        return ModelComponent(name, kind, expression=expression, depends=names)

    stocks = [f"S{i}" for i in range(draw(st.integers(1, 3)))]
    inputs = [f"X{i}" for i in range(draw(st.integers(1, 3)))]
    components = [ModelComponent(name, Kind.CONVERTER) for name in inputs]
    for name in inputs:
        series(name)
    readable = inputs + stocks
    for i in range(draw(st.integers(0, 5))):
        components.append(expression_component(f"C{i}", Kind.CONVERTER, readable))
        readable.append(f"C{i}")
    flows = []
    for i in range(draw(st.integers(0, 2))):
        flows.append(f"E{i}")
        components.append(ModelComponent(f"E{i}", Kind.FLOW))
        series(f"E{i}")
    flow_readable = readable + flows
    for i in range(draw(st.integers(1, 4))):
        flows.append(f"F{i}")
        components.append(expression_component(f"F{i}", Kind.FLOW, flow_readable))
    for name in stocks:
        inflows = draw(st.lists(st.sampled_from(flows), max_size=3))
        outflows = draw(st.lists(st.sampled_from(flows), min_size=0 if inflows else 1, max_size=2))
        components.append(
            ModelComponent(
                name,
                Kind.STOCK,
                initial=draw(number),
                inflows=tuple(inflows),
                outflows=tuple(outflows),
            )
        )
    return Model(
        name="generated",
        components=tuple(draw(st.permutations(components))),
        horizon=horizon,
        exogenous=exogenous,
    )


def _bits(result) -> dict[str, tuple[str, ...]]:
    """Every trajectory value as ``float.hex``, so ``-0.0`` and ``0.0`` differ."""
    return {name: tuple(map(float.hex, values)) for name, values in result.trajectories.items()}


class TestAgainstReferenceRun:
    @given(model=engine_models())
    @settings(max_examples=200, deadline=None)
    def test_same_series_digest_and_conserved_stocks(self, model):
        result = run(model)
        reference = reference_run(model)
        assert _bits(result) == _bits(reference)
        # a renamed copy has the same shape, so it runs the same kernel to the same values
        rename = lambda name: f"{name}'\n✓"
        renamed = _renamed(model, rename)
        assert _shape(renamed) == _shape(model)
        assert _bits(run(renamed)) == {rename(name): bits for name, bits in _bits(result).items()}
        assert result.series == reference.series
        assert result.digest == reference.digest
        for comp in model.components:
            if comp.kind is not Kind.STOCK:
                continue
            level = comp.initial
            for index in range(model.horizon):
                inflow = left_sum(result.values(f)[index] for f in comp.inflows)
                outflow = left_sum(result.values(f)[index] for f in comp.outflows)
                level = level + inflow - outflow
                assert math.isfinite(level)
                assert result.values(comp.name)[index] == level

    def test_flow_named_twice_among_inflows_and_once_among_outflows(self):
        model = Model(
            name="repeated",
            components=(
                ModelComponent("E", Kind.FLOW),
                ModelComponent(
                    "Tank", Kind.STOCK, initial=10.0, inflows=("E", "E"), outflows=("E",)
                ),
            ),
            horizon=3,
            exogenous={"E": (1.0, 2.5, -4.0)},
        )
        result = run(model)
        assert result.values("Tank") == (11.0, 13.5, 9.5)
        assert _bits(result) == _bits(reference_run(model))

    @pytest.mark.parametrize("n_in, n_out", [(0, 1), (1, 0), (1, 1), (2, 1)])
    def test_signed_zeros_add_up_as_sum_adds_them(self, n_in, n_out):
        # sum([-0.0]) is 0.0, so a stock at -0.0 whose one inflow is -0.0 moves to 0.0,
        # where ``level + ins[0]`` would keep -0.0.  One stock per sign of each flow.
        components, exogenous = [], {}
        for k, signs in enumerate(itertools.product((-0.0, 0.0), repeat=n_in + n_out)):
            flows = [f"F{k}_{i}" for i in range(n_in + n_out)]
            for flow, sign in zip(flows, signs):
                components.append(ModelComponent(flow, Kind.FLOW))
                exogenous[flow] = (sign, -0.0)
            components.append(ModelComponent(
                f"S{k}", Kind.STOCK, initial=-0.0,
                inflows=tuple(flows[:n_in]), outflows=tuple(flows[n_in:]),
            ))
        model = Model("signed-zeros", tuple(components), horizon=2, exogenous=exogenous)
        assert _bits(run(model)) == _bits(reference_run(model))


def _renamed(model: Model, rename) -> Model:
    """``model`` with every component renamed by ``rename``.  Each expression is
    called with its old names, mapped to the values of the new ones."""
    components = []
    for c in model.components:
        expression = c.expression
        if expression is not None:
            expression = lambda v, e=expression, deps=c.depends: e({d: v[rename(d)] for d in deps})
        components.append(dataclasses.replace(
            c, name=rename(c.name), expression=expression, depends=tuple(map(rename, c.depends)),
            inflows=tuple(map(rename, c.inflows)), outflows=tuple(map(rename, c.outflows)),
        ))
    exogenous = {rename(name): series for name, series in model.exogenous.items()}
    return Model(model.name, tuple(components), model.horizon, exogenous)


# Names that would break generated source if they reached it: a quote that closes a
# string and calls __import__, a newline, and text that is not ASCII.
AWKWARD_NAMES = ("a'); __import__('os'); ('", "two\nlines", "débit ✓ 流量")


class TestKernel:
    def test_shapes_with_any_names_compile_once_and_run_each_model(self):
        # one shape: names, expressions, series and horizon all differ between the two
        def model(names, factor, series):
            raw, feed, tank = names
            return Model("shape", (
                ModelComponent(raw, Kind.CONVERTER),
                ModelComponent(feed, Kind.FLOW, expression=lambda v: factor * v[raw],
                               depends=(raw,)),
                ModelComponent(tank, Kind.STOCK, initial=1.0, inflows=(feed,)),
            ), len(series), {raw: series})

        first = model(("Raw", "Feed", "Tank"), 2.0, (1.0, 2.0, 3.0))
        second = model(AWKWARD_NAMES, -1.0, (4.0, 0.5))
        assert _shape(first) == _shape(second)
        _kernel.cache_clear()
        assert run(first).trajectories == {
            "Raw": (1.0, 2.0, 3.0), "Feed": (2.0, 4.0, 6.0), "Tank": (3.0, 7.0, 13.0)
        }
        assert run(second).trajectories == dict(zip(AWKWARD_NAMES, [(4.0, 0.5), (-4.0, -0.5),
                                                                    (-3.0, -3.5)]))
        info = _kernel.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_the_source_holds_no_model_text(self):
        (odd, newline, wide), plain = AWKWARD_NAMES, "Plain"
        model = Model("awkward", (
            ModelComponent(odd, Kind.CONVERTER),
            ModelComponent(newline, Kind.CONVERTER, expression=lambda v: v[odd] + 1.0,
                           depends=(odd,)),
            ModelComponent(wide, Kind.FLOW, expression=lambda v: v[newline] * v[plain],
                           depends=(newline, plain)),
            ModelComponent(plain, Kind.STOCK, initial=2.0, inflows=(wide,), outflows=(wide,)),
        ), 3, {odd: (1.0, 2.0, 3.0)})
        result = run(model)
        assert _bits(result) == _bits(reference_run(model))
        assert result.values(wide) == (4.0, 6.0, 8.0)
        source = _source(_shape(model))
        compile(source, "<kernel>", "exec")
        assert not any(text in source for text in (odd, newline, wide, plain, "import", "'", '"'))
        assert source.isascii()

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("read", UNDECLARED_READS)
    def test_an_undeclared_read_names_its_owner_at_any_place_in_the_call_order(
        self, read, position
    ):
        # converters in a chain, then flows: the reader at ``position`` reads "Secret"
        names = [f"{name} {k}" for k, name in enumerate(AWKWARD_NAMES * 2)]
        components = [ModelComponent(name, Kind.CONVERTER) for name in ("Secret", "Seed")]
        previous = "Seed"
        for k, name in enumerate(names):
            kind = Kind.CONVERTER if k < 4 else Kind.FLOW
            reads = k == position
            components.append(ModelComponent(
                name, kind, depends=(previous if kind is Kind.CONVERTER else "Seed",),
                expression=lambda v, reads=reads: float(read(v, "Secret")) if reads else 1.0,
            ))
            if kind is Kind.CONVERTER:
                previous = name
        components.append(ModelComponent("Tank", Kind.STOCK, inflows=tuple(names[4:])))
        model = Model("chain", tuple(reversed(components)), 2,
                      {"Secret": (1.0, 1.0), "Seed": (1.0, 1.0)})
        with pytest.raises(ModelError) as excinfo:
            run(model)
        assert str(excinfo.value) == (
            f"{names[position]!r} read 'Secret' without declaring it as a dependency"
        )

    def test_a_model_with_no_components_runs_to_nothing(self):
        model = Model("empty", (), 3)
        assert _source(_shape(model)).startswith("def kernel(")
        assert run(model).trajectories == {}

    def test_five_thousand_flows_a_side_add_as_fold_adds(self):
        horizon, n = 2, 5000
        inflows = tuple(f"In{i}" for i in range(n))
        outflows = tuple(f"Out{i}" for i in range(n))
        exogenous = {
            name: (float(f"{1 + i % 9}e{i % 23 - 11}"), -float(f"{1 + i % 7}e{i % 19 - 9}"))
            for i, name in enumerate(inflows + outflows)
        }
        model = Model("wide", (
            *(ModelComponent(name, Kind.FLOW) for name in inflows + outflows),
            ModelComponent("Tank", Kind.STOCK, initial=0.1, inflows=inflows, outflows=outflows),
        ), horizon, exogenous)
        level, expected = 0.1, []
        for index in range(horizon):
            level = (level + fold(exogenous[f][index] for f in inflows)
                     - fold(exogenous[f][index] for f in outflows))
            expected.append(level)
        assert tuple(map(float.hex, run(model).values("Tank"))) == tuple(map(float.hex, expected))

    def test_one_component_read_by_five_thousand_expressions(self):
        n = 5000
        readers = [
            ModelComponent(f"C{i}", Kind.CONVERTER, expression=lambda v, i=i: v["Level"] * i,
                           depends=("Level",))
            for i in range(n)
        ]
        model = Model("fan-out", (
            ModelComponent("Feed", Kind.FLOW),
            ModelComponent("Level", Kind.STOCK, initial=1.0, inflows=("Feed",)),
            *readers,
        ), 3, {"Feed": (0.5, 0.25, 2.0)})
        result = run(model)
        # each converter reads the level before the period's update
        for i in (0, 1, n // 2, n - 1):
            assert result.values(f"C{i}") == (1.0 * i, 1.5 * i, 1.75 * i)
        assert _bits(result) == _bits(reference_run(model))
