from __future__ import annotations

import itertools
import math
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from drperf.engine import Kind, Model, ModelComponent, run
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


class TestValidation:
    def test_short_and_long_series_are_rejected(self):
        for entries in (2, 5):
            with pytest.raises(ModelError, match=f"'Inflow' has {entries} entries, horizon is 4"):
                accumulator(horizon=4, inflow=(2.0,) * entries)

    def test_duplicate_names(self):
        with pytest.raises(ModelError, match="duplicate"):
            Model(
                name="dupes",
                components=(
                    ModelComponent("X", Kind.CONVERTER),
                    ModelComponent("X", Kind.CONVERTER),
                ),
                horizon=1,
                exogenous={"X": (1.0,)},
            )

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
        with pytest.raises(ModelError, match="cyclic"):
            run(model)

    @pytest.mark.parametrize("from_period", [1, 3])
    @pytest.mark.parametrize("kind", [Kind.CONVERTER, Kind.FLOW], ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "read",
        [lambda v: v["X"], lambda v: v.get("X"), lambda v: "X" in v],
        ids=["getitem", "get", "contains"],
    )
    def test_undeclared_read_fails_loudly(self, read, kind, from_period):
        # the check holds on every call: this read first happens in a later period
        periods = []

        def expression(v):
            periods.append(v["T"])
            return float(read(v)) if v["T"] >= from_period else 0.0

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

    def test_stock_cannot_carry_expression(self):
        with pytest.raises(ModelError, match="expression"):
            ModelComponent("S", Kind.STOCK, expression=lambda v: 0.0, inflows=("F",))


class TestRunResult:
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
