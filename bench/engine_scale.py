"""engine-scale workload: large synthetic stock-and-flow models through the public engine API.

One op builds a ``Model`` from a generated spec, runs it, renders the run
summary and renders an SVG of a few stocks.  No YAML or CSV is involved,
so the period loop dominates.  Every spec has the same number of
component-periods with a different shape (10 to 60 components over 200 to
1200 periods), so ops cost about the same and the percentiles measure the
engine, not the mix.  The seed fixes wiring, coefficients and
exogenous series.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path


# (components, periods): 12 000 component-periods each.
SHAPES = ((10, 1200), (20, 600), (40, 300), (60, 200))
SPECS_PER_SHAPE = 6
PLOTTED_STOCKS = 3
CONSERVATION_RTOL = 1e-9


@dataclass(frozen=True)
class CompSpec:
    name: str
    kind: str  # "stock", "flow" or "converter"
    unit: str
    expr: str | None = None  # expression kind; None for stocks and exogenous components
    depends: tuple[str, ...] = ()
    params: tuple[float, ...] = ()
    initial: float = 0.0
    inflows: tuple[str, ...] = ()
    outflows: tuple[str, ...] = ()


@dataclass(frozen=True)
class ModelSpec:
    name: str
    horizon: int
    components: tuple[CompSpec, ...]
    exogenous: tuple[tuple[str, tuple[float, ...]], ...]
    stocks: tuple[str, ...]

    csv_files = 0  # ops name no input files and no scenarios
    n_scenarios = 0

    @property
    def label(self) -> str:
        return f"{len(self.components)}x{self.horizon}"


def generate_spec(seed: int, index: int, n_components: int, horizon: int) -> ModelSpec:
    """A stable model: converters are acyclic and saturate what they read from stocks,
    and every stock drains a fixed fraction of itself, so values stay bounded."""
    rng = random.Random(seed * 1_000_003 + index)
    n_stocks = max(2, n_components // 6)
    n_exo = max(2, n_components // 6)
    n_conv = n_components - n_exo - 3 * n_stocks
    comps: list[CompSpec] = []
    exogenous: dict[str, tuple[float, ...]] = {}

    def series(scale: float) -> tuple[float, ...]:
        return tuple(round(rng.uniform(0.0, scale), 3) for _ in range(horizon))

    exo = [f"X{i}" for i in range(n_exo)]
    for name in exo:
        comps.append(CompSpec(name, "converter", "MB"))
        exogenous[name] = series(100.0)
    stocks = [f"S{i}" for i in range(n_stocks)]
    readable = list(exo)  # converters may read exogenous inputs, earlier converters, stocks
    for i in range(n_conv):
        name = f"C{i}"
        roll = rng.random()
        if roll < 0.25:
            stock = rng.choice(stocks)
            comp = CompSpec(name, "converter", "MB", "saturate", (stock,),
                            (rng.uniform(0.01, 0.2), rng.uniform(500.0, 5000.0)))
        elif roll < 0.55:
            a, b = rng.sample(readable, 2)
            comp = CompSpec(name, "converter", "MB", "blend", (a, b),
                            (rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.4), rng.uniform(0.0, 5.0)))
        elif roll < 0.8:
            a, b = rng.sample(readable, 2)
            comp = CompSpec(name, "converter", "MB/s", "ratio", (a, b))
        else:
            a, b = rng.sample(readable, 2)
            comp = CompSpec(name, "converter", "", "damp", (a, b), (rng.uniform(0.5, 2.0),))
        comps.append(comp)
        readable.append(name)
    converters = readable[n_exo:] or exo
    inflows: dict[str, list[str]] = {s: [] for s in stocks}
    outflows: dict[str, list[str]] = {s: [] for s in stocks}
    for k, stock in enumerate(stocks):
        inflow = f"In{k}"
        if k % 4 == 3:
            comps.append(CompSpec(inflow, "flow", "MB"))
            exogenous[inflow] = series(50.0)
        else:
            source = rng.choice(converters)
            comps.append(CompSpec(inflow, "flow", "MB", "positive", (source,),
                                  (rng.uniform(0.2, 1.0),)))
        inflows[stock].append(inflow)
        outflow = f"Out{k}"
        comps.append(CompSpec(outflow, "flow", "MB", "drain", (stock,),
                              (rng.uniform(0.02, 0.3),)))
        outflows[stock].append(outflow)
        if k > 0 and rng.random() < 0.4:  # the drain feeds the previous stock
            inflows[stocks[k - 1]].append(outflow)
    for stock in stocks:
        comps.append(CompSpec(stock, "stock", "MB", initial=round(rng.uniform(0.0, 1000.0), 3),
                              inflows=tuple(inflows[stock]), outflows=tuple(outflows[stock])))
    rng.shuffle(comps)
    return ModelSpec(f"synthetic-{index}", horizon, tuple(comps),
                     tuple(sorted(exogenous.items())), tuple(stocks))


def generate_specs(seed: int) -> list[ModelSpec]:
    specs = []
    for n_components, horizon in SHAPES:
        for _ in range(SPECS_PER_SHAPE):
            specs.append(generate_spec(seed, len(specs), n_components, horizon))
    return specs


def _expression(spec: CompSpec):
    deps, p = spec.depends, spec.params
    if spec.expr == "saturate":
        (s,), (gain, scale) = deps, p
        return lambda v: gain * v[s] / (1.0 + abs(v[s]) / scale)
    if spec.expr == "blend":
        (a, b), (wa, wb, c) = deps, p
        return lambda v: wa * v[a] + wb * v[b] + c
    if spec.expr == "ratio":
        a, b = deps
        return lambda v: v[a] / v[b] if v[b] > 0 else 0.0
    if spec.expr == "damp":
        (a, b), (k,) = deps, p
        return lambda v: k * v[a] / (1.0 + abs(v[b]))
    if spec.expr == "positive":
        (a,), (w,) = deps, p
        return lambda v: max(0.0, w * v[a])
    if spec.expr == "drain":
        (s,), (f,) = deps, p
        return lambda v: f * v[s]
    raise ValueError(f"unknown expression kind {spec.expr!r}")


@dataclass
class Outcome:
    result: object  # drperf.engine.RunResult
    summary: str
    svg: str


class EngineScale:
    name = "engine-scale"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.reference: dict[int, tuple[str, str, str]] = {}

    def prepare(self) -> None:
        """Generate the model specs; untimed."""
        self.deck = generate_specs(self.seed)

    def setup(self) -> None:
        from program import fresh_import

        self.engine, self.report, self.plot = fresh_import(
            "drperf.engine", "drperf.report", "drperf.plot")
        self.check(0, self.deck[0], self.execute(self.deck[0]))  # warm-up

    def build(self, spec: ModelSpec):
        engine = self.engine
        kinds = {"stock": engine.Kind.STOCK, "flow": engine.Kind.FLOW,
                 "converter": engine.Kind.CONVERTER}
        components = []
        for c in spec.components:
            if c.kind == "stock":
                components.append(engine.ModelComponent(
                    c.name, kinds[c.kind], unit=c.unit, initial=c.initial,
                    inflows=c.inflows, outflows=c.outflows))
            elif c.expr is None:
                components.append(engine.ModelComponent(c.name, kinds[c.kind], unit=c.unit))
            else:
                components.append(engine.ModelComponent(
                    c.name, kinds[c.kind], unit=c.unit, expression=_expression(c),
                    depends=c.depends))
        return engine.Model(spec.name, tuple(components), spec.horizon, dict(spec.exogenous),
                            meta={"seed": self.seed, "spec": spec.name})

    def execute(self, spec: ModelSpec) -> Outcome:
        model = self.build(spec)
        result = self.engine.run(model)
        summary = self.report.render_run_summary(model, result)
        plotted = spec.stocks[:PLOTTED_STOCKS]
        svg = self.plot.render_svg({s: result.series[s] for s in plotted},
                                   title=spec.name, y_label="MB")
        return Outcome(result, summary, svg)

    def outcome_label(self, spec: ModelSpec, outcome: Outcome) -> str:
        return "ok"

    def check(self, key: int, spec: ModelSpec, outcome: Outcome) -> str | None:
        series = outcome.result.series
        for comp in spec.components:
            if comp.kind != "stock":
                continue
            values = [v for _, v in series[comp.name]]
            flows_in = math.fsum(v for f in comp.inflows for _, v in series[f])
            flows_out = math.fsum(v for f in comp.outflows for _, v in series[f])
            expected = comp.initial + flows_in - flows_out
            scale = abs(comp.initial) + abs(flows_in) + abs(flows_out) + 1.0
            if not math.isfinite(values[-1]) or abs(values[-1] - expected) > CONSERVATION_RTOL * scale:
                return f"stock {comp.name} not conserved: final {values[-1]!r}, expected {expected!r}"
        fingerprint = (
            outcome.result.digest,
            hashlib.sha256(outcome.summary.encode()).hexdigest(),
            hashlib.sha256(outcome.svg.encode()).hexdigest(),
        )
        first = self.reference.setdefault(key, fingerprint)
        if first[0] != fingerprint[0]:
            return "run digest differs from an earlier rep"
        if first != fingerprint:
            return "rendered output differs from an earlier rep"
        return None

    def probe(self) -> dict:
        return {}  # no malformed-input probe in this workload

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
