"""One hash over the numbers drperf computes for generated models, to show that
they are the same bit for bit on every Python version and platform.

Run it as a script; it needs only the standard library and drperf's sources:

    PYTHONPATH=src python tests/fingerprint.py

It prints one sha256 hex digest.  ``tests/test_determinism.py`` pins that digest,
so a change that moves any of these numbers by one ulp fails there, and each
interpreter that runs the script shows its own value.  Models come from
``random.Random(seed)``, whose draws are fixed across versions, and no
Hypothesis, whose draws may change with its version.  The hash covers:

- stocks of 3-5 flows a side at magnitudes 1e-8 to 1e11, where ``sum()``
  rounded differently from Python 3.12: the ``float.hex`` of every trajectory
  and each ``Model.digest``;
- fleet-shaped basic models built by ``models.build_basic`` from generated job
  logs and restore samples: the same, plus the ``float.hex`` of each log's
  ``summarize_throughput`` mean and the ``fmt_num`` text of each projected time.

It leaves out ``reliability``, whose ``math.exp`` and ``math.log`` come from the
platform's libm; the goldens pin their printed 6 digits.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

from drperf.costs import ObjectStoreRates, TransactionCounts, VaultRates
from drperf.engine import Kind, Model, ModelComponent, run
from drperf.metrics import JobSample, Rate, RestoreSample, project, summarize_throughput
from drperf.models import SYSTEMS, SystemKind, build_basic
from drperf.report import fmt_num

MODELS = 40  # of each shape


def _magnitude(rng: random.Random) -> float:
    """A value of 1 to 10 times a power of ten from 1e-8 to 1e11; the power is parsed
    from text, since ``10.0 ** k`` would come from libm's ``pow``."""
    return rng.uniform(1.0, 10.0) * float(f"1e{rng.randint(-8, 11)}")


def stock_model(seed: int) -> Model:
    """Stocks of 3-5 inflows and 3-5 outflows of generated values, the first inflow
    of each read from a shared exogenous converter."""
    rng = random.Random(seed)
    horizon = rng.randint(5, 20)
    components = [ModelComponent("Scale", Kind.CONVERTER)]
    exogenous = {"Scale": tuple(_magnitude(rng) for _ in range(horizon))}
    for stock in range(rng.randint(1, 3)):
        inflows = tuple(f"In{stock}_{i}" for i in range(rng.randint(3, 5)))
        outflows = tuple(f"Out{stock}_{i}" for i in range(rng.randint(3, 5)))
        factor = rng.uniform(0.0, 2.0)
        components.append(ModelComponent(inflows[0], Kind.FLOW, depends=("Scale",),
                                         expression=lambda v, f=factor: v["Scale"] * f))
        for name in inflows[1:] + outflows:
            components.append(ModelComponent(name, Kind.FLOW))
            exogenous[name] = tuple(_magnitude(rng) for _ in range(horizon))
        components.append(ModelComponent(f"Stock{stock}", Kind.STOCK, initial=_magnitude(rng),
                                         inflows=inflows, outflows=outflows))
    return Model(f"stocks-{seed}", tuple(components), horizon, exogenous)


def fleet_inputs(seed: int) -> tuple[SimpleNamespace, dict, list]:
    """A scenario of either system, as the attributes ``build_basic`` reads, with a
    generated job log per agent and a restore sample per tier."""
    rng = random.Random(seed)
    system = SystemKind.HYBRID if seed % 2 else SystemKind.CLOUD_VAULT
    spec = SYSTEMS[system]
    hybrid = system is SystemKind.HYBRID
    scenario = SimpleNamespace(
        system=system,
        bia=SimpleNamespace(cloud_tiering_threshold_days=rng.randint(1, spec.days) if hybrid
                            else None),
        pricing=ObjectStoreRates() if hybrid else VaultRates(),
        transactions=TransactionCounts() if hybrid else None,
        frontend_gb=None if hybrid else 50.0,
        test_data_mb=_magnitude(rng),
    )
    logs = {agent.log: [JobSample(day, _magnitude(rng), _magnitude(rng))
                        for day in range(1, spec.days + 1)]
            for agent in spec.agents}
    samples = [RestoreSample(r.tier, _magnitude(rng), _magnitude(rng)) for r in spec.restores]
    return scenario, logs, samples


def _lines():
    """The text the fingerprint hashes, one line at a time."""
    for seed in range(MODELS):
        model = stock_model(seed)
        yield model.digest()
        for name, values in sorted(run(model).trajectories.items()):
            yield f"{name} {' '.join(v.hex() for v in values)}"
    for seed in range(MODELS):
        scenario, logs, samples = fleet_inputs(seed)
        for label, log in logs.items():
            yield f"{label} {summarize_throughput(log).mean_arithmetic.hex()}"
        model = build_basic(scenario, logs, samples)
        yield model.digest()
        for name, values in sorted(run(model).trajectories.items()):
            yield f"{name} {' '.join(v.hex() for v in values)}"
        averages = model.meta["averages"]
        rates = [Rate(row.label, averages[row.average], row.kind, row.role)
                 for row in SYSTEMS[scenario.system].rates]
        for role, times in project(scenario.test_data_mb, rates).times_s.items():
            yield " ".join([role.value, *(f"{label} {fmt_num(s)}" for label, s in times.items())])


def fingerprint() -> str:
    digest = hashlib.sha256()
    for line in _lines():
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
