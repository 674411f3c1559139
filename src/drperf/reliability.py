"""Mission reliability for a chain of recovery infrastructure components.

Each component (data center, ISP link, cloud provider) is assumed to fail
with a constant hazard rate, so its reliability over a mission window is
exp(-mission / MTBF).  The components sit in series: any single failure
takes the whole recovery path down, hence system reliability is the plain
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Iterable

from .errors import DomainError
from .fields import NonNegative, Positive, check, check_fields

DEFAULT_MISSION_HOURS = 372.0
# The bundled reference scenarios describe their analysis window as 15 days
# (360 h), but their published component values only reproduce under 372 h.
# Both bases are supported; 372 h is the default because it matches the
# published numbers.
STATED_MISSION_HOURS = 360.0
# An SLA: the fraction of its reference period that a component is promised to be up.
Availability = Annotated[float, (">", 0), ("<", 1)]


def component_reliability(mtbf_h: float, mission_h: float) -> float:
    """Probability that a component survives ``mission_h`` hours."""
    mtbf_h = check(mtbf_h, "mtbf_h", Positive)
    return math.exp(-check(mission_h, "mission_h", NonNegative) / mtbf_h)


def sla_to_mtbf(sla: float, reference_period_h: float) -> float:
    """MTBF at which mission reliability over the reference period equals the SLA.

    Inverse of :func:`component_reliability`:
    ``component_reliability(sla_to_mtbf(s, T), T) == s``.
    """
    sla = check(sla, "sla", Availability)
    return check(reference_period_h, "reference_period_h", Positive) / -math.log(sla)


def series_reliability(values: Iterable[float]) -> float:
    """Reliability of a series arrangement: the product of the parts."""
    product = 1.0
    count = 0
    for value in values:
        if not 0 <= value <= 1:
            raise DomainError(f"reliability values must be in [0, 1], got {value}")
        product *= value
        count += 1
    if count == 0:
        raise DomainError("at least one reliability value is required")
    return product


@dataclass(frozen=True)
class ReliabilityComponent:
    """One link of the recovery chain, parameterized by MTBF or by SLA.

    Exactly one of ``mtbf_h`` and ``sla`` must be given.  An SLA is an
    availability fraction over ``sla_period_h`` and is converted to an
    MTBF with :func:`sla_to_mtbf`.
    """

    name: str
    mtbf_h: Positive | None = None
    sla: Availability | None = None
    sla_period_h: Positive = STATED_MISSION_HOURS

    def __post_init__(self):
        check_fields(self)
        if (self.mtbf_h is None) == (self.sla is None):
            raise DomainError(f"component {self.name!r}: give exactly one of mtbf_h or sla")
        if self.sla is not None and math.isinf(sla_to_mtbf(self.sla, self.sla_period_h)):
            raise DomainError("sla and sla_period_h give an MTBF beyond float range in hours,"
                              f" got {self.sla} and {self.sla_period_h}")

    def reliability(self, mission_h: float) -> float:
        mtbf_h = self.mtbf_h if self.sla is None else sla_to_mtbf(self.sla, self.sla_period_h)
        return component_reliability(mtbf_h, mission_h)


@dataclass(frozen=True)
class SeriesSystem:
    """An ordered chain of components that must all survive the mission."""

    components: tuple[ReliabilityComponent, ...]
    mission_h: NonNegative = DEFAULT_MISSION_HOURS

    def __post_init__(self):
        check_fields(self)
        if not self.components:
            raise DomainError("a series system needs at least one component")
        names = set()
        for comp in self.components:
            if comp.name in names:
                raise DomainError(f"duplicate component name {comp.name!r}")
            names.add(comp.name)

    def system_reliability(self) -> float:
        return series_reliability(c.reliability(self.mission_h) for c in self.components)


def default_recovery_chain() -> SeriesSystem:
    """The three-component chain used by the bundled reference scenarios.

    Data center MTBF 61320 h (7 years), ISP link MTBF 17520 h (24 months),
    cloud provider on the same MTBF basis as the data center.
    """
    return SeriesSystem(
        components=(
            ReliabilityComponent("DataCenter", mtbf_h=61_320.0),
            ReliabilityComponent("CloudProvider", mtbf_h=61_320.0),
            ReliabilityComponent("ISPLink", mtbf_h=17_520.0),
        ),
    )
