"""Monthly cloud service cost models for the two protection systems.

Two pricing schemes are covered: an object store billed per GB plus
per-10K-transaction charges (the hybrid appliance's cloud tier) and a
recovery vault billed per GB stored plus a tiered fee per protected
frontend instance.  All prices are USD per month; volumes are decimal GB.
The records hold the paper's prices and operation counts as their defaults
and declare their bounds in their field types; the cost functions take them whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

from .errors import DomainError
from .fields import NonNegative, Positive, check_fields, checked, to_float

OPS_PER_BLOCK = 10_000


@dataclass(frozen=True)
class ObjectStoreRates:
    """Object-store pricing: per-GB storage plus two per-10K-operation rates."""

    per_gb_month: NonNegative = 0.02
    per_10k_ingress_egress: NonNegative = 0.54
    per_10k_listing: NonNegative = 0.50

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TransactionCounts:
    """Monthly object-store operation counts used for hybrid pricing."""

    ingress_egress_ops: Annotated[int, (">=", 0)] = 10_000
    listing_ops: Annotated[int, (">=", 0)] = 10_000

    def __post_init__(self):
        check_fields(self)
        for name in ("ingress_egress_ops", "listing_ops"):
            to_float(getattr(self, name), name)  # the cost functions price counts as floats


@dataclass(frozen=True)
class FeeTier:
    """One flat step of the instance-fee table: fee applies up to upper_gb."""

    upper_gb: float  # inclusive upper bound of the tier
    fee: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class VaultRates:
    """Recovery-vault pricing: per-GB storage plus a tiered instance fee.

    Frontends up to the last flat tier pay that tier's fee; larger
    frontends pay ``block_fee`` for every started ``block_gb`` slice.
    """

    per_gb_month: NonNegative = 0.0448
    instance_fee_tiers: tuple[FeeTier, ...] = (FeeTier(50.0, 5.0), FeeTier(500.0, 10.0))
    block_gb: Positive = 500.0
    block_fee: NonNegative = 10.0

    def __post_init__(self):
        check_fields(self)
        if not self.instance_fee_tiers:
            raise DomainError("instance_fee_tiers must not be empty")
        bounds = [t.upper_gb for t in self.instance_fee_tiers]
        if any(b <= 0 for b in bounds) or any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise DomainError(f"tier boundaries must be positive and strictly increasing: {bounds}")
        fees = [t.fee for t in self.instance_fee_tiers]
        if any(f < 0 for f in fees) or any(f > g for f, g in zip(fees, fees[1:])):
            raise DomainError(f"tier fees must be >= 0 and non-decreasing: {fees}")
        # The fee just past the last flat tier must not drop below that tier.
        past_last = math.nextafter(bounds[-1], math.inf) / self.block_gb
        if not math.isfinite(past_last):
            raise DomainError(
                f"block_gb {self.block_gb} is too small for the last tier bound {bounds[-1]}"
            )
        if math.ceil(past_last) * self.block_fee < fees[-1]:
            raise DomainError("block fees drop below the last flat tier fee")


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized monthly cost; ``total`` is the exact sum of the parts."""

    storage_cost: float
    transaction_cost: float = 0.0
    instance_cost: float = 0.0

    def __post_init__(self):
        items = (
            ("storage", self.storage_cost),
            ("transaction", self.transaction_cost),
            ("instance", self.instance_cost),
            ("total", self.total),
        )
        for item, value in items:
            if not math.isfinite(value):  # a price or volume so large that the product overflows
                raise DomainError(f"monthly {item} cost must be finite, got {value}")

    @property
    def total(self) -> float:
        return self.storage_cost + self.transaction_cost + self.instance_cost


@checked
def hybrid_cloud_cost(
    tiered_gb: NonNegative, transactions: TransactionCounts, rates: ObjectStoreRates
) -> CostBreakdown:
    """Monthly object-store cost for data held in the hybrid cloud tier.

    Storage is billed linearly per GB; transactions are billed linearly
    per 10,000 operations of each kind.
    """
    storage = tiered_gb * rates.per_gb_month
    operations = (
        rates.per_10k_ingress_egress * transactions.ingress_egress_ops / OPS_PER_BLOCK
        + rates.per_10k_listing * transactions.listing_ops / OPS_PER_BLOCK
    )
    return CostBreakdown(storage_cost=storage, transaction_cost=operations)


@checked
def vault_instance_fee(frontend_gb: NonNegative, rates: VaultRates) -> float:
    """Monthly instance fee for a protected frontend of the given size."""
    for tier in rates.instance_fee_tiers:
        if frontend_gb <= tier.upper_gb:
            return tier.fee
    blocks = frontend_gb / rates.block_gb
    if not math.isfinite(blocks):
        raise DomainError(f"frontend_gb {frontend_gb} is too large for blocks of {rates.block_gb} GB")
    return math.ceil(blocks) * rates.block_fee


@checked
def cloud_vault_cost(
    frontend_gb: float, stored_gb: NonNegative, rates: VaultRates
) -> CostBreakdown:
    """Monthly recovery-vault cost: per-GB storage plus ``vault_instance_fee``."""
    storage = stored_gb * rates.per_gb_month
    return CostBreakdown(storage_cost=storage, instance_cost=vault_instance_fee(frontend_gb, rates))
