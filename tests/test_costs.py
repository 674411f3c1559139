from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from drperf.costs import (
    CostBreakdown,
    FeeTier,
    ObjectStoreRates,
    TransactionCounts,
    VaultRates,
    cloud_vault_cost,
    hybrid_cloud_cost,
    vault_instance_fee,
)
from drperf.errors import DomainError

# The paper's prices and monthly operation counts are the records' defaults.
STORE, VAULT, OPS = ObjectStoreRates(), VaultRates(), TransactionCounts()
NO_OPS = TransactionCounts(0, 0)


class TestHybridCloudCost:
    def test_reference_tiered_amount(self):
        assert hybrid_cloud_cost(26.956, OPS, STORE).total == pytest.approx(1.57912)

    def test_reference_test_volume(self):
        assert hybrid_cloud_cost(531.012, OPS, STORE).total == pytest.approx(11.66024)

    def test_empty_tier_costs_nothing(self):
        assert hybrid_cloud_cost(0.0, NO_OPS, STORE).total == 0.0

    def test_breakdown_parts(self):
        breakdown = hybrid_cloud_cost(100.0, OPS, STORE)
        assert breakdown.storage_cost == pytest.approx(2.0)
        assert breakdown.transaction_cost == pytest.approx(1.04)
        assert breakdown.instance_cost == 0.0

    def test_transactions_scale_linearly(self):
        for ops, cost in ((20_000, 1.08), (5_000, 0.27)):
            breakdown = hybrid_cloud_cost(0.0, TransactionCounts(ops, 0), STORE)
            assert breakdown.total == pytest.approx(cost)

    def test_rejects_negative_inputs(self):
        with pytest.raises(DomainError):
            hybrid_cloud_cost(-1.0, OPS, STORE)
        for counts, name in (((-1, 0), "ingress_egress_ops"), ((0, -1), "listing_ops")):
            with pytest.raises(DomainError) as excinfo:
                TransactionCounts(*counts)
            assert str(excinfo.value) == f"{name} must be >= 0, got -1"

    @given(
        st.floats(0, 1e6),
        st.floats(0, 1e6),
        st.integers(0, 10**7),
        st.integers(0, 10**7),
    )
    def test_monotone_in_every_argument(self, gb, extra_gb, ops, extra_ops):
        def total(gb, ingress_egress_ops, listing_ops):
            counts = TransactionCounts(ingress_egress_ops, listing_ops)
            return hybrid_cloud_cost(gb, counts, STORE).total

        base = total(gb, ops, ops)
        assert total(gb + extra_gb, ops, ops) >= base
        assert total(gb, ops + extra_ops, ops) >= base
        assert total(gb, ops, ops + extra_ops) >= base

    @given(st.floats(0, 1e6))
    def test_storage_is_linear(self, gb):
        single = hybrid_cloud_cost(gb, NO_OPS, STORE).storage_cost
        double = hybrid_cloud_cost(2 * gb, NO_OPS, STORE).storage_cost
        assert double == pytest.approx(2 * single, rel=1e-12, abs=1e-15)


class TestVaultInstanceFee:
    def test_tier_table(self):
        assert vault_instance_fee(0.0, VAULT) == 5.0
        assert vault_instance_fee(50.0, VAULT) == 5.0
        assert vault_instance_fee(50.001, VAULT) == 10.0
        assert vault_instance_fee(500.0, VAULT) == 10.0
        assert vault_instance_fee(500.001, VAULT) == 20.0
        assert vault_instance_fee(531.012, VAULT) == 20.0
        assert vault_instance_fee(1000.0, VAULT) == 20.0
        assert vault_instance_fee(1000.001, VAULT) == 30.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            vault_instance_fee(-0.1, VAULT)

    @given(st.floats(0, 1e5), st.floats(0, 1e5))
    def test_fee_never_decreases(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert vault_instance_fee(lo, VAULT) <= vault_instance_fee(hi, VAULT)

    @given(st.floats(0, 1e5))
    def test_fee_lands_on_a_step(self, frontend):
        fee = vault_instance_fee(frontend, VAULT)
        assert fee in (5.0, 10.0) or (fee % 10.0 == 0.0 and fee >= 20.0)


class TestVaultRatesValidation:
    @pytest.mark.parametrize(
        "bounds",
        [(500, 50), (50, 50), (0, 500), (0,)],
        ids=["decreasing", "equal", "zero-first", "zero-only"],
    )
    def test_bounds_must_increase(self, bounds):
        tiers = tuple(FeeTier(bound, 5) for bound in bounds)
        with pytest.raises(DomainError) as excinfo:
            VaultRates(instance_fee_tiers=tiers)
        listed = [float(bound) for bound in bounds]
        assert str(excinfo.value) == (
            f"tier boundaries must be positive and strictly increasing: {listed}"
        )

    def test_fees_must_not_decrease(self):
        with pytest.raises(DomainError):
            VaultRates(instance_fee_tiers=(FeeTier(50, 10), FeeTier(500, 5)))

    def test_block_fee_must_reach_last_tier(self):
        with pytest.raises(DomainError):
            VaultRates(block_fee=1.0)

    def test_custom_table(self):
        rates = VaultRates(instance_fee_tiers=(FeeTier(100, 7.0),), block_gb=100, block_fee=7.0)
        assert vault_instance_fee(100, rates) == 7.0
        assert vault_instance_fee(150, rates) == 14.0


class TestCloudVaultCost:
    def test_reference_measured_state(self):
        assert cloud_vault_cost(50.0, 63.103, VAULT).total == pytest.approx(7.8270144)

    def test_reference_test_volume(self):
        assert cloud_vault_cost(531.012, 531.012, VAULT).total == pytest.approx(43.7893376)

    def test_empty_vault_still_pays_the_instance_fee(self):
        breakdown = cloud_vault_cost(0.0, 0.0, VAULT)
        assert breakdown.storage_cost == 0.0
        assert breakdown.total == 5.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            cloud_vault_cost(-1.0, 1.0, VAULT)
        with pytest.raises(DomainError):
            cloud_vault_cost(1.0, -1.0, VAULT)

    @given(st.floats(0, 1e5), st.floats(0, 1e5), st.floats(0, 1e4), st.floats(0, 1e4))
    def test_monotone(self, frontend, stored, extra_f, extra_s):
        base = cloud_vault_cost(frontend, stored, VAULT).total
        assert cloud_vault_cost(frontend + extra_f, stored, VAULT).total >= base
        assert cloud_vault_cost(frontend, stored + extra_s, VAULT).total >= base


def test_breakdown_total_is_the_exact_sum():
    breakdown = CostBreakdown(storage_cost=0.1, transaction_cost=0.2, instance_cost=0.3)
    assert breakdown.total == 0.1 + 0.2 + 0.3


@pytest.mark.parametrize(
    "parts, item",
    [
        ({"storage_cost": math.inf}, "storage"),
        ({"storage_cost": 1.0, "transaction_cost": math.inf}, "transaction"),
        ({"storage_cost": 1.0, "instance_cost": math.nan}, "instance"),
        ({"storage_cost": 1e308, "transaction_cost": 1e308}, "total"),
    ],
)
def test_breakdown_rejects_a_non_finite_item(parts, item):
    with pytest.raises(DomainError, match=f"^monthly {item} cost must be finite, got"):
        CostBreakdown(**parts)
