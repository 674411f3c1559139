"""Acceptance checks against the bundled reference datasets.

Each test prints a single ``criterion N: PASS/FAIL (...)`` line so the
whole gate can be read off a ``pytest -s`` run.  Tolerances follow the
published reference tables.  Criterion 5a compares the series product of
the table's printed components with its printed system figure through the
intervals that 6-decimal printing implies, and pins the model chain's own
system value together with its distance from the published one, which
that printing cannot explain.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from drperf.bia import Status
from drperf.costs import (
    ObjectStoreRates,
    TransactionCounts,
    VaultRates,
    cloud_vault_cost,
    hybrid_cloud_cost,
    vault_instance_fee,
)
from drperf.engine import run
from drperf.metrics import (
    JobSample,
    RestoreSample,
    Tier,
    restore_time_per_mb,
    summarize_throughput,
)
from drperf.models import build_basic
from drperf.reliability import (
    component_reliability,
    default_recovery_chain,
    series_reliability,
    sla_to_mtbf,
)
from drperf.scenario import Evaluation, Scenario
from .oracles import retention_tiering_oracle

TEST_DATA_MB = 531012.0
HOUR = 3600.0
# The reference table prints reliabilities to 6 decimals: each figure
# stands for every value within half a unit of its last digit.
PRINT_HALF_UNIT = 5e-7
# The paper's prices are the records' defaults.
STORE, VAULT = ObjectStoreRates(), VaultRates()


def _verdict(criterion: str, checks: list[tuple[str, bool]]) -> None:
    """Print one pass/fail line for the criterion, then assert it."""
    failed = [label for label, ok in checks if not ok]
    status = "FAIL" if failed else "PASS"
    detail = "; ".join(failed if failed else [label for label, _ in checks])
    print(f"criterion {criterion}: {status} ({detail})")
    assert not failed, f"criterion {criterion}: {detail}"


def _close(label: str, actual: float, expected: float, tol: float) -> tuple[str, bool]:
    return (
        f"{label} {actual:.8g} vs {expected:.8g} tol {tol:g}",
        abs(actual - expected) <= tol,
    )


def _exact(label: str, actual: float, expected: float) -> tuple[str, bool]:
    return (f"{label} {actual!r} == {expected!r}", actual == expected)


def test_criterion_1_hybrid_derived_variables(hybrid_scenario):
    model = Evaluation(hybrid_scenario).basic_model
    averages = model.meta["averages"]
    _verdict(
        "1",
        [
            _close("mean throughput MB/s", averages["MeanDailyThroughput"], 54.2224, 0.001),
            _close("local s/MB", averages["RestoreTimePerMbLocal"], 0.0209649, 1e-6),
            _close("archive s/MB", averages["RestoreTimePerMbArchive"], 0.25773, 1e-5),
            _close("monthly cost USD", model.meta["monthly_cost"], 1.57912, 0.0001),
        ],
    )


def test_criterion_2_hybrid_extended_model(hybrid_scenario):
    result = run(Evaluation(hybrid_scenario, TEST_DATA_MB).extended_model)
    _verdict(
        "2",
        [
            _close("backup h", result.values("BackupTimeTestData")[-1] / HOUR, 2.72034, 0.001),
            _close(
                "restore archive h",
                result.values("RestoreTimeArchiveTestData")[-1] / HOUR,
                38.016,
                0.001,
            ),
            _close(
                "restore local h",
                result.values("RestoreTimeLocalTestData")[-1] / HOUR,
                3.09239,
                0.001,
            ),
            _close("cost USD", result.values("TotalServiceCostTestData")[-1], 11.6602, 0.0001),
        ],
    )


def test_criterion_3_cloud_derived_variables(cloud_scenario):
    model = Evaluation(cloud_scenario).basic_model
    result = run(model)
    _verdict(
        "3",
        [
            _close(
                "recovery throughput MB/s",
                model.meta["averages"]["RecoveryThroughput"],
                5.57246,
                1e-4,
            ),
            _exact("vault MB after period 7", result.values("RecoveryVault")[6], 63103.0),
            _exact("transfer MB period 1", result.values("DailyTransfer")[0], 8715.0),
            _close("monthly cost USD", model.meta["monthly_cost"], 7.82701, 0.0001),
        ],
    )


def test_criterion_4_cloud_extended_model(cloud_scenario):
    assert cloud_scenario.supplied_averages == {
        "AvgJob1Throughput": 2.57731,
        "AvgJob2Throughput": 1.83045,
        "RecoveryThroughput": 5.57246,
    }
    result = run(Evaluation(cloud_scenario, TEST_DATA_MB).extended_model)
    _verdict(
        "4",
        [
            _close(
                "job1 backup h", result.values("BackupTimeJob1TestData")[-1] / HOUR, 57.2315, 0.001
            ),
            _close(
                "job2 backup h", result.values("BackupTimeJob2TestData")[-1] / HOUR, 80.5831, 0.001
            ),
            _close("recovery h", result.values("RecoveryTimeTestData")[-1] / HOUR, 26.47, 0.001),
            _close("cost USD", result.values("TotalServiceCostTestData")[-1], 43.7893, 0.0001),
        ],
    )


def test_criterion_5a_series_product_reference():
    # The printed components multiply to 0.9671750553, 1.06e-6 from the
    # printed system figure.  A product is monotone in each factor, so the
    # components as printed admit any system value in [low, high]; the
    # series rule reproduces the table when that range meets the interval
    # the printed 0.967174 stands for.
    components = (0.993952, 0.993952, 0.978981)
    published = 0.967174
    low = series_reliability([v - PRINT_HALF_UNIT for v in components])
    high = series_reliability([v + PRINT_HALF_UNIT for v in components])
    # The model chain computes ISPLink as exp(-372/17520) = 0.978991 where
    # the table prints 0.978981, so its system value misses the published
    # one by more than printing explains.  Pin the value and the distance
    # so the divergence stays visible.
    chain = default_recovery_chain().system_reliability()
    distance = abs(chain - published)
    allowed = max(high - published, published - low)
    _verdict(
        "5a",
        [
            (
                f"series product of printed components in [{low:.10f}, {high:.10f}]"
                f" meets published {published} +/- {PRINT_HALF_UNIT:g}",
                low <= published + PRINT_HALF_UNIT and high >= published - PRINT_HALF_UNIT,
            ),
            _close("model chain system reliability", chain, 0.9671845545, 1e-10),
            (
                f"model chain differs from published {published} by {distance:.3g},"
                f" more than the {allowed:.3g} the printed components allow",
                distance > allowed,
            ),
        ],
    )


def test_criterion_5b_exponential_components():
    _verdict(
        "5b",
        [
            _close(
                "MTBF 61320 h at 372 h", component_reliability(61320.0, 372.0), 0.993952, 2e-5
            ),
            _close(
                "MTBF 17520 h at 372 h", component_reliability(17520.0, 372.0), 0.978981, 2e-5
            ),
        ],
    )


def test_criterion_6_bia_verdicts(hybrid_scenario, cloud_scenario):
    hybrid = {v.metric: v for v in Evaluation(hybrid_scenario).compliance.verdicts}
    cloud = {v.metric: v for v in Evaluation(cloud_scenario).compliance.verdicts}
    local = hybrid["restore time (Local)"]
    archive = hybrid["restore time (Archive)"]
    vault = cloud["restore time (Vault)"]
    _verdict(
        "6",
        [
            _close("hybrid local measured h", local.measured, 3.09239, 0.001),
            ("hybrid local PASS", local.status is Status.PASS),
            _close("hybrid archive measured h", archive.measured, 38.016, 0.001),
            ("hybrid archive FAIL", archive.status is Status.FAIL),
            _close("cloud vault measured h", vault.measured, 26.47, 0.001),
            ("cloud vault FAIL", vault.status is Status.FAIL),
        ],
    )


def _random_log(datas: list[int]) -> tuple[JobSample, ...]:
    return tuple(
        JobSample(day=i + 1, data_mb=float(mb), duration_s=600.0)
        for i, mb in enumerate(datas)
    )


_LOG_DATAS = st.lists(st.integers(1, 200_000), min_size=14, max_size=14)


def test_criterion_7a_determinism(hybrid_scenario, cloud_scenario):
    checks = []
    for scenario in (hybrid_scenario, cloud_scenario):
        first = run(Evaluation(scenario, TEST_DATA_MB).extended_model)
        again = run(Evaluation(scenario, TEST_DATA_MB).extended_model)
        checks.append(
            (f"{scenario.name} trajectories identical", first.trajectories == again.trajectories)
        )
        checks.append((f"{scenario.name} digest stable", first.digest == again.digest))
    _verdict("7a", checks)


def test_extended_model_digests_are_pinned(hybrid_scenario, cloud_scenario):
    # Evaluation holds the volume as a float, so an int volume digests as the
    # equal float that the CLI passes.
    pinned = [
        (hybrid_scenario, TEST_DATA_MB, "3c5de63af093"),
        (cloud_scenario, TEST_DATA_MB, "11dd68e951ce"),
        (hybrid_scenario, int(TEST_DATA_MB), "3c5de63af093"),
        (cloud_scenario, int(TEST_DATA_MB), "11dd68e951ce"),
    ]
    for scenario, volume, digest in pinned:
        assert Evaluation(scenario, volume).extended_model.digest()[:12] == digest


def _tiering_after(scenario: Scenario, threshold: int) -> Scenario:
    """The hybrid ``scenario`` with its copies tiered after ``threshold`` days."""
    bia = dataclasses.replace(scenario.bia, cloud_tiering_threshold_days=threshold)
    return dataclasses.replace(scenario, bia=bia)


def test_criterion_7b_conservation(hybrid_scenario, hybrid_restores):
    @given(datas=_LOG_DATAS, threshold=st.integers(1, 14))
    @settings(max_examples=1000, deadline=None)
    def check(datas: list[int], threshold: int) -> None:
        log = _random_log(datas)
        scenario = _tiering_after(hybrid_scenario, threshold)
        model = build_basic(scenario, {"backup": log}, hybrid_restores)
        result = run(model)
        local, cloud = result.values("LocalStorage"), result.values("CloudTier")
        cumulative = 0.0
        for period in range(1, model.horizon + 1):
            if period <= len(datas):
                cumulative += datas[period - 1]
            held = local[period - 1] + cloud[period - 1]
            assert held == cumulative, f"period {period}: {held} != {cumulative}"

    try:
        check()
    except Exception as exc:
        _verdict("7b", [(f"conservation violated: {exc}", False)])
        raise
    _verdict(
        "7b", [("LocalStorage + CloudTier equals cumulative backups on 1000 random logs", True)]
    )


def test_criterion_7b_conservation_cloud_vault(cloud_scenario, cloud_restore):
    week = st.lists(st.integers(0, 200_000), min_size=7, max_size=7)

    @given(job1=week, job2=week)
    @settings(max_examples=500, deadline=None)
    def check(job1: list[int], job2: list[int]) -> None:
        logs = {"job1": _random_log(job1), "job2": _random_log(job2)}
        model = build_basic(cloud_scenario, logs, (cloud_restore,))
        result = run(model)
        cumulative = 0.0
        for period in range(1, model.horizon + 1):
            both = job1[period - 1] + job2[period - 1] if period <= len(job1) else 0
            cumulative += both
            transfer = result.values("DailyTransfer")[period - 1]
            held = result.values("RecoveryVault")[period - 1]
            assert transfer == both, f"period {period}: transfer {transfer} != {both}"
            assert held == cumulative, f"period {period}: {held} != {cumulative}"

    try:
        check()
    except Exception as exc:
        _verdict("7b", [(f"cloud-vault conservation violated: {exc}", False)])
        raise
    _verdict(
        "7b", [("RecoveryVault equals both jobs' cumulative data on 500 random logs", True)]
    )


def test_criterion_7c_extension_neutrality(hybrid_scenario, cloud_scenario):
    checks = []
    for scenario in (hybrid_scenario, cloud_scenario):
        evaluation = Evaluation(scenario, TEST_DATA_MB)
        base, ext = run(evaluation.basic_model), run(evaluation.extended_model)
        untouched = all(
            ext.trajectories[name] == values for name, values in base.trajectories.items()
        )
        checks.append((f"{scenario.name} basic trajectories unchanged", untouched))
    _verdict("7c", checks)


def test_criterion_7d_retention_oracle(hybrid_scenario, hybrid_restores):
    @given(datas=_LOG_DATAS, threshold=st.integers(1, 14))
    @settings(max_examples=250, deadline=None)
    def check(datas: list[int], threshold: int) -> None:
        log = _random_log(datas)
        scenario = _tiering_after(hybrid_scenario, threshold)
        model = build_basic(scenario, {"backup": log}, hybrid_restores)
        result = run(model)
        local, cloud = retention_tiering_oracle(log, threshold, model.horizon)
        assert list(result.values("LocalStorage")) == local
        assert list(result.values("CloudTier")) == cloud

    try:
        check()
    except Exception as exc:
        _verdict("7d", [(f"oracle mismatch: {exc}", False)])
        raise
    _verdict("7d", [("stocks match the brute-force retention oracle", True)])


def test_criterion_7e_cost_monotonicity_and_tier_steps():
    @given(
        a=st.floats(0, 5_000, allow_nan=False),
        b=st.floats(0, 5_000, allow_nan=False),
        ops=st.integers(0, 1_000_000),
    )
    @settings(max_examples=300, deadline=None)
    def check(a: float, b: float, ops: int) -> None:
        lo, hi = sorted((a, b))
        some, none = TransactionCounts(ops, ops), TransactionCounts(0, 0)
        assert hybrid_cloud_cost(lo, some, STORE).total <= hybrid_cloud_cost(hi, some, STORE).total
        assert hybrid_cloud_cost(lo, none, STORE).total <= hybrid_cloud_cost(lo, some, STORE).total
        assert cloud_vault_cost(lo, lo, VAULT).total <= cloud_vault_cost(hi, hi, VAULT).total
        assert vault_instance_fee(lo, VAULT) <= vault_instance_fee(hi, VAULT)

    steps = [
        _exact("fee at 50 GB", vault_instance_fee(50.0, VAULT), 5.0),
        _exact("fee just past 50 GB", vault_instance_fee(math.nextafter(50.0, 51), VAULT), 10.0),
        _exact("fee at 500 GB", vault_instance_fee(500.0, VAULT), 10.0),
        _exact("fee at 501 GB", vault_instance_fee(501.0, VAULT), 20.0),
        _exact("fee at 1000 GB", vault_instance_fee(1000.0, VAULT), 20.0),
        _exact("fee at 1001 GB", vault_instance_fee(1001.0, VAULT), 30.0),
    ]
    try:
        check()
    except Exception as exc:
        _verdict("7e", [(f"monotonicity violated: {exc}", False)])
        raise
    _verdict("7e", [("costs non-decreasing in volume and operations", True)] + steps)


def test_criterion_7f_reliability_bounds():
    @given(
        mtbf=st.floats(1, 1e7, allow_nan=False),
        m1=st.floats(0, 1e5, allow_nan=False),
        m2=st.floats(0, 1e5, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def check_monotone(mtbf: float, m1: float, m2: float) -> None:
        lo, hi = sorted((m1, m2))
        assert component_reliability(mtbf, hi) <= component_reliability(mtbf, lo)
        assert component_reliability(mtbf, lo) <= component_reliability(2 * mtbf, lo)

    @given(values=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def check_bounds(values: list[float]) -> None:
        system = series_reliability(values)
        assert 0.0 <= system <= min(values)

    @given(
        sla=st.floats(1e-6, 0.999999, allow_nan=False),
        period=st.floats(1, 1e5, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def check_round_trip(sla: float, period: float) -> None:
        back = component_reliability(sla_to_mtbf(sla, period), period)
        assert abs(back - sla) <= 1e-9 * sla

    try:
        check_monotone()
        check_bounds()
        check_round_trip()
    except Exception as exc:
        _verdict("7f", [(f"reliability property violated: {exc}", False)])
        raise
    _verdict(
        "7f",
        [("monotone in mission and MTBF, series bounded, SLA round-trips", True)],
    )


def test_criterion_7g_throughput_round_trip():
    @given(
        data=st.floats(1e-3, 1e12, allow_nan=False),
        duration=st.floats(1e-3, 1e12, allow_nan=False),
    )
    @settings(max_examples=500, deadline=None)
    def check(data: float, duration: float) -> None:
        # the rate of a one-day log, read as a projection reads a measured one
        rate = summarize_throughput([JobSample(1, data, duration)]).mean_arithmetic
        per_mb = restore_time_per_mb(
            RestoreSample(source_tier=Tier.LOCAL, data_mb=data, duration_s=duration)
        )
        assert abs(rate * duration - data) <= 1e-9 * data
        assert abs(per_mb * data - duration) <= 1e-9 * duration
        assert abs(rate * per_mb - 1.0) <= 1e-9

    try:
        check()
    except Exception as exc:
        _verdict("7g", [(f"round-trip violated: {exc}", False)])
        raise
    _verdict("7g", [("throughput and time-per-MB invert each other within 1e-9", True)])


def test_criterion_8_known_averaging_divergence(cloud_logs):
    # The reference table carries 2.57731 MB/s for job1, which no mean of
    # the published samples reproduces; the arithmetic mean is 2.7405.
    # This test pins our computed value AND its distance from the
    # published one so the divergence cannot be glossed over silently.
    job1, _ = cloud_logs
    mean = summarize_throughput(job1).mean_arithmetic
    _verdict(
        "8",
        [
            _close("job1 arithmetic mean MB/s", mean, 2.7405, 0.001),
            (
                f"differs from published 2.57731 by {abs(mean - 2.57731):.5f}",
                abs(mean - 2.57731) > 0.01,
            ),
        ],
    )
