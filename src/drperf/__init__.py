"""Disaster-recovery performability toolkit.

Projects backup and restore times for data-protection systems from
measured job logs, prices their cloud usage, computes mission reliability
of the recovery chain, and checks the results against business impact
analysis targets.  Two system models ship with the package: a hybrid
backup appliance with a cloud storage tier, and a cloud-hosted recovery
vault.

Every name below is importable from the package itself.  A name's module
is imported when the name is first read (PEP 562), so importing one
module, say ``drperf.engine``, does not load the YAML parser and the
scenario layers with it.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The defining module of each exported name.
_EXPORTS = {
    "bia": (
        "BiaTargets",
        "ComplianceReport",
        "ComplianceVerdict",
        "Status",
        "evaluate",
        "mtd",
    ),
    "costs": (
        "CostBreakdown",
        "FeeTier",
        "ObjectStoreRates",
        "VaultRates",
        "cloud_vault_cost",
        "hybrid_cloud_cost",
        "vault_instance_fee",
    ),
    "engine": ("Kind", "Model", "ModelComponent", "RunResult", "run"),
    "errors": ("ConfigError", "DomainError", "ModelError", "ParseError", "ToolkitError"),
    "joblog": ("parse_job_log", "parse_restore_samples"),
    "metrics": (
        "JobSample",
        "Projection",
        "Rate",
        "RateKind",
        "RateRole",
        "RestoreSample",
        "ThroughputSummary",
        "Tier",
        "project",
        "recovery_throughput",
        "restore_time_per_mb",
        "summarize_throughput",
    ),
    "models": ("SystemKind", "build_basic"),
    "reliability": (
        "ReliabilityComponent",
        "SeriesSystem",
        "component_reliability",
        "series_reliability",
        "sla_to_mtbf",
    ),
    "scenario": ("Evaluation", "Scenario", "load_scenario", "parse_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without calling here
    return value


def __dir__() -> list[str]:
    return __all__
