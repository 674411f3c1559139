"""fleet workload: many small generated scenarios, driven in process through ``drperf.cli.main``.

The generator writes one directory per scenario: a YAML document plus its
job-log and restore-sample CSVs.  It mixes hybrid and cloud-vault systems,
job logs in seconds and in minutes, pricing and fee tiers, tiering
thresholds, reliability chains of 2-12 components and BIA targets, so
inputs share little.  A fixed share of scenarios is malformed in ways the
program rejects today (exit 1 with one ``error:`` line); those run in the
timed mix.  The known ways round that contract run afterwards as an
untimed probe whose outcomes are tallied per mutation kind.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path


N_VALID = 120
# Five of each malformation, so that each reaches both systems and several commands.
N_PER_HANDLED_KIND = 5
# Compare ops cost two to three single-scenario ops.  At 8 of the deck's 158 ops
# they stay above op_ms_p90, which then lies among the single-scenario ops; at
# 20 of 170 it fell on the edge between the two and its spread over five seeds
# rose from 0.03 to 0.19.
N_COMPARE_GROUPS = 8
HYBRID_DAYS = 14
CLOUD_DAYS = 7

# Malformations the program rejects with exit 1 and one "error:" line.
HANDLED_KINDS = (
    "missing_file",
    "unknown_key",
    "bad_csv_header",
    "non_numeric_cell",
    "day_gap",
    "duplicate_restore_tier",
)
# Malformations that get round that contract today: (kind, system, command).
BYPASS_CASES = (
    ("test_data_mb_abc", "hybrid", "project"),
    ("test_data_mb_abc", "cloud-vault", "project"),
    ("rto_target_h_five", "hybrid", "bia-check"),
    ("rto_target_h_five", "cloud-vault", "bia-check"),
    ("mtbf_h_lots", "hybrid", "reliability"),
    ("mtbf_h_lots", "cloud-vault", "reliability"),
    ("ingress_egress_ops_many", "hybrid", "cost"),
    ("tiering_threshold_2_5", "hybrid", "simulate"),
    ("test_data_mb_nan", "hybrid", "project"),
    ("test_data_mb_nan", "cloud-vault", "project"),
    ("nan_csv_cell", "hybrid", "project"),
    ("nan_csv_cell", "cloud-vault", "project"),
)
BYPASS_KINDS = tuple(dict.fromkeys(kind for kind, _, _ in BYPASS_CASES))
# The fleet's single-scenario commands; compare runs over groups besides.
SINGLE_COMMANDS = ("simulate", "project", "cost", "bia-check", "reliability", "plot")
# Commands whose output depends on the scenario's CSV files.
CSV_COMMANDS = ("simulate", "project", "bia-check", "plot", "compare")


@dataclass
class GenScenario:
    """One generated scenario directory and what the benchmark knows about it."""

    path: Path  # the scenario YAML
    system: str
    kind: str  # "valid" or a mutation kind
    name: str
    test_data_mb: float
    csv_files: int
    backup_rates: dict[str, list[float]] = field(default_factory=dict)  # label -> per-day MB/s


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    expect: str  # "ok", "ok_or_noncompliant" or "error_line"
    # Scenarios and distinct CSV files whose measured data the op's output depends on.
    n_scenarios: int
    csv_files: int
    oracle: tuple[tuple[str, float], ...] = ()  # expected backup seconds by rate label
    svg: Path | None = None


# --- YAML and CSV writers ---------------------------------------------------


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ".nan"
        return repr(value)
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)  # a JSON string is a valid double-quoted YAML scalar


def to_yaml(node, indent: int = 0) -> str:
    """Block-style YAML for nested dicts and lists of dicts or scalars."""
    pad = " " * indent
    lines = []
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(to_yaml(value, indent + 2))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    else:
        for item in node:
            if isinstance(item, dict):
                body = to_yaml(item, indent + 2)
                lines.append(f"{pad}- {body.lstrip()}")
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    return "\n".join(lines)


def _csv(header: str, rows: list[tuple]) -> str:
    return "\n".join([header] + [",".join(str(c) for c in row) for row in rows]) + "\n"


# --- scenario generation ----------------------------------------------------


def _job_rows(rng: random.Random, days: int, minutes: bool):
    """Rows of a daily job log plus each day's throughput as drperf computes it."""
    rows, rates = [], []
    for day in range(1, days + 1):
        data = f"{rng.uniform(300.0, 40000.0):.2f}"
        throughput = rng.uniform(1.5, 90.0)
        if minutes:
            duration = f"{float(data) / throughput / 60.0:.3f}"
            seconds = float(duration) * 60.0
        else:
            duration = f"{float(data) / throughput:.2f}"
            seconds = float(duration)
        rows.append((day, data, duration))
        rates.append(float(data) / seconds)
    return rows, rates


def _reliability(rng: random.Random) -> dict:
    components = []
    for j in range(rng.randint(2, 12)):
        entry = {"name": f"link{j}-{rng.choice(('dc', 'isp', 'cloud', 'wan', 'psu'))}"}
        if rng.random() < 0.6:
            entry["mtbf_h"] = round(rng.uniform(2000.0, 120000.0), 1)
        else:
            entry["sla"] = round(rng.uniform(0.95, 0.9999), 5)
            if rng.random() < 0.5:
                entry["sla_period_h"] = round(rng.uniform(100.0, 2000.0), 1)
        components.append(entry)
    return {"mission_h": round(rng.uniform(24.0, 1000.0), 1), "components": components}


def _bia(rng: random.Random, hybrid: bool) -> dict:
    bia = {
        "agent": rng.choice(("Avamar", "MARS", "Veeam", "Bacula", "Borg")),
        "backup_frequency_days": rng.choice((1, 1, 1, 2, 0.5)),
        "backup_retention_days": rng.randint(7, 35),
        "recovery_points_scheme": f"{rng.randint(1, 9)}+{rng.randint(1, 9)}+{rng.randint(10, 90)}",
        "rpo_target_days": rng.randint(1, 14),
        "rto_target_h": round(rng.uniform(1.0, 72.0), 2),
    }
    if hybrid and rng.random() < 0.7:
        bia["cloud_tiering_threshold_days"] = rng.randint(1, 20)
    if rng.random() < 0.5:
        bia["wrt_h"] = round(rng.uniform(0.0, 12.0), 2)
    if rng.random() < 0.4:
        bia["max_data_loss_mb"] = round(rng.uniform(5000.0, 200000.0), 1)
    return bia


def _fee_tiers(rng: random.Random) -> dict:
    bound, fee, tiers = 0.0, 0.0, []
    for _ in range(rng.randint(1, 3)):
        bound += round(rng.uniform(20.0, 400.0), 1)
        fee += round(rng.uniform(0.0, 8.0), 2)
        tiers.append({"upper_gb": bound, "fee": fee})
    return {
        "per_gb_month": round(rng.uniform(0.01, 0.06), 4),
        "instance_fee_tiers": tiers,
        "block_gb": round(rng.uniform(100.0, 800.0), 1),
        "block_fee": round(fee + rng.uniform(0.0, 5.0), 2),
    }


def _write_scenario(
    directory: Path, rng: random.Random, index: int, system: str
) -> tuple[dict, dict[str, str], GenScenario]:
    """Valid scenario document, its CSV texts, and the benchmark's record of it."""
    hybrid = system == "hybrid"
    name = f"fleet-{index:04d}"
    test_data_mb = round(rng.uniform(1000.0, 900000.0), 1)
    doc: dict = {"name": name, "system": system}
    csvs: dict[str, str] = {}
    rates: dict[str, list[float]] = {}
    if hybrid:
        minutes = rng.random() < 0.5
        rows, rates["Backup"] = _job_rows(rng, HYBRID_DAYS, minutes)
        csvs["backup.csv"] = _csv(
            "day,data_mb,duration_min" if minutes else "day,data_mb,duration_s", rows)
        doc["job_logs"] = {"backup": "backup.csv"}
        local = (f"{rng.uniform(200.0, 5000.0):.2f}", f"{rng.uniform(10.0, 200.0):.2f}")
        archive = (f"{rng.uniform(200.0, 5000.0):.2f}", f"{rng.uniform(100.0, 2000.0):.2f}")
        csvs["restore.csv"] = _csv("tier,data_mb,duration_s",
                                   [("Local", *local), ("Archive", *archive)])
    else:
        logs = {}
        for label in ("job1", "job2"):
            minutes = rng.random() < 0.3
            rows, rates[label.capitalize()] = _job_rows(rng, CLOUD_DAYS, minutes)
            csvs[f"{label}.csv"] = _csv(
                "day,data_mb,duration_min" if minutes else "day,data_mb,duration_s", rows)
            logs[label] = f"{label}.csv"
        doc["job_logs"] = logs
        vault = (f"{rng.uniform(500.0, 9000.0):.2f}", f"{rng.uniform(100.0, 3000.0):.2f}")
        csvs["restore.csv"] = _csv("tier,data_mb,duration_s", [("Vault", *vault)])
    doc["restore_samples"] = "restore.csv"
    doc["test_data_mb"] = test_data_mb
    if hybrid:
        if rng.random() < 0.7:
            doc["pricing"] = {
                "per_gb_month": round(rng.uniform(0.005, 0.05), 4),
                "per_10k_ingress_egress": round(rng.uniform(0.1, 1.0), 3),
                "per_10k_listing": round(rng.uniform(0.1, 1.0), 3),
            }
        if rng.random() < 0.5:
            doc["transactions"] = {
                "ingress_egress_ops": rng.randint(0, 200000),
                "listing_ops": rng.randint(0, 200000),
            }
        if rng.random() < 0.3:
            doc["supplied_averages"] = {"RestoreTimePerMbArchive": round(rng.uniform(0.05, 1.0), 5)}
    else:
        if rng.random() < 0.8:
            doc["pricing"] = _fee_tiers(rng)
        if rng.random() < 0.6:
            doc["frontend_gb"] = round(rng.uniform(10.0, 3000.0), 1)
        if rng.random() < 0.3:
            doc["supplied_averages"] = {"RecoveryThroughput": round(rng.uniform(1.0, 20.0), 4)}
    doc["bia"] = _bia(rng, hybrid)
    if rng.random() < 0.85:
        doc["reliability"] = _reliability(rng)
    record = GenScenario(directory / "scenario.yaml", system, "valid", name, test_data_mb,
                         len(csvs), rates)
    return doc, csvs, record


def _mutate(kind: str, doc: dict, csvs: dict[str, str], rng: random.Random) -> None:
    """Apply one named malformation to a valid scenario, in place."""
    log_file = next(iter(doc["job_logs"].values()))
    if kind == "missing_file":
        doc["job_logs"] = dict(doc["job_logs"])
        doc["job_logs"][next(iter(doc["job_logs"]))] = "missing.csv"
    elif kind == "unknown_key":
        doc["retention_policy"] = "gfs"
    elif kind == "bad_csv_header":
        header, rest = csvs[log_file].split("\n", 1)
        csvs[log_file] = header.replace("data_mb", "size_mb") + "\n" + rest
    elif kind == "non_numeric_cell":
        lines = csvs[log_file].split("\n")
        day, data, duration = lines[3].split(",")
        lines[3] = f"{day},{data[:2]}x{data[3:]},{duration}"
        csvs[log_file] = "\n".join(lines)
    elif kind == "day_gap":
        lines = csvs[log_file].split("\n")
        del lines[rng.randint(2, 5)]
        csvs[log_file] = "\n".join(lines)
    elif kind == "duplicate_restore_tier":
        lines = csvs["restore.csv"].rstrip("\n").split("\n")
        csvs["restore.csv"] = "\n".join(lines + [lines[1]]) + "\n"
    elif kind == "test_data_mb_abc":
        doc["test_data_mb"] = "abc"
    elif kind == "rto_target_h_five":
        doc["bia"]["rto_target_h"] = "five"
    elif kind == "mtbf_h_lots":
        doc["reliability"] = {"components": [{"name": "dc", "mtbf_h": "lots"}]}
    elif kind == "ingress_egress_ops_many":
        doc["transactions"] = {"ingress_egress_ops": "many", "listing_ops": 10000}
    elif kind == "tiering_threshold_2_5":
        doc["bia"]["cloud_tiering_threshold_days"] = 2.5
    elif kind == "test_data_mb_nan":
        doc["test_data_mb"] = float("nan")
    elif kind == "nan_csv_cell":
        lines = csvs["restore.csv"].rstrip("\n").split("\n")
        tier, data, _ = lines[-1].split(",")
        lines[-1] = f"{tier},{data},nan"
        csvs["restore.csv"] = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")


def _emit(directory: Path, doc: dict, csvs: dict[str, str]) -> None:
    directory.mkdir(parents=True)
    (directory / "scenario.yaml").write_text(to_yaml(doc) + "\n", encoding="utf-8")
    for name, text in csvs.items():
        (directory / name).write_text(text, encoding="utf-8")


@dataclass
class Fleet:
    scenarios: list[GenScenario]
    probes: list[tuple[GenScenario, str]]  # bypass scenarios and the command that probes them


def generate(root: Path, seed: int) -> Fleet:
    """Write the whole fleet under ``root``; the same seed writes the same bytes."""
    rng = random.Random(seed)
    scenarios: list[GenScenario] = []
    index = 0

    def make(system: str, kind: str) -> GenScenario:
        nonlocal index
        directory = root / f"s{index:04d}"
        doc, csvs, record = _write_scenario(directory, rng, index, system)
        if kind != "valid":
            _mutate(kind, doc, csvs, rng)
            record.kind = kind
        _emit(directory, doc, csvs)
        index += 1
        return record

    systems = ("hybrid", "cloud-vault")
    for i in range(N_VALID):
        scenarios.append(make(systems[i % 2], "valid"))
    for kind in HANDLED_KINDS:
        for i in range(N_PER_HANDLED_KIND):
            scenarios.append(make(systems[i % 2], kind))
    probes = [(make(system, kind), command) for kind, system, command in BYPASS_CASES]
    return Fleet(scenarios, probes)


# --- op deck ----------------------------------------------------------------


def _oracle(scenario: GenScenario, volume: float) -> tuple[tuple[str, float], ...]:
    """Backup seconds: volume over the mean per-day throughput of the written CSV."""
    return tuple(
        (label, volume / (math.fsum(rates) / len(rates)))
        for label, rates in sorted(scenario.backup_rates.items())
    )


def build_deck(fleet: Fleet, seed: int, plots: Path) -> list[Op]:
    rng = random.Random(seed + 1)
    ops: list[Op] = []
    valid = [i for i, s in enumerate(fleet.scenarios) if s.kind == "valid"]
    # There is no usage data to weight commands by, so the mix is uniform and the
    # same for every seed: each single-scenario command runs on 20 of the 120 valid
    # scenarios, half hybrid and half cloud-vault (scenarios alternate by system),
    # and half of the project ops pass --test-data-mb.
    for n, i in enumerate(valid):
        scenario = fleet.scenarios[i]
        command = SINGLE_COMMANDS[(n // 2) % len(SINGLE_COMMANDS)]
        argv = [command, str(scenario.path)]
        volume = scenario.test_data_mb
        if command == "project" and (n // (2 * len(SINGLE_COMMANDS))) % 2 == 0:
            volume = round(rng.uniform(500.0, 900000.0), 1)
            argv += ["--test-data-mb", str(volume)]
        svg = None
        if command == "plot":
            svg = plots / f"plot{len(ops)}.svg"
            names = (("LocalStorage", "CloudTier") if scenario.system == "hybrid"
                     else ("RecoveryVault", "DailyTransfer"))
            for name in names:
                argv += ["--component", name]
            argv += ["--out", str(svg)]
        ops.append(Op(
            label=command,
            argv=tuple(argv),
            expect="ok_or_noncompliant" if command == "bia-check" else "ok",
            n_scenarios=1 if command in CSV_COMMANDS else 0,
            csv_files=scenario.csv_files if command in CSV_COMMANDS else 0,
            oracle=_oracle(scenario, volume) if command == "project" else (),
            svg=svg,
        ))
    for n in range(N_COMPARE_GROUPS):
        group = tuple(rng.sample(valid, 2 + n % 3))
        fmt = ("text", "csv")[n % 2]
        volume = round(rng.uniform(500.0, 900000.0), 1)
        argv = ["compare", *(str(fleet.scenarios[i].path) for i in group),
                "--test-data-mb", str(volume), "--format", fmt]
        ops.append(Op(f"compare-{fmt}", tuple(argv), "ok", len(group),
                      sum(fleet.scenarios[i].csv_files for i in group)))
    for i, scenario in enumerate(fleet.scenarios):
        if scenario.kind == "valid":
            continue
        csv_kind = scenario.kind in ("bad_csv_header", "non_numeric_cell", "day_gap",
                                     "duplicate_restore_tier")
        commands = ("simulate", "project", "bia-check") if csv_kind else (
            "simulate", "project", "cost", "reliability")
        command = commands[i % len(commands)]
        uses_data = command in CSV_COMMANDS
        ops.append(Op(f"malformed:{scenario.kind}", (command, str(scenario.path)), "error_line",
                      int(uses_data), scenario.csv_files if uses_data else 0))
    return ops


# --- running ----------------------------------------------------------------


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    exception: str | None
    svg: bytes | None = None


def classify(outcome: Outcome) -> str:
    """Name what happened: exit0, exit2, error_line, traceback, exception:<type>, ..."""
    if outcome.exception is not None:
        return f"exception:{outcome.exception}"
    if "Traceback" in outcome.stderr:
        return "traceback"
    if outcome.code == 1:
        lines = outcome.stderr.splitlines()
        if len(lines) == 1 and lines[0].startswith("error:"):
            return "error_line"
        return "exit1_other"
    return f"exit{outcome.code}"


def _backup_seconds(stdout: str) -> dict[str, str]:
    """The seconds column of the 'backup <label>' rows of a projection report."""
    found = {}
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) == 4 and cells[0] == "backup":
            found[cells[1]] = cells[2]
    return found


class FleetWorkload:
    name = "fleet"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.reference: dict[int, str] = {}

    def prepare(self) -> None:
        """Write the inputs; untimed."""
        self.fleet = generate(self.work / "scenarios", self.seed)
        (self.work / "plots").mkdir()

    def setup(self) -> None:
        from program import fresh_import

        (self.cli,) = fresh_import("drperf.cli")
        self.deck = build_deck(self.fleet, self.seed, self.work / "plots")
        seen = set()
        for key, op in enumerate(self.deck):  # warm-up: one op of each kind
            if op.label not in seen:
                seen.add(op.label)
                self.check(key, op, self.execute(op))

    def execute(self, op: Op) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        code, exception = None, None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an exception escaping main is a failed op
                exception = type(exc).__name__
        return Outcome(code, out.getvalue(), err.getvalue(), exception)

    def outcome_label(self, op: Op, outcome: Outcome) -> str:
        return classify(outcome)

    def check(self, key: int, op: Op, outcome: Outcome) -> str | None:
        if op.svg is not None and op.svg.exists():
            outcome.svg = op.svg.read_bytes()
            op.svg.unlink()  # so each rep's check reads its own file
        label = classify(outcome)
        if op.expect == "error_line":
            if label != "error_line":
                return f"malformed input gave {label}"
        elif label != "exit0" and not (op.expect == "ok_or_noncompliant" and label == "exit2"):
            return f"valid input gave {label}: {outcome.stderr.strip()[:200]}"
        for rate, seconds in op.oracle:
            printed = _backup_seconds(outcome.stdout).get(rate)
            if printed != f"{seconds:.6g}":
                return f"backup time {rate} printed {printed}, oracle {seconds:.6g}"
        digest = hashlib.sha256(
            repr((outcome.code, outcome.stdout, outcome.stderr, outcome.svg)).encode()
        ).hexdigest()
        if self.reference.setdefault(key, digest) != digest:
            return "output differs from an earlier rep"
        return None

    def probe(self) -> dict[str, dict[str, int]]:
        """Outcome counts per bypass kind; the expected outcome is 'error_line'."""
        tally: dict[str, dict[str, int]] = {kind: {} for kind in BYPASS_KINDS}
        for scenario, command in self.fleet.probes:
            outcome = self.execute(Op(scenario.kind, (command, str(scenario.path)),
                                      "error_line", 0, 0))
            label = classify(outcome)
            tally[scenario.kind][label] = tally[scenario.kind].get(label, 0) + 1
        return tally

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
