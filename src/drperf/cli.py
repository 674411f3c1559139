"""Command-line entry points.

Every command reads one or more scenario files and prints a deterministic
report.  Exit codes: 0 on success, 1 on any validation or input error,
2 when ``bia-check`` finds a failed target.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__, report
from .engine import run
from .errors import ToolkitError
from .plot import render_svg
from .scenario import Evaluation, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCOMPLIANT = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with code 1 to match the validation-error contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; let ``--help`` and ``--version`` on
        # stdout fail as a command's output does, so a gone reader exits 1.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _cmd_simulate(args) -> int:
    model = Evaluation(load_scenario(args.scenario)).basic_model
    result = run(model)
    print(report.render_run_summary(model, result), end="")
    return EXIT_OK


def _cmd_project(args) -> int:
    scenario = load_scenario(args.scenario)
    projection = Evaluation(scenario, args.test_data_mb).projection
    print(report.render_projection(projection, scenario.name), end="")
    return EXIT_OK


def _cmd_cost(args) -> int:
    scenario = load_scenario(args.scenario)
    breakdown = Evaluation(scenario, args.test_data_mb).cost
    print(report.render_cost(breakdown, scenario.name), end="")
    return EXIT_OK


def _cmd_reliability(args) -> int:
    scenario = load_scenario(args.scenario)
    print(report.render_reliability(scenario.reliability), end="")
    return EXIT_OK


def _cmd_bia_check(args) -> int:
    scenario = load_scenario(args.scenario)
    compliance = Evaluation(scenario, args.test_data_mb).compliance
    print(report.render_compliance(compliance, scenario.name), end="")
    return EXIT_OK if compliance.compliant else EXIT_NONCOMPLIANT


def _cmd_compare(args) -> int:
    scenarios = [load_scenario(path) for path in args.scenarios]
    comparison = report.compile_comparison(scenarios, args.test_data_mb)
    if args.format == "csv":
        print(report.render_comparison_csv(comparison), end="")
    else:
        print(report.render_comparison(comparison), end="")
    return EXIT_OK


def _cmd_plot(args) -> int:
    scenario = load_scenario(args.scenario)
    model = Evaluation(scenario).basic_model
    result = run(model)
    series = {}
    units = []
    for name in args.component:
        component = model.component(name)
        series[name] = result.series[name]
        if component.unit and component.unit not in units:
            units.append(component.unit)
    svg = render_svg(series, title=scenario.name, y_label=" / ".join(units))
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    Every call returns the same parser, so ``main`` pays for its seven
    subparsers once per process.  It is shared: do not mutate it.  Reuse
    is safe because ``parse_args`` returns a new namespace each time and
    usage errors, ``--help`` and ``--version`` look up ``sys.stdout`` and
    ``sys.stderr`` when they print.
    """
    global _parser
    if _parser is not None:
        return _parser
    parser = _Parser(
        prog="drperf",
        description=(
            "Project backup/restore times, cloud costs, reliability, and BIA "
            "compliance for data-protection scenarios."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_arg(p):
        p.add_argument("scenario", help="scenario YAML file")

    def test_data_arg(p):
        p.add_argument(
            "--test-data-mb",
            type=float,
            default=None,
            help="override the scenario's test data volume (MB)",
        )

    p = sub.add_parser("simulate", help="run the basic model and print every component")
    scenario_arg(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("project", help="project backup/restore times for a data volume")
    scenario_arg(p)
    test_data_arg(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("cost", help="monthly cloud cost breakdown")
    scenario_arg(p)
    test_data_arg(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("reliability", help="component and system mission reliability")
    scenario_arg(p)
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("bia-check", help="check projected metrics against BIA targets")
    scenario_arg(p)
    test_data_arg(p)
    p.set_defaults(func=_cmd_bia_check)

    p = sub.add_parser("compare", help="side-by-side comparison of scenarios")
    p.add_argument("scenarios", nargs="+", help="scenario YAML files")
    test_data_arg(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("plot", help="write an SVG trajectory chart")
    scenario_arg(p)
    p.add_argument(
        "--component",
        action="append",
        required=True,
        help="component to plot (repeatable)",
    )
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    _parser = parser
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            sys.stdout.flush()  # --help and --version print, then exit
            raise
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull, as the signal module's
        # documentation shows, so that the final flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
