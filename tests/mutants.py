"""Single-site mutants of one drperf module, each run against the tests that should kill it.

Run from anywhere, with only the standard library and the test dependencies:

    python tests/mutants.py                    # every mutant of src/drperf/engine.py
    python tests/mutants.py --module src/drperf/bia.py --tests tests/test_bia.py

A mutant is one textual change at one site of the module's code (not a
docstring or a comment): an arithmetic, comparison or boolean operator, a
keyword constant or a number swapped for a neighbour, or an ``if`` condition
negated.  Sites inside strings count too, since the engine's kernel is
generated from f-strings.  The list is ordered by line, column and operator,
so each run of the same source makes the same numbered mutants.  A change
that does not compile is left out.

Each mutant in turn is written into one copy of ``src``, ``tests`` and
``pyproject.toml`` in a temporary directory; the repository is never
written.  pytest runs the chosen tests against the copy in a subprocess
(``-x``, no bytecode), and the mutant is killed when they fail or time out.
The script prints each survivor, then the killed and survived counts.  The
unmutated copy must pass first.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_MODULE = "src/drperf/engine.py"
DEFAULT_TESTS = ("tests/test_engine.py", "tests/test_determinism.py")

# (pattern, replacement) in a fixed order; every match of a pattern is one site.
OPERATORS = [
    (r" \+ ", " - "), (r" - ", " + "), (r" \* ", " / "), (r" / ", " * "),
    (r"\+=", "-="), (r"-=", "+="),
    (r" < ", " <= "), (r" <= ", " < "), (r" > ", " >= "), (r" >= ", " > "),
    (r" == ", " != "), (r" != ", " == "),
    (r" is not ", " is "), (r" is (?!not )", " is not "),
    (r" not in ", " in "), (r"(?<!not) in ", " not in "),
    (r" and ", " or "), (r" or ", " and "), (r"(?<!\bis )\bnot (?!in\b)", ""),
    (r"\bTrue\b", "False"), (r"\bFalse\b", "True"),
    (r"\bmax\(", "min("), (r"\bmin\(", "max("),
    (r"(?<![\w.])\d+\.\d+(?![\w.])", lambda m: repr(float(m[0]) + 1.0)),
    (r"(?<![\w.])\d+(?![\w.])", lambda m: str(int(m[0]) + 1)),
    (r"^(\s*(?:el)?if )(.+):$", lambda m: f"{m[1]}not ({m[2]}):"),
]


class Mutant(NamedTuple):
    number: int
    line: int
    column: int
    before: str
    after: str
    source: str


def _skipped_lines(source: str) -> set[int]:
    """Line numbers of docstrings: the first string statement of each body."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _comment_starts(source: str) -> dict[int, int]:
    """Line number -> column where a comment starts."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.start[1] for t in tokens if t.type == tokenize.COMMENT}


def mutants(source: str) -> list[Mutant]:
    """Every single-site mutant of ``source`` that compiles, in a fixed order."""
    lines = source.splitlines(keepends=True)
    skipped, comments = _skipped_lines(source), _comment_starts(source)
    found = []
    for number, text in enumerate(lines, start=1):
        code = text.rstrip("\n")[: comments.get(number)].rstrip()
        if number in skipped or not code.strip():
            continue
        for pattern, replacement in OPERATORS:
            for match in re.finditer(pattern, code):
                after = match.expand(replacement) if isinstance(replacement, str) else (
                    replacement(match)
                )
                mutated = code[: match.start()] + after + code[match.end():]
                candidate = "".join(
                    [*lines[: number - 1], mutated + text[len(code):], *lines[number:]]
                )
                try:
                    compile(candidate, "<mutant>", "exec")
                except SyntaxError:
                    continue
                found.append((number, match.start(), match[0], after, candidate))
    return [Mutant(k, *site) for k, site in enumerate(found, start=1)]


def _copy(work: Path) -> Path:
    """A fresh copy of what the tests need, without bytecode; returns its root."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", work)
    return work


def _run(copy: Path, module: str, source: str, tests: list[str], timeout: float) -> bool:
    """Whether the tests pass with ``module`` of ``copy`` holding ``source``."""
    (copy / module).write_text(source, encoding="utf-8")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", default=DEFAULT_MODULE, help="path from the repository root")
    parser.add_argument("--tests", nargs="+", default=list(DEFAULT_TESTS))
    args = parser.parse_args(argv)

    original = (ROOT / args.module).read_text(encoding="utf-8")
    chosen = mutants(original)
    with tempfile.TemporaryDirectory(prefix="drperf-mutants-") as scratch:
        copy = _copy(Path(scratch))
        started = time.perf_counter()
        if not _run(copy, args.module, original, args.tests, timeout=600):
            print("the unmutated module fails its tests; nothing to measure", file=sys.stderr)
            return 1
        timeout = max(60.0, 10 * (time.perf_counter() - started))
        survivors = [m for m in chosen if _run(copy, args.module, m.source, args.tests, timeout)]
    for m in survivors:
        print(f"survived #{m.number} {args.module}:{m.line}:{m.column}"
              f" {m.before!r} -> {m.after!r}")
    print(f"{args.module}: {len(chosen)} mutants, {len(chosen) - len(survivors)} killed,"
          f" {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
