"""The input contract under generated mutations of the bundled inputs.

One field of a bundled scenario is replaced by a generated YAML value, or
one cell or the header of a bundled job log or restore CSV by generated
text, and a subcommand runs on the result: it exits 0, 1 or 2, never with
a traceback; exit 1 is exactly one ``error:`` line; output is the same on
a second run; and a scenario mutant that parses renders back to itself.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import shutil

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drperf.cli import main
from drperf.data import data_path
from drperf.errors import ToolkitError
from drperf.scenario import parse_scenario

from .oracles import render_scenario

FILES = {
    "hybrid": ("hybrid_reference.yaml", "hybrid_backup.csv", "hybrid_restore.csv"),
    "cloud": ("cloud_reference.yaml", "cloud_job1.csv", "cloud_job2.csv", "cloud_restore.csv"),
}
BASES = {
    system: yaml.safe_load(data_path(names[0]).read_text()) for system, names in FILES.items()
}
PLOTTED = {"hybrid": "CloudTier", "cloud": "RecoveryVault"}
COMMANDS = ("simulate", "project", "cost", "reliability", "bia-check", "compare", "plot")

SCALARS = st.one_of(
    st.text(max_size=12),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-10**6, -1),
    st.floats(-1e6, -1e-3),
    st.integers(0, 10**6),
    st.floats(1e-3, 1e6),
    st.integers(2**1024, 2**1100),  # beyond float range
    st.floats(1e306, 1.7976931348623157e308),  # near the float maximum
    st.none(),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=8), SCALARS, max_size=3),
)


CSV_TEXTS = {name: data_path(name).read_text() for names in FILES.values() for name in names[1:]}
CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(["", "nan", "-inf", "1e308", "1e-320", "-1", "0", "2.5", "Tape", "Vault"]),
    st.floats().map(repr),
    st.integers(-10, 10**6).map(str),
)
HEADER_CELLS = st.one_of(
    st.sampled_from(["day", "data_mb", "duration_s", "duration_min", "tier", " DAY ", "Data_MB"]),
    CELLS,
)


def _paths(node, prefix=()):
    """Every key path in a loaded document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def decks(tmp_path_factory):
    """Per system, a directory with copies of its input files."""
    out = {}
    for system, names in FILES.items():
        out[system] = tmp_path_factory.mktemp(system)
        for name in names:
            shutil.copy(data_path(name), out[system] / name)
    return out


@st.composite
def mutants(draw):
    """(system, YAML text) of a bundled scenario with one field replaced."""
    system = draw(st.sampled_from(sorted(FILES)))
    path = draw(st.sampled_from(list(_paths(BASES[system]))))
    doc = copy.deepcopy(BASES[system])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(VALUES)
    return system, yaml.safe_dump(doc, sort_keys=False)


@st.composite
def csv_mutants(draw):
    """(system, file name, CSV text) of a bundled CSV with one cell or the header replaced.

    Cells are joined without quoting, so a generated comma, quote or line
    break changes the row structure too.
    """
    system = draw(st.sampled_from(sorted(FILES)))
    name = draw(st.sampled_from(FILES[system][1:]))
    rows = [line.split(",") for line in CSV_TEXTS[name].splitlines()]
    row = draw(st.integers(0, len(rows) - 1))
    if row == 0 and draw(st.booleans()):
        rows[0] = draw(st.lists(HEADER_CELLS, max_size=4))
    else:
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(CELLS)
    return system, name, "".join(",".join(cells) + "\n" for cells in rows)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _keeps_the_contract(decks, system, scenario, command):
    """Run ``command`` on ``scenario`` twice and check the contract."""
    argv = [command, str(scenario)]
    if command == "compare":
        other = "cloud" if system == "hybrid" else "hybrid"
        argv.append(str(decks[other] / FILES[other][0]))
    elif command == "plot":
        argv += ["--component", PLOTTED[system], "--out", str(decks[system] / "mutant.svg")]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert _run(argv) == (code, out, err)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutant=mutants(), command=st.sampled_from(COMMANDS))
def test_mutated_field_keeps_the_contract(decks, mutant, command):
    system, text = mutant
    scenario = decks[system] / "mutant.yaml"
    scenario.write_text(text, encoding="utf-8")
    _keeps_the_contract(decks, system, scenario, command)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutant=csv_mutants(), command=st.sampled_from(COMMANDS))
def test_mutated_csv_keeps_the_contract(decks, mutant, command):
    system, name, text = mutant
    path = decks[system] / name
    path.write_text(text, encoding="utf-8")
    try:
        _keeps_the_contract(decks, system, decks[system] / FILES[system][0], command)
    finally:
        shutil.copy(data_path(name), path)  # the other tests read the bundled bytes


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutant=mutants())
def test_a_mutant_that_parses_renders_back_to_itself(decks, mutant):
    system, text = mutant
    directory = decks[system]
    try:
        scenario = parse_scenario(text, base_dir=directory)
    except ToolkitError:
        return
    assert parse_scenario(render_scenario(scenario), base_dir=directory) == scenario
