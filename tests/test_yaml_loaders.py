"""PyYAML's pure-Python loader and its libyaml loader read documents alike.

``parse_scenario`` loads with ``yaml.safe_load``.  Both loaders share
PyYAML's resolver and safe constructor, so a switch to the faster
``yaml.CSafeLoader`` must keep every value and every rejection; these tests
compare them on generated scenario documents, YAML 1.1 edge scalars,
anchors, aliases and merge keys, and on the same documents with one
character inserted.  ``KNOWN_DIFFERENCES`` pins the documents that only one
of them rejects today.
"""

from __future__ import annotations

import math

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from .test_metamorphic import scenarios

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")

# Plain scalars that YAML 1.1 reads as something other than a string, and near misses.
EDGE_SCALARS = (
    "yes", "no", "on", "off", "Yes", "OFF", "y", "n", "true", "False", "~", "null", "",
    "017", "0o17", "0x1f", "0b101", "1_000", "-0", "+12", "1:30", "-1:30:00", "190:20:30.15",
    "2024-01-31", "2024-1-31", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5",
    ".inf", "-.Inf", "+.INF", ".nan", ".NaN", "1e3", "1.0e+3", "6.8523015e+5",
    "685.230_15e+03", ".5", "+.5", "-0.0", "1.", "0.0e-0", "'yes'", '"017"',
)
# Plain scalars that both loaders reject: an impossible date, and tags with no safe constructor.
REJECTED_SCALARS = ("2024-13-45", "=", "<<")
# Characters that open, close or end a YAML construct, inserted to break a document.
BREAKERS = ("[", "]", "{", "}", ":", ": ", ",", "-", "- ", "&", "*", "!", "|", ">", "'", '"',
            "#", "%", "@", "`", "?", "\t", "\n", "\n  ", "<<: ")
# Where the loaders differ (PyYAML 6.0.3): a document that only one of them rejects, that
# loader and its problem.  A switch of loader changes which scenarios load in these cases.
KNOWN_DIFFERENCES = {
    # a tab after a plain scalar, which YAML reads as white space
    "a: b\t\n": ("SafeLoader", "found character '\\t' that cannot start any token"),
    # a '?' inside a plain scalar in a flow collection
    "a: [b?]\n": ("SafeLoader", "expected ',' or ']', but got '?'"),
    "a: {b?: 1}\n": ("SafeLoader", "expected ',' or '}', but got '?'"),
    # a plain scalar ending in ':' before a flow indicator, which SafeLoader reads as a key
    "a: [b:]\n": ("CSafeLoader", "found unexpected ':'"),
}


def _same(value):
    """``value`` with each NaN made a string, so that equal documents compare equal."""
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, dict):
        return {_same(k): _same(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_same(v) for v in value]
    return value


def _load(text: str, loader) -> tuple:
    """("ok", the document) or ("error", the problem) for ``text`` under ``loader``."""
    try:
        return "ok", _same(yaml.load(text, Loader=loader))
    except yaml.MarkedYAMLError as exc:
        return "error", exc.problem
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a scalar it cannot build
        return "error", str(exc)


def _assert_alike(text: str) -> None:
    """Both loaders build equal documents, or both reject ``text``, or only one rejects it
    for a known difference."""
    python, libyaml = _load(text, yaml.SafeLoader), _load(text, yaml.CSafeLoader)
    if python[0] != libyaml[0]:
        loader, (_, problem) = (
            ("SafeLoader", python) if python[0] == "error" else ("CSafeLoader", libyaml)
        )
        assert (loader, problem) in KNOWN_DIFFERENCES.values(), text
    elif python[0] == "ok":
        assert python == libyaml, text


@st.composite
def scenario_texts(draw) -> str:
    """A generated scenario document, dumped in block or in flow style."""
    doc, _ = draw(scenarios())
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=draw(st.booleans()))


@st.composite
def edge_texts(draw) -> str:
    """Edge scalars in a block mapping, a flow sequence, and under anchors, aliases and
    merge keys."""
    scalars = draw(st.lists(st.sampled_from(EDGE_SCALARS), min_size=1, max_size=6))
    lines = [f"k{i}: {s}" for i, s in enumerate(scalars)]
    lines.append(f"flow: [{', '.join(s for s in scalars if s)}]")
    lines.append(f"base: &base {{a: {scalars[0]}, b: {scalars[-1]}}}")
    lines.append(f"other: &other {{b: {draw(st.sampled_from(EDGE_SCALARS))}, c: 1}}")
    merge = draw(st.sampled_from(("*base", "[*base, *other]", "[*other, *base]")))
    lines.append(f"merged:\n  <<: {merge}\n  c: {draw(st.sampled_from(EDGE_SCALARS))}")
    lines.append("aliases: [*base, *other, *base]")
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=60)
@given(scenario_texts() | edge_texts())
def test_both_loaders_build_the_same_document(text):
    python = _load(text, yaml.SafeLoader)
    assert python[0] == "ok" and python == _load(text, yaml.CSafeLoader)


@settings(deadline=None, max_examples=200)
@given(scenario_texts() | edge_texts(), st.data())
def test_both_loaders_reject_the_same_broken_documents(text, data):
    at = data.draw(st.integers(0, len(text)))
    _assert_alike(text[:at] + data.draw(st.sampled_from(BREAKERS)) + text[at:])


@pytest.mark.parametrize("text", KNOWN_DIFFERENCES)
def test_the_known_differences_between_the_loaders(text):
    python, libyaml = _load(text, yaml.SafeLoader), _load(text, yaml.CSafeLoader)
    loader, problem = KNOWN_DIFFERENCES[text]
    rejecting, accepting = (python, libyaml) if loader == "SafeLoader" else (libyaml, python)
    assert rejecting == ("error", problem) and accepting[0] == "ok"


@pytest.mark.parametrize("scalar", EDGE_SCALARS + REJECTED_SCALARS)
def test_each_edge_scalar_reads_alike(scalar):
    text = f"key: {scalar}\nlist: [{scalar}]\n"
    assert _load(text, yaml.SafeLoader)[0] == ("error" if scalar in REJECTED_SCALARS else "ok")
    _assert_alike(text)
