"""The config schema: no mutation of a shipped config ends `validate` in a
traceback, and docs/output_formats.md names every path of `config.SCHEMA`."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rtmclab.cli import main
from rtmclab.config import SCHEMA, WORD, Required

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]
# what a mutation puts in place of a node: every JSON kind, and the numbers
# that pass a kind check but not a range or finiteness check
POOL = [None, 0, -1, 1.5, float("nan"), float("inf"), "x", "1", [], [1], {}, {"a": 1}, True]


def nodes(value, at=()):
    """The path of every node below `value`, as a tuple of keys and indices."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield at + (key,)
        yield from nodes(child, at + (key,))


@st.composite
def mutated_configs(draw):
    """A shipped config with one or two nodes deleted or replaced from POOL."""
    raw = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(nodes(raw))))
        parent = raw
        for k in parents:
            parent = parent[k]
        if draw(st.integers(0, 3)) == 0:  # one change in four deletes the node
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return raw


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(mutated_configs())
def test_no_mutated_config_ends_validate_in_a_traceback(raw):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
    assert code in (0, 2)
    for line in err.getvalue().splitlines():
        assert line.startswith(("config error:", "config violation:")), line


def schema_paths(node, at=""):
    """The path of every key the schema names, a word key written `[<word>]`."""
    if isinstance(node, Required):
        node = node.node
    if isinstance(node, tuple):  # null or a value of node[1]
        node = node[1]
    for key, child in node.items() if isinstance(node, dict) else ():
        path = f"{at}[{key}]" if key == WORD else f"{at}.{key}" if at else key
        yield path
        yield from schema_paths(child, path)


def test_schema_paths_are_documented():
    text = (ROOT / "docs" / "output_formats.md").read_text()
    paths = list(schema_paths(SCHEMA))
    assert "fibers.alphabets.<state>" in paths and "potential.tables.<state>[<word>]" in paths
    assert [p for p in paths if f"`{p}`" not in text] == []
