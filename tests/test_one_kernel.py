"""One kernel for the operator and its dual: no function in src/ other than
`transfer._step` calls `math.exp` on a `.value(...)` call.  Every reader of
the branch weights e^phi (`transfer_apply`, `dual_apply`, the measure sweep,
the summability probe) reads them off the step table that `_step` builds.

A call counts where `math.exp`'s arguments hold a call of an attribute named
`value` anywhere inside them; it is charged to the innermost function that
contains it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rtmclab"
ALLOWED = {"transfer.py:_step"}


def _exp_of_value(node) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math"):
        return False
    return any(isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
               and inner.func.attr == "value"
               for arg in node.args for inner in ast.walk(arg))


def branch_weighers(src_dir) -> list:
    """"<file>:<function>" of every call of math.exp on a `.value(` call."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        if _exp_of_value(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(src_dir).rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.name}:<module>")
    return sorted(found)


def test_only_the_step_builder_weighs_branches():
    assert [w for w in branch_weighers(SRC) if w not in ALLOWED] == []


def test_the_scan_sees_a_second_weigher(tmp_path):
    (tmp_path / "m.py").write_text(
        "import math\n\n"
        "def probe(phi, path, w):\n"
        "    def inner(i):\n"
        "        return math.exp(phi.value(path, i, w) - 1.0)\n"
        "    return inner(0) + math.exp(2.0)\n\n"
        "def scaled(x):\n"
        "    return math.exp(x.value)\n\n"
        "TOTAL = math.exp(PHI.value(None, 0, (1,)))\n"
    )
    assert branch_weighers(tmp_path) == ["m.py:<module>", "m.py:inner"]
