"""No library code that only tests reach: one in-process pass of `validate` and
`run <cfg> all` over every shipped config enters every `def` in src/, apart
from those on ALLOWED, each with the reason no shipped run needs it.

The pass runs under `sys.settrace`, whose hook only collects the code object
of each new frame; their paths are resolved after the pass.  A code object is
matched to its `def` by (file, first line, name), where the first line of a
decorated function is its first decorator's, as CPython numbers it.  A nested
`def` is covered by its parent's entry, and an entry that the pass reaches,
or that names no `def`, is stale and fails the guard too.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import rtmclab
from rtmclab import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(rtmclab.__file__).resolve().parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

ALLOWED = {
    "transfer.gibbs_check": "the Gibbs band certificate (acceptance 6)",
    "transport.build_coupling": "the paper's explicit coupling (ROADMAP item 3)",
    "transport.lipschitz_dual": "the Kantorovich-Rubinstein certificate of W1 "
                                "(acceptance 1, the duality_r3 workload)",
    "transport._highs": "read by `lipschitz_dual` only",
    "transfer.RpfTriple.from_json": "public reader of a written triple",
    "transfer.RpfTriple.to_json": "public writer; runs stream the triple through json_chunks",
    "transfer.AtomicMeasure.__init__": "public constructor; runs build measures on word rows",
    "transfer.AtomicMeasure.dirac": "public constructor",
    "potentials.table_potential": "potential kind `table`, which no shipped config uses",
    "shifts.canonical_tail": "continues short atoms, which no shipped run reads deeper",
    "shifts.FiberStructure.predecessors": "read by build_coupling",
    "driver.EventSpec.always": "the events of a config without a `bip` block",
    "transfer._InvariantFamily.__iter__": "abstract method of Mapping",
    "transfer._InvariantFamily.__len__": "abstract method of Mapping",
    "experiments._once": "a decorator: it runs at import",
}


def defs(src_dir) -> dict:
    """(file, first line, name) -> "module.Qualified.name" of every def under src_dir."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), first, child.name] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(Path(src_dir).resolve().rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, path.stem)
    return out


def entered(run) -> set:
    """The code objects of every frame that `run()` opens."""
    codes = set()

    def hook(frame, event, arg):
        codes.add(frame.f_code)  # no local tracing: the hook returns None

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return codes


def unreached(src_dir, run) -> list:
    """The defs under src_dir that `run()` never enters, by qualified name."""
    codes = entered(run)
    files = {f: str(Path(f).resolve()) for f in {c.co_filename for c in codes}}
    seen = {(files[c.co_filename], c.co_firstlineno, c.co_name) for c in codes}
    return sorted(name for key, name in defs(src_dir).items() if key not in seen)


def uncovered(names, allowed) -> list:
    """The names neither on `allowed` nor nested in a def that is."""
    def covered(name):
        parts = name.split(".")
        return any(".".join(parts[:i]) in allowed for i in range(2, len(parts) + 1))

    return [name for name in names if not covered(name)]


def _shipped_pass(out_dir):
    # cached helpers must run again, whatever earlier tests left in their caches
    for module in [m for name, m in sys.modules.items() if name.startswith("rtmclab.")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    codes = []
    for cfg in CONFIGS:
        codes.append(cli.main(["validate", str(cfg)]))
        codes.append(cli.main(["run", str(cfg), "all", "--out-dir", str(out_dir / cfg.stem)]))
    return codes


def test_shipped_runs_reach_every_unlisted_def(tmp_path):
    codes = []
    missing = unreached(SRC, lambda: codes.extend(_shipped_pass(tmp_path)))
    assert CONFIGS and codes == [0] * (2 * len(CONFIGS))
    assert uncovered(missing, ALLOWED) == []
    assert sorted(set(ALLOWED) - set(missing)) == []  # no stale entry


def test_the_trace_sees_an_unreached_def(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\n\n"
        "def deco(f):\n"
        "    @functools.wraps(f)\n"
        "    def wrapper(*a):\n"
        "        return f(*a)\n"
        "    return wrapper\n\n"
        "@deco\n"
        "def used(x):\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner(x)\n\n"
        "def idle(x):\n"
        "    def nested():\n"
        "        return x\n"
        "    return nested\n\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return [i for i in range(2)]\n\n"
        "    def unused(self):\n"
        "        return 2\n"
    )
    spec = importlib.util.spec_from_file_location("m", tmp_path / "m.py")
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    missing = unreached(tmp_path, lambda: (m.used(1), m.Box().size))
    assert missing == ["m.Box.unused", "m.deco", "m.idle", "m.idle.nested"]
    assert uncovered(missing, {"m.idle": "", "m.deco": ""}) == ["m.Box.unused"]
