"""No knob that nothing reads: every optional parameter of a function in src/
is passed by some call in src/ or tests/, and one that only tests pass is on
TEST_ONLY with the reason a test needs it.

Calls are resolved by name alone (`f(...)` and `obj.f(...)` both name f; a
class call names its `__init__`), so two functions of one name share their
calls: a collision counts as a use.  A call passes a parameter by keyword, by
reaching its position, or through `*args` or a `**mapping` whose keys the
module does not spell out; `**kwargs` built as `dict(k=...)` passes exactly
its keys.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rtmclab"

# "function.parameter" (a method as "Class.method.parameter") -> why only tests pass it
TEST_ONLY = {
    "main.argv": "the console script reads sys.argv; tests call main in-process",
    "rpf_solve.tol": "tests force ConvergenceError",
    "distortion_constant.horizon": "tests of the certified tail bound",
    "verify_main_lemma.test_fibers": "tests pin the trial fibers",
    "AtomicMeasure.__init__.probability": "tests build measures whose mass is not 1",
    "CylinderFunction.indicator.depth": "tests read an indicator deeper than its word",
    "verify_decay.f": "tests pass their own observable",
    "gibbs_check.samples": "acceptance 6 samples 10,000 cylinders",
    "gibbs_check.seed": "tests draw other samples",
    "EventSpec.always.name": "tests name the events they build",
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def optional_parameters(path, tree):
    """(call name, parameter, position or None, "function.parameter") per parameter
    with a default, a method's function named "Class.method".

    A method's position counts `self`/`cls`, which a call through an attribute
    (or, for `__init__`, any call of the class) passes implicitly.
    """
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owner[id(item)] = node.name
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owner.get(id(node)) if node.name == "__init__" else node.name
        if name is None:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = bool(positional) and positional[0].arg in ("self", "cls")
        implicit = "always" if node.name == "__init__" else "attribute" if bound else "never"
        qualname = f"{owner[id(node)]}.{node.name}" if id(node) in owner else node.name
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield name, positional[i].arg, (i, implicit), f"{qualname}.{positional[i].arg}"
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, f"{qualname}.{arg.arg}"


def _spelled_dicts(tree) -> dict:
    """Name -> the keys of every `dict(k=...)` assigned to it, or None where some
    assignment to the name is anything else."""
    keys = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        value, found = node.value, None
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "dict" and not value.args \
                and all(k.arg for k in value.keywords):
            found = {k.arg for k in value.keywords}
        name, before = node.targets[0].id, keys.get(node.targets[0].id, set())
        keys[name] = None if found is None or before is None else before | found
    return keys


def calls(tree):
    """(called name, positional count, keywords, through an attribute, has a star)."""
    spelled = _spelled_dicts(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name, attribute = func.id, False
        elif isinstance(func, ast.Attribute):
            name, attribute = func.attr, True
        else:
            continue
        keywords = {k.arg for k in node.keywords if k.arg}
        star = any(isinstance(a, ast.Starred) for a in node.args)
        for k in node.keywords:
            if k.arg is None:
                known = spelled.get(k.value.id) if isinstance(k.value, ast.Name) else None
                star = star or known is None
                keywords |= known or set()
        yield name, len(node.args), keywords, attribute, star


def passes(call, param, position) -> bool:
    _, count, keywords, attribute, star = call
    if star or param in keywords:
        return True
    if position is None:
        return False
    index, implicit = position
    return count + (implicit == "always" or implicit == "attribute" and attribute) > index


def unset_knobs(src_dir, *call_dirs):
    uses = defaultdict(list)
    for _, tree in _trees(*call_dirs):
        for call in calls(tree):
            uses[call[0]].append(call)
    return sorted(
        key
        for path, tree in _trees(src_dir)
        for name, param, position, key in optional_parameters(path, tree)
        if not any(passes(c, param, position) for c in uses[name])
    )


def test_every_optional_parameter_is_passed():
    assert unset_knobs(SRC, SRC, ROOT / "tests") == []


def test_only_listed_parameters_are_passed_by_tests_alone():
    assert unset_knobs(SRC, SRC) == sorted(TEST_ONLY)


def test_the_scan_sees_an_unset_knob(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "m.py").write_text(
        "def solve(a, b=1, *, tol=1e-8, depth=2):\n    return a\n\n"
        "class Box:\n    def __init__(self, size, scale=1.0):\n        pass\n\n"
        "    def fill(self, x, y=0):\n        return solve(x, depth=3)\n"
    )
    (tests / "t.py").write_text("kw = dict(size=1)\nsolve(1, 2)\nBox(**kw).fill(4, 5)\n")
    assert unset_knobs(src, src, tests) == ["Box.__init__.scale", "solve.tol"]
    # b and y are set by the test alone
    assert unset_knobs(src, src) == ["Box.__init__.scale", "Box.fill.y", "solve.b", "solve.tol"]
