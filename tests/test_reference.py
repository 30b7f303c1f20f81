"""Full-size CLI runs against report fields recorded before a change.

Integers, booleans, strings and integer lists must match exactly; floats
within 1e-9 relative.  A field that moves further is a behaviour change to
report, not a reference to re-record.
"""

import json
import math
from pathlib import Path

import pytest

from rtmclab.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = sorted((ROOT / "tests" / "reference").glob("*.json"))
FLOAT_REL = 1e-9


def flatten(report: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


@pytest.mark.parametrize("reference", REFERENCES, ids=lambda p: p.stem)
def test_report_matches_reference(reference, tmp_path):
    ref = json.loads(reference.read_text())
    seed = ref["seed"]
    code = main(["run", str(ROOT / ref["config"]), ref["experiment"],
                 "--seed", str(seed), "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / f"report_seed{seed}.json").read_text())
    got = flatten(report[ref["experiment"]])
    moved = []
    for key, want in ref["fields"].items():
        value = got.get(key)
        if isinstance(want, float):
            ok = isinstance(value, float) and math.isclose(value, want, rel_tol=FLOAT_REL)
        else:
            ok = type(value) is type(want) and value == want
        if not ok:
            moved.append(f"{key}: {value!r} (reference {want!r})")
    assert not moved, "report fields moved: " + "; ".join(moved)
