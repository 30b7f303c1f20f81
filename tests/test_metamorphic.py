"""Relations between runs of related configs.

Adding a constant c to the potential multiplies the transfer operator and
every eigenvalue by e^c and leaves h and mu alone, so every check that reads
the eigendata relatively must pass as it does at c = 0.  A second driver
state carrying the same data as the first, drawn i.i.d. with the first, gives
the same fibers at every index as the one-state driver, so a run writes the
same numbers: only the config hash differs.
"""

import json
from pathlib import Path

import pytest

from rtmclab.cli import main

from test_pipeline import _leaves

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(raw: dict, path: Path) -> Path:
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("value", [50, 300, 700])
def test_constant_shift_passes_every_check(value, tmp_path):
    # the eigen residual was relative to ||h_{j+1}|| alone, so lambda_j = 2 e^value
    # carried it past the tolerance and every experiment failed at fiber 0
    raw = json.loads((CONFIGS / "constant_full_shift.json").read_text())
    raw["potential"]["value"] = value
    cfg = _write(raw, tmp_path / "shifted.json")
    assert main(["run", str(cfg), "all", "--out-dir", str(tmp_path / "out")]) == 0


def test_a_copied_driver_state_changes_only_the_config_hash(tmp_path):
    raw = json.loads((CONFIGS / "markov_2letter.json").read_text())
    one = _write(raw, tmp_path / "one.json")
    raw["driver"]["states"] = ["a", "b"]
    raw["driver"]["law"] = {"kind": "iid", "weights": [0.5, 0.5]}
    for per_state in (raw["fibers"]["alphabets"], raw["fibers"]["matrices"],
                      raw["potential"]["matrices"]):
        per_state["b"] = per_state["a"]
    raw["fibers"]["bip"].update(omega_bp=["a", "b"], omega_bi=["a", "b"])
    two = _write(raw, tmp_path / "two.json")
    for cfg in (one, two):
        assert main(["run", str(cfg), "all", "--out-dir", str(tmp_path / cfg.stem)]) == 0

    a, b = tmp_path / "one", tmp_path / "two"
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    got, want = (dict(_leaves(json.loads((d / "summary.json").read_text()))) for d in (b, a))
    assert len(want) == 104
    assert sorted(k for k in want if got.get(k) != want[k]) == ["config.", "seeds.5.config."]
    assert got.keys() == want.keys()
    csvs = [n for n in names if n.endswith(".csv")]
    assert len(csvs) == 13
    for name in csvs:
        header, *rows = (a / name).read_text().splitlines()
        other_header, *other_rows = (b / name).read_text().splitlines()
        assert header != other_header and rows == other_rows, name
