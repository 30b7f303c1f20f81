"""`run ... all` builds one SeedPipeline per seed and matches the single runs.

Under `all` the triple is solved once, on the hull of the experiments' solve
windows.  That hull is the contract window, so contract, mixing and
correlations write the same bytes as their single runs; rpf, matrices and
equilibrium read a sub-window of a wider solve and agree to float noise.
"""

import json
import math
from pathlib import Path

import pytest

from rtmclab import experiments
from rtmclab.cli import main
from rtmclab.config import load_config
from rtmclab.errors import ConvergenceError
from rtmclab.experiments import EXPERIMENTS, SeedPipeline

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = (3, 4)
BYTE_IDENTICAL = ("contract", "mixing", "correlations")
ABS_TOL = 1e-12
COUNTED = ("rpf_solve", "contraction_constants", "invariant_measures", "gurevich_pressure")


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    raw["seeds"] = list(SEEDS)
    path = tmp_path_factory.mktemp("pipeline") / "golden.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def all_run(golden):
    """Exit code, output directory and call counts of `run golden all` over two seeds."""
    calls = dict.fromkeys(COUNTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    out = golden.parent / "all"
    with pytest.MonkeyPatch.context() as mp:
        for name in COUNTED:
            mp.setattr(experiments, name, counting(name, getattr(experiments, name)))
        code = main(["run", str(golden), "all", "--out-dir", str(out)])
    return code, out, calls


def test_all_solves_once_per_seed(all_run):
    code, _, calls = all_run
    assert code == 0
    assert calls == dict.fromkeys(COUNTED, len(SEEDS))


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        return [leaf for k in sorted(obj) for leaf in _leaves(obj[k], f"{prefix}{k}.")]
    if isinstance(obj, list):
        return [leaf for i, v in enumerate(obj) for leaf in _leaves(v, f"{prefix}{i}.")]
    return [(prefix, obj)]


def _cell(text):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _artifact(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return _leaves(json.loads(text))
    header, *rows = text.splitlines()
    return [("header", header)] + [(f"{i}.{j}", _cell(c)) for i, row in enumerate(rows)
                                   for j, c in enumerate(row.split(","))]


def _assert_close(got, want):
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, a), (_, b) in zip(got, want):
        if isinstance(a, float) or isinstance(b, float):
            assert a == b or abs(a - b) <= ABS_TOL or (a != a and b != b), key
        else:
            assert a == b, key


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_all_matches_single_run(experiment, all_run, golden, tmp_path):
    _, together, _ = all_run
    seed = SEEDS[0]
    assert main(["run", str(golden), experiment, "--seed", str(seed),
                 "--out-dir", str(tmp_path)]) == 0
    report = f"report_seed{seed}.json"
    single_entry = json.loads((tmp_path / report).read_text())[experiment]
    all_entry = json.loads((together / report).read_text())[experiment]
    artifacts = sorted(p.name for p in tmp_path.iterdir()
                       if p.name not in (report, "summary.json"))
    assert artifacts
    if experiment in BYTE_IDENTICAL:
        assert json.dumps(all_entry, sort_keys=True) == json.dumps(single_entry, sort_keys=True)
        for name in artifacts:
            assert (together / name).read_bytes() == (tmp_path / name).read_bytes(), name
    else:
        _assert_close(_leaves(all_entry), _leaves(single_entry))
        for name in artifacts:
            _assert_close(_artifact(together / name), _artifact(tmp_path / name))


def test_window_is_the_hull_of_the_requested_experiments():
    cfg = load_config(CONFIGS / "golden_mean.json")
    pad = cfg.horizons["solve"]
    assert SeedPipeline(cfg, 3, ("rpf",)).window == (0, 24)
    assert SeedPipeline(cfg, 3, ("rpf", "equilibrium")).window == (-24, 24)
    assert SeedPipeline(cfg, 3).window == (-80 - pad, 80 + pad)


def test_restrict_keeps_the_sub_window():
    cfg = load_config(CONFIGS / "golden_mean.json")
    wide = SeedPipeline(cfg, 3, ("equilibrium",)).triple
    sub = wide.restrict(0, 10)
    assert (sub.lo, sub.hi) == (0, 10)
    assert sorted(sub.log_lambda) == list(range(0, 10))
    assert sorted(sub.h) == sorted(sub.mu) == list(range(0, 11))
    assert sorted(sub.diagnostics["h_gap"]) == list(range(0, 11))
    assert sorted(sub.diagnostics["lambda_gap"]) == list(range(0, 10))
    assert all(sub.h[j] is wide.h[j] for j in sub.h)
    assert wide.restrict(wide.lo, wide.hi).to_json() == wide.to_json()


def test_failed_build_is_not_retried(monkeypatch):
    cfg = load_config(CONFIGS / "golden_mean.json")
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise ConvergenceError("forced")

    monkeypatch.setattr(experiments, "rpf_solve", failing)
    pipeline = SeedPipeline(cfg, 3)
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            pipeline.tilde
    assert len(calls) == 1


def test_failed_pressure_fails_rpf_and_leaves_equilibrium_bar_nan(monkeypatch):
    def failing(*args, **kwargs):
        raise ConvergenceError("forced")

    monkeypatch.setattr(experiments, "gurevich_pressure", failing)
    pipeline = SeedPipeline(load_config(CONFIGS / "golden_mean.json"), 3)
    with pytest.raises(ConvergenceError):
        experiments.run_rpf(pipeline)
    report, _ = experiments.run_equilibrium(pipeline)
    assert math.isnan(report["pressure_bar"])
    assert report["passed"] is (report["gap"] <= 1e-2)
