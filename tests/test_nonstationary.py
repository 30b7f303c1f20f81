"""Non-stationary shift spaces as configs: a periodic system is a cyclic driver law.

A period-m sequence of (alphabet, transition pattern, weight matrix) entries is
a `markov` driver whose matrix is the m-cycle, one driver state per period
position.  Each system below is an ExperimentConfig read through the same
SeedPipeline as every shipped config: the eigen-triple carries the invariant
sequence, and the contract runner's verify_decay checks the sup-norm decay
(it raises on any increase and on any envelope miss).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rtmclab.cli import main
from rtmclab.config import load_config
from rtmclab.errors import ConvergenceError
from rtmclab.experiments import SeedPipeline, run_contract, run_rpf
from rtmclab.shifts import admissible_words
from rtmclab.transfer import gurevich_pressure

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERIODIC = CONFIGS / "periodic_2_3letter.json"


def periodic_config(tmp_path, entries, working=5, solve=60, decay=40, entropy=10):
    """Config of the cyclic system over entries (alphabet, 0/1 pattern, weights).

    Patterns are |alphabet| x |union universe|, and the weights' signum is the
    pattern (a log_matrix potential).
    """
    m = len(entries)
    states = [f"p{i}" for i in range(m)]
    letters = sorted(set().union(*(set(alpha) for alpha, _, _ in entries)))
    raw = {
        "schema": 1,
        "name": f"period-{m}",
        "driver": {"states": states,
                   "law": {"kind": "markov",
                           "matrix": np.roll(np.eye(m), 1, axis=1).tolist()},
                   "seed": 0},
        "fibers": {
            "alphabets": {s: alpha for s, (alpha, _, _) in zip(states, entries)},
            "matrices": {s: pattern for s, (_, pattern, _) in zip(states, entries)},
            "bip": {"I": letters, "omega_bp": states, "omega_bi": states},
        },
        "potential": {"kind": "log_matrix", "r": 0.2,
                      "matrices": {s: np.asarray(w, dtype=float).tolist()
                                   for s, (_, _, w) in zip(states, entries)}},
        "depths": {"working": working, "entropy": entropy},
        "horizons": {"solve": solve, "decay": decay},
        "trials": {"lemma": 4},
        "seeds": [0],
    }
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(raw))
    return load_config(path)


def column_stochastic_entry(mat):
    """A full n-letter fiber whose weights sum to 1 down each column (over preimages)."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    return list(range(1, n + 1)), (mat > 0).astype(int).tolist(), mat


def max_log_lambda(pipeline) -> float:
    return max(abs(v) for v in pipeline.triple.log_lambda.values())


def preimage_sums(phi, fibers, path, fiber):
    """sum over a of e^phi(a w), per tail w, at one fiber."""
    sums: dict = {}
    for w in admissible_words(fibers, path, fiber, max(phi.depth, 2)):
        sums[w[1:]] = sums.get(w[1:], 0.0) + math.exp(phi.value(path, fiber, w))
    return sums


class TestInvariantSequence:
    def test_stationary_embedding(self, tmp_path):
        cfg = periodic_config(tmp_path, [column_stochastic_entry([[0.3, 0.6], [0.7, 0.4]])])
        p = SeedPipeline(cfg, 0, ("contract",))
        assert max_log_lambda(p) <= 1e-10
        assert max(p.triple.diagnostics["mu_gap"].values()) <= 1e-8
        report, _ = run_contract(p)
        assert report["passed"]

    def test_alternating_full_shifts_uniform(self, tmp_path):
        # a 2-letter fiber feeds a 3-letter fiber and back; the operator sums
        # over current-fiber preimage letters, hence weights 1/|W_k|
        cfg = periodic_config(tmp_path, [
            ([1, 2], [[1, 1, 1]] * 2, np.full((2, 3), 1 / 2)),
            ([1, 2, 3], [[1, 1, 0]] * 3, [[1 / 3, 1 / 3, 0.0]] * 3),
        ], working=4, solve=40)
        assert cfg.system.period == 2
        p = SeedPipeline(cfg, 0, ("contract",))
        assert max_log_lambda(p) <= 1e-10
        report, tables = run_contract(p)
        assert report["passed"]
        # uniform potentials keep the pulled-back measures uniform: one step
        # maps a one-letter function to its mean
        _, decay_rows = tables["contract_decay"]
        assert max(gap for _, gap, _ in decay_rows) <= 1e-12

    def test_random_period_ten(self, tmp_path):
        rng = np.random.default_rng(12)
        entries = []
        for _ in range(10):
            raw = rng.uniform(0.2, 1.0, size=(2, 2))
            entries.append(column_stochastic_entry(raw / raw.sum(axis=0, keepdims=True)))
        cfg = periodic_config(tmp_path, entries)
        assert cfg.system.period == 10
        p = SeedPipeline(cfg, 0, ("contract",))
        assert max_log_lambda(p) <= 1e-8
        # verify_decay raises on any sup-norm increase and any envelope miss
        report, tables = run_contract(p)
        assert report["passed"]
        _, envelope_rows = tables["contract_envelope"]
        assert envelope_rows
        assert all(gap <= bound + 1e-12 for _, _, gap, bound in envelope_rows)

    def test_unnormalized_input_is_normalized_per_period_position(self):
        # the shipped periodic potential is not normalized; the pipeline's
        # tilde is, at each period position
        cfg = load_config(PERIODIC)
        p = SeedPipeline(cfg, cfg.seeds[0], ("equilibrium",))
        for fiber in range(cfg.system.period):
            raw_sums = preimage_sums(cfg.potential, cfg.fibers, p.path, fiber)
            assert max(abs(v - 1.0) for v in raw_sums.values()) > 0.1
            sums = preimage_sums(p.tilde, cfg.fibers, p.path, fiber)
            assert max(abs(v - 1.0) for v in sums.values()) <= 1e-10


def test_shipped_periodic_config_runs_all(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(PERIODIC), "all", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report_seed2.json").read_text())
    assert report["equilibrium"]["gap"] <= 1e-10
    assert report["contract"]["passed"]
    assert report["matrices"]["passed"]


def test_pressure_increment_spans_whole_periods():
    # from the middle return, 151..300, the increment covers 149 fibers and
    # read 0.497762 against a mean log lambda of 0.497909 per period
    cfg = load_config(PERIODIC)
    p = SeedPipeline(cfg, cfg.seeds[0], ("rpf",))
    period = cfg.system.period
    per_period = sum(p.triple.log_lambda[j] for j in range(period)) / period
    assert abs(p.pressure.estimate - per_period) <= 1e-12


def test_lambda_averages_span_whole_periods(tmp_path):
    # the random period-10 weights of test_random_period_ten, left unnormalized:
    # over the rpf window [0, 24) both averages read 0.146782, over its two
    # whole periods [0, 20) they read 0.162909, as the pressure estimate does
    rng = np.random.default_rng(12)
    entries = [([1, 2], [[1, 1], [1, 1]], rng.uniform(0.2, 1.0, size=(2, 2)))
               for _ in range(10)]
    cfg = periodic_config(tmp_path, entries)
    assert cfg.system.whole_periods(range(24)) == range(20)
    assert cfg.system.whole_periods(range(3, 9)) == range(3, 3)
    p = SeedPipeline(cfg, 0, ("rpf",))
    report, _ = run_rpf(p)
    log_lambda = p.triple.log_lambda
    whole = sum(log_lambda[j] for j in range(20)) / 20
    assert whole == pytest.approx(0.162909, abs=1e-6)
    assert abs(sum(log_lambda[j] for j in range(24)) / 24 - whole) > 0.01
    assert report["lambda_mean_log"] == pytest.approx(whole, rel=1e-13)
    assert report["pressure_lambda_route"] == pytest.approx(whole, rel=1e-13)
    assert report["pressure_estimate"] == pytest.approx(whole, rel=1e-11)


def test_pressure_without_a_whole_period_of_returns_raises(tmp_path):
    entries = [column_stochastic_entry([[0.3, 0.6], [0.7, 0.4]])] * 10
    cfg = periodic_config(tmp_path, entries)
    with pytest.raises(ConvergenceError, match=r"whole number of driver periods \(10\)"):
        gurevich_pressure(cfg.potential, cfg.fibers, cfg.sample(0), 1, horizon=5)
    # 25 returns: the increment runs over two periods, from return 5 to 25;
    # column-stochastic weights have pressure 0
    est = gurevich_pressure(cfg.potential, cfg.fibers, cfg.sample(0), 1, horizon=25)
    assert abs(est.estimate) <= 1e-3


def test_entropy_depth_shorter_than_one_period_is_a_report_entry(tmp_path):
    entries = [column_stochastic_entry([[0.3, 0.6], [0.7, 0.4]])] * 10
    cfg = periodic_config(tmp_path, entries, entropy=8)
    out = tmp_path / "out"
    assert main(["run", cfg.path, "equilibrium", "--out-dir", str(out)]) == 1
    entry = json.loads((out / "report_seed0.json").read_text())["equilibrium"]
    assert entry["error_class"] == "ConvergenceError"
    assert entry["passed"] is False
    assert "whole number of driver periods (10)" in entry["error"]
