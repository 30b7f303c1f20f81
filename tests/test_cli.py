import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rtmclab import errors
from rtmclab.cli import main
from rtmclab.config import load_config, validate_config
from rtmclab.experiments import RUNNERS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("stem", SHIPPED)
def test_validate_full_shift_ok(stem, capsys):
    assert main(["validate", str(CONFIGS / f"{stem}.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and not out["violations"]


@pytest.mark.parametrize("section,key", [("depths", "gibbs"), ("horizons", "slove")])
def test_unknown_config_key_exits_2(section, key, tmp_path, capsys):
    cfg = json.loads((CONFIGS / "markov_2letter.json").read_text())
    cfg.setdefault(section, {})[key] = 4
    bad = tmp_path / "stale.json"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"unknown {section} key(s) {key}" in err


def test_validate_flags_zero_row(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "markov_2letter.json").read_text())
    cfg["fibers"]["matrices"]["a"] = [[1, 1], [0, 0]]
    cfg["potential"]["matrices"]["a"] = [[0.3, 0.6], [0.0, 0.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert any("no successor" in v or "no predecessor" in v for v in out["violations"])


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "none.json"
    missing.write_text("{not json")
    assert main(["run", str(missing), "rpf"]) == 2


def test_run_rpf_report_and_exit_code(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(CONFIGS / "markov_2letter.json"), "rpf",
                 "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report_seed5.json").read_text())
    assert report["rpf"]["passed"]
    assert report["rpf"]["residual_max"] <= 1e-8
    csv = (out / "rpf_fibers_seed5.csv").read_text().splitlines()
    assert csv[0].startswith("# config=") and "seed=5" in csv[0]
    assert csv[1] == "fiber,log_lambda,residual,h_mass"


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", str(CONFIGS / "markov_2letter.json"), "rpf",
                     "--out-dir", str(out)]) == 0
    for name in ("rpf_fibers_seed5.csv", "report_seed5.json", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_overrides_enter_the_config_hash(tmp_path):
    # --depth 7 hashes and writes as a config copy with depths.working = 7
    cfg = json.loads((CONFIGS / "markov_2letter.json").read_text())
    cfg["depths"]["working"] = 7
    deep = tmp_path / "markov_2letter.json"
    deep.write_text(json.dumps(cfg))
    runs = {"plain": [], "depth": ["--depth", "7"], "horizon": ["--horizon", "150"],
            "copy": []}
    csv = {}
    for name, flags in runs.items():
        config = deep if name == "copy" else CONFIGS / "markov_2letter.json"
        out = tmp_path / name
        assert main(["run", str(config), "rpf", "--out-dir", str(out), *flags]) == 0
        csv[name] = (out / "rpf_fibers_seed5.csv").read_bytes()
    heads = {name: text.splitlines()[0] for name, text in csv.items()}
    assert heads["plain"] == b"# config=8afe7bbfc2bc0473 seed=5"
    assert len({heads["plain"], heads["depth"], heads["horizon"]}) == 3
    assert csv["depth"] == csv["copy"]


def test_seed_override_changes_path_not_validity(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "full_shift_iid.json"), "rpf",
                 "--seed", "99", "--out-dir", str(out)]) == 0
    assert (out / "report_seed99.json").exists()


def test_config_flag_form(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "rpf", "--config", str(CONFIGS / "constant_full_shift.json"),
                 "--out-dir", str(out)])
    assert code == 0


def test_section31_contract_t_field(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "full_shift_iid.json"), "contract",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "report_seed11.json").read_text())["contract"]
    assert report["t"] == 1.0 - report["C_threshold"] / 2.0
    assert report["l_seq"] == [2 * n for n in range(1, 11)]
    assert report["k_seq"] == [2 * n for n in range(1, 11)]


def test_depth_cap_violation_exits_2(tmp_path):
    cfg = json.loads((CONFIGS / "markov_2letter.json").read_text())
    cfg["depths"]["working"] = 40
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps(cfg))
    assert main(["run", str(bad), "rpf"]) == 2


class TestConfigLoading:
    def test_load_builds_consistent_instance(self):
        cfg = load_config(CONFIGS / "golden_mean.json")
        assert cfg.system.states == ("a",)
        assert cfg.fibers.alphabets[0] == (1, 2)
        assert cfg.potential.depth == 2
        assert cfg.beta == 0.5
        assert len(cfg.config_hash) == 16

    def test_schema_version_enforced(self, tmp_path):
        raw = json.loads((CONFIGS / "golden_mean.json").read_text())
        raw["schema"] = 99
        p = tmp_path / "v99.json"
        p.write_text(json.dumps(raw))
        from rtmclab.errors import ConfigError

        with pytest.raises(ConfigError):
            load_config(p)

    def test_validation_report_fields(self):
        cfg = load_config(CONFIGS / "random_3letter.json")
        rep = validate_config(cfg)
        assert rep["ok"]
        assert rep["hash"] == cfg.config_hash


def test_zero_frequency_event_warns(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "full_shift_iid.json").read_text())
    cfg["fibers"]["bip"]["omega_bp"] = []  # never happens
    p = tmp_path / "nofreq.json"
    p.write_text(json.dumps(cfg))
    assert main(["validate", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert any("frequency 0" in w for w in out["warnings"])


def _depth3_table():
    """A one-state full shift on two letters with a depth-3 table potential, no kappa."""
    return {
        "schema": 1,
        "name": "table-kind",
        "driver": {"states": ["a"], "law": {"kind": "iid", "weights": [1.0]}, "seed": 2},
        "fibers": {
            "alphabets": {"a": [1, 2]},
            "matrices": {"a": [[1, 1], [1, 1]]},
            "bip": {"I": [1, 2], "omega_bp": ["a"], "omega_bi": ["a"]},
        },
        "potential": {
            "kind": "table", "depth": 3, "r": 0.4, "index": 2,
            "tables": {"a": {
                "1,1,1": -0.7, "1,1,2": -0.6, "1,2,1": -0.9, "1,2,2": -0.75,
                "2,1,1": -0.65, "2,1,2": -0.8, "2,2,1": -0.7, "2,2,2": -0.6,
            }},
        },
        "seeds": [2],
    }


def test_table_potential_config_with_fitted_kappa(tmp_path):
    raw = _depth3_table()
    p = tmp_path / "table.json"
    p.write_text(json.dumps(raw))
    cfg = load_config(p)
    assert cfg.potential.depth == 3
    assert cfg.potential.kappa[0] > 0  # fitted from the table's 2-variation
    rep = validate_config(cfg)
    assert rep["ok"]


def _golden(tmp_path, **sections):
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    raw.update(sections)
    p = tmp_path / "golden.json"
    p.write_text(json.dumps(raw))
    return p


# error class -> how a run reaches it, exit code; "raise" swaps in a runner that
# raises the class, for classes no shipped-style config reaches
EXIT_CASES = [
    ("ConfigError", {"experiment": "matrices",
                     "config": {"potential": {"kind": "constant", "value": -0.5, "r": 0.2}}}, 0),
    ("WindowExhausted", {"env": {"RR_MAX_WINDOW": "50"}}, 1),
    ("AdmissibilityError", {"config": {"pressure": {"letter": 7}}}, 1),
    ("DepthOverflow", {"raise": True}, 1),
    ("ConvergenceError", {"args": ["--horizon", "1"]}, 1),
    ("InvariantViolation", {"raise": True}, 1),
    ("RtmcError", {"raise": True}, 1),
]


@pytest.mark.parametrize("error, how, code", EXIT_CASES, ids=[c[0] for c in EXIT_CASES])
def test_error_class_outcomes(error, how, code, tmp_path, monkeypatch):
    experiment = how.get("experiment", "rpf")
    for key, value in how.get("env", {}).items():
        monkeypatch.setenv(key, value)
    if how.get("raise"):
        def runner(pipeline, cls=getattr(errors, error)):
            raise cls("forced")

        monkeypatch.setitem(RUNNERS, experiment, runner)
    out = tmp_path / "out"
    argv = ["run", str(_golden(tmp_path, **how.get("config", {}))), experiment,
            "--out-dir", str(out), *how.get("args", [])]
    assert main(argv) == code
    entry = json.loads((out / "report_seed3.json").read_text())[experiment]
    if error == "ConfigError":
        assert set(entry) == {"skipped"}
    else:
        assert entry["error_class"] == error and entry["passed"] is False
        assert entry["error"]
    if error == "ConvergenceError":
        # the failed solve's gap curves, keyed by fiber over the solve window
        diag = entry["diagnostics"]
        assert set(diag) == {"h_gap", "mu_gap", "lambda_gap", "h_starts", "mu_tops"}
        assert sorted(map(int, diag["h_gap"])) == list(range(0, 25))
        assert sorted(map(int, diag["mu_gap"])) == list(range(0, 25))
        assert sorted(map(int, diag["lambda_gap"])) == list(range(0, 24))
        assert max(diag["h_gap"].values()) > 1e-8 or max(diag["mu_gap"].values()) > 1e-8
        assert len(diag["h_starts"]) == len(diag["mu_tops"]) == 2
    else:
        assert "diagnostics" not in entry


@pytest.mark.parametrize("flag, value, message", [
    ("--depth", "40", "working depth exceeds the configured cap"),
    ("--depth", "0", "depth working must be positive, got 0"),
    ("--horizon", "0", "horizon solve must be positive"),
    ("--seed", "-1", "seed must be a non-negative integer, got -1"),
])
def test_overrides_are_validated(flag, value, message, tmp_path, capsys):
    assert main(["run", str(CONFIGS / "golden_mean.json"), "rpf", flag, value,
                 "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_config_seed_must_be_non_negative(tmp_path, capsys):
    path = _golden(tmp_path, seeds=[3, -1])
    rep = validate_config(load_config(path))
    assert rep["violations"] == ["seed must be a non-negative integer, got -1"]
    assert main(["run", str(path), "rpf", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config violation: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("stem, law, message", [
    ("full_shift_iid", {"kind": "iid", "weights": [float("nan"), 0.5]},
     "iid weights has non-finite entries"),
    ("random_3letter", {"kind": "markov", "matrix": [[0.7, 0.3], [float("nan"), 0.6]]},
     "markov row 1 has non-finite entries"),
])
def test_non_finite_law_exits_2(stem, law, message, tmp_path, capsys):
    # JSON's NaN passed the sign and sum checks, so such a law used to run
    raw = json.loads((CONFIGS / f"{stem}.json").read_text())
    raw["driver"]["law"] = law
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(raw))
    for argv in (["validate", str(path)],
                 ["run", str(path), "rpf", "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def _expect_config_error(raw, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for argv in (["validate", str(path)],
                 ["run", str(path), "rpf", "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("seeds", [1.7], "seeds[0]: expected an integer, got 1.7"),
    ("seeds", [True], "seeds[0]: expected an integer, got true"),
    ("seeds", [3, "4"], 'seeds[1]: expected an integer, got "4"'),
    ("seeds", 3, "seeds: expected a list of integers, got 3"),
    ("driver.seed", 2.5, "driver.seed: expected an integer, got 2.5"),
    ("driver.seed", True, "driver.seed: expected an integer, got true"),
], ids=["float", "bool", "string", "not-a-list", "driver-float", "driver-bool"])
def test_non_integer_seed_exits_2(key, value, message, tmp_path, capsys):
    # int() used to truncate these, so [1.7] ran seed 1 and 2.5 ran seed 2
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    if key == "driver.seed":
        raw["driver"]["seed"] = value
    else:
        raw[key] = value
    _expect_config_error(raw, message, tmp_path, capsys)


@pytest.mark.parametrize("section, key, value, message", [
    ("depths", "working", 2.5, "depths.working: expected an integer, got 2.5"),
    ("depths", "working", "6", 'depths.working: expected an integer, got "6"'),
    ("depths", "algebra", True, "depths.algebra: expected an integer, got true"),
    ("horizons", "solve", 110.5, "horizons.solve: expected an integer, got 110.5"),
    ("trials", "lemma", 4.0, "trials.lemma: expected an integer, got 4.0"),
    ("sequences", "count", {}, "sequences.count: expected an integer, got {}"),
], ids=["depth-float", "depth-string", "depth-bool", "horizon-float", "trials-float",
        "count-object"])
def test_non_integer_count_exits_2(section, key, value, message, tmp_path, capsys):
    # each used to pass validate and end in a TypeError, in validate or in run
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    raw.setdefault(section, {})[key] = value
    _expect_config_error(raw, message, tmp_path, capsys)


@pytest.mark.parametrize("section", ["depths", "horizons", "trials", "sequences"])
def test_non_object_section_exits_2(section, tmp_path, capsys):
    # set(values) raised TypeError: 'int' object is not iterable
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    raw[section] = 5
    _expect_config_error(raw, f"{section}: expected an object, got 5", tmp_path, capsys)


@pytest.mark.parametrize("edit, message", [
    ({"f": {"values": {"1": "x"}}}, 'observables.f.values["1"]: expected a number, got "x"'),
    ({"f": {"values": {"1": True}}}, 'observables.f.values["1"]: expected a number, got true'),
    ({"g": {"values": {"x,1": 1.0}}},
     'observables.g.values: expected comma-separated integer letters, got "x,1"'),
    ({"f": {"values": {"1": 1.0}, "default": "0"}},
     'observables.f.default: expected a number, got "0"'),
    ({"f": {"values": {"1": 1.0}, "depth": 1.5}},
     "observables.f.depth: expected an integer, got 1.5"),
    ({"g": {"depth": 1}}, "observables.g.values: expected an object, got null"),
    ({"f": [1]}, "observables.f: expected an object, got [1]"),
    ([], "observables: expected an object, got []"),
], ids=["value-string", "value-bool", "word", "default", "depth", "no-values", "spec",
        "section"])
def test_bad_observable_exits_2(edit, message, tmp_path, capsys):
    # each passed validate; correlations then raised a bare Python exception,
    # or, for the depth, truncated it to 1
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    raw["observables"] = edit
    _expect_config_error(raw, message, tmp_path, capsys)


def test_observables_are_converted_on_load(tmp_path):
    raw = json.loads((CONFIGS / "markov_2letter.json").read_text())
    raw["observables"]["g"] = {"depth": 2, "values": {"1, 2": 3, "2,1": -0.5}, "default": 1}
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.observables == {
        "f": {"values": {(1,): 1.0, (2,): 0.0}, "depth": 1, "default": None},
        "g": {"values": {(1, 2): 3.0, (2, 1): -0.5}, "depth": 2, "default": 1.0},
    }
    assert cfg.raw == raw  # the config hash covers the file as written
    # an undeclared observable is the indicator of the least letter
    undeclared = {"values": {(1,): 1.0, (2,): 0.0}, "depth": 1, "default": None}
    assert load_config(CONFIGS / "golden_mean.json").observables == {"f": undeclared,
                                                                     "g": undeclared}


def test_bad_table_potential_word_exits_2(tmp_path, capsys):
    # the word was parsed by a bare int(), which raised ValueError
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    raw["potential"] = {"kind": "table", "depth": 1, "r": 0.3, "kappa": [0.0],
                        "tables": {"a": {"1": -0.5, "two": -0.9}}}
    _expect_config_error(raw, 'potential.tables.a: expected comma-separated integer letters, '
                         'got "two"', tmp_path, capsys)


TABLE_POTENTIAL = {"kind": "table", "depth": 1, "r": 0.3, "index": 1, "kappa": [0.0],
                   "tables": {"a": {"1": -0.5, "2": -0.9}}}


@pytest.mark.parametrize("stem, edit, message", [
    ("golden_mean", lambda raw: raw.update(potential={
        **TABLE_POTENTIAL, "tables": {"a": {"1": -0.5, "2": "x"}}}),
     'potential.tables.a["2"]: expected a number, got "x"'),
    ("golden_mean", lambda raw: raw["potential"].update(r="x"),
     'potential.r: expected a number, got "x"'),
    ("golden_mean", lambda raw: raw.update(potential={**TABLE_POTENTIAL, "depth": "x"}),
     'potential.depth: expected an integer, got "x"'),
    ("golden_mean", lambda raw: raw.update(potential={**TABLE_POTENTIAL, "index": "x"}),
     'potential.index: expected an integer, got "x"'),
    ("constant_full_shift", lambda raw: raw["potential"].update(value="x"),
     'potential.value: expected a number, got "x"'),
    ("golden_mean", lambda raw: raw["metric"].update(beta="x"),
     'metric.beta: expected a number, got "x"'),
    ("golden_mean", lambda raw: raw.update(pressure={"letter": "x"}),
     'pressure.letter: expected an integer, got "x"'),
    ("full_shift_iid", lambda raw: raw["fibers"]["bip"].update(I=[1, "x"]),
     'fibers.bip.I[1]: expected an integer, got "x"'),
], ids=["table-value", "r", "depth", "index", "constant-value", "beta", "pressure-letter",
        "bip-letter"])
def test_bad_config_scalar_exits_2(stem, edit, message, tmp_path, capsys):
    # each was converted by a bare float() or int(), which raised ValueError
    raw = json.loads((CONFIGS / f"{stem}.json").read_text())
    edit(raw)
    _expect_config_error(raw, message, tmp_path, capsys)


@pytest.mark.parametrize("stem, edit, message", [
    ("golden_mean", lambda raw: raw.update(potential={**TABLE_POTENTIAL, "kappa": ["x"]}),
     'potential.kappa[0]: expected a number, got "x"'),
    ("golden_mean", lambda raw: raw.update(potential={**TABLE_POTENTIAL, "kappa": 0.5}),
     "potential.kappa: expected a list, got 0.5"),
    ("golden_mean", lambda raw: raw["potential"]["matrices"]["a"][1].__setitem__(0, "x"),
     'potential.matrices.a[1][0]: expected a number, got "x"'),
    ("golden_mean", lambda raw: raw["potential"]["matrices"]["a"].__setitem__(1, 5),
     "potential.matrices.a[1]: expected a list, got 5"),
    ("golden_mean", lambda raw: raw["driver"]["law"].update(weights=["x"]),
     'driver.law.weights[0]: expected a number, got "x"'),
    ("random_3letter", lambda raw: raw["driver"]["law"]["matrix"][0].__setitem__(1, "x"),
     'driver.law.matrix[0][1]: expected a number, got "x"'),
    ("golden_mean", lambda raw: raw["fibers"]["alphabets"]["a"].__setitem__(1, "x"),
     'fibers.alphabets.a[1]: expected an integer, got "x"'),
], ids=["kappa-entry", "kappa-scalar", "matrix-entry", "matrix-row", "law-weight",
        "law-matrix", "alphabet-letter"])
def test_bad_config_entry_exits_2(stem, edit, message, tmp_path, capsys):
    # each entry was converted by a bare float(), int() or np.asarray, which raised
    raw = json.loads((CONFIGS / f"{stem}.json").read_text())
    edit(raw)
    _expect_config_error(raw, message, tmp_path, capsys)


KERNEL = "equilibrium.comparison_kernel"


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["equilibrium"]["comparison_kernel"][0].__setitem__(1, "x"),
     f'{KERNEL}[0][1]: expected a number, got "x"'),
    (lambda raw: raw["equilibrium"]["comparison_kernel"][1].__setitem__(0, float("nan")),
     f"{KERNEL}[1][0]: expected a finite number, got NaN"),
    (lambda raw: raw["equilibrium"]["comparison_kernel"].pop(),
     f"{KERNEL}: expected a square list of lists, got 1 rows and 2 entries in row 0"),
    (lambda raw: raw["equilibrium"].update(comparison_kernel=[0.5, 0.5]),
     f"{KERNEL}[0]: expected a list, got 0.5"),
    (lambda raw: raw.update(equilibrium=[]), "equilibrium: expected an object, got []"),
    (lambda raw: raw["sequences"].update(B=[]), "sequences.B: expected a number, got []"),
    (lambda raw: raw["sequences"].update(C="x"), 'sequences.C: expected a number, got "x"'),
    (lambda raw: raw["sequences"].update(B=float("inf")),
     "sequences.B: expected a finite number, got Infinity"),
], ids=["kernel-entry", "kernel-nan", "kernel-ragged", "kernel-flat", "equilibrium",
        "B-list", "C-string", "B-infinite"])
def test_run_time_config_holes_exit_2(edit, message, tmp_path, capsys):
    # each passed validate; `run` then ended in a traceback in _markov_comparison or
    # certify_event, or, for the ragged kernel, skipped equilibrium
    raw = json.loads((CONFIGS / "markov_2letter.json").read_text())
    edit(raw)
    _expect_config_error(raw, message, tmp_path, capsys)
    path = tmp_path / "bad.json"
    for experiment in ("equilibrium", "contract"):
        assert main(["run", str(path), experiment, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_null_sequence_thresholds_and_kernel_load(tmp_path):
    raw = json.loads((CONFIGS / "markov_2letter.json").read_text())
    raw["sequences"].update(B=None, C=2)
    raw["equilibrium"]["comparison_kernel"] = None
    path = tmp_path / "null.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert (cfg.sequences["B"], cfg.sequences["C"], cfg.comparison_kernel) == (None, 2, None)
    assert load_config(CONFIGS / "markov_2letter.json").comparison_kernel == [[0.5, 0.5],
                                                                              [0.5, 0.5]]


@pytest.mark.parametrize("section, key", [
    ("fibers", "alphabets"), ("fibers", "matrices"), ("potential", "matrices"),
])
def test_unknown_driver_state_exits_2(section, key, tmp_path, capsys):
    # FiberStructure.build reads only the declared states, so "c" was dropped
    raw = json.loads((CONFIGS / "random_3letter.json").read_text())
    raw[section][key]["c"] = raw[section][key]["a"]
    _expect_config_error(raw, f"{section}.{key}.c: unknown driver state", tmp_path, capsys)


def test_unknown_table_state_exits_2(tmp_path, capsys):
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    raw["potential"] = {"kind": "table", "depth": 1, "r": 0.3,
                        "tables": {"a": {"1": -0.5, "2": -0.9}, "z": {"1": 0.0}}}
    _expect_config_error(raw, "potential.tables.z: unknown driver state", tmp_path, capsys)


@pytest.mark.parametrize("stem, edit, message", [
    ("golden_mean", lambda raw: raw["driver"].update(law=[1]),
     "driver.law: expected an object, got [1]"),
    ("golden_mean", lambda raw: raw.update(metric="x"), 'metric: expected an object, got "x"'),
    ("full_shift_iid", lambda raw: raw["fibers"].update(bip=-1),
     "fibers.bip: expected an object, got -1"),
    ("full_shift_iid", lambda raw: raw["fibers"]["bip"].pop("I"),
     "fibers.bip.I: expected a list of integers, got null"),
    ("golden_mean", lambda raw: raw["potential"].pop("kind"),
     "potential.tables: expected an object, got null"),
    ("random_3letter", lambda raw: raw["driver"]["law"]["matrix"].__setitem__(1, [1]),
     "driver.law.matrix: expected a rectangular list of lists, got [[0.7, 0.3], [1]]"),
    ("golden_mean", lambda raw: raw["fibers"]["matrices"]["a"].__setitem__(1, [1]),
     "fibers.matrices.a: expected a rectangular list of lists, got [[1, 1], [1]]"),
    ("golden_mean", lambda raw: raw["driver"].update(states=[{}]),
     "driver.states[0]: expected a string, got {}"),
    ("golden_mean", lambda raw: raw["fibers"]["bip"].update(omega_bp=True),
     "fibers.bip.omega_bp: expected a list of strings, got true"),
    ("golden_mean", lambda raw: raw["fibers"].update(alphabets=None),
     "fibers.alphabets: expected an object, got null"),
    ("full_shift_iid", lambda raw: raw["fibers"]["matrices"].pop("b"),
     "fibers.matrices.b: expected a rectangular list of lists, got null"),
    ("golden_mean", lambda raw: raw["metric"].update(beta=10 ** 400),
     f"metric.beta: expected a number, got {10 ** 400}"),
    ("golden_mean", lambda raw: raw["fibers"]["alphabets"]["a"].__setitem__(1, 2 ** 64),
     f"fibers.alphabets.a[1]: expected an integer, got {2 ** 64}"),
    ("constant_full_shift", lambda raw: raw["potential"].update(value=2 ** 64),
     f"potential.value: expected a number at most 709.782712893384, got {2 ** 64}"),
    ("golden_mean", lambda raw: raw.update(potential={
        **TABLE_POTENTIAL, "tables": {"a": {"1": -0.5, "2": 710}}}),
     'potential.tables.a["2"]: expected a number at most 709.782712893384, got 710'),
], ids=["law-list", "metric-string", "bip-negative", "no-bip-letters", "no-potential-kind",
        "ragged-law", "ragged-pattern", "state-object", "omega-bool", "alphabets-null",
        "no-state-pattern", "beta-beyond-float", "letter-beyond-64-bits", "value-exp-overflows",
        "table-exp-overflows"])
def test_schema_mismatch_exits_2(stem, edit, message, tmp_path, capsys):
    # each ended `validate` in a Python traceback: an AttributeError, KeyError,
    # TypeError, ValueError or OverflowError in load_config, FiberStructure.build,
    # EventSpec.state_in or, for a potential value, transfer._step's math.exp
    raw = json.loads((CONFIGS / f"{stem}.json").read_text())
    edit(raw)
    _expect_config_error(raw, message, tmp_path, capsys)


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    # raw.get raised AttributeError on a JSON list
    _expect_config_error([1], "config: expected an object, got [1]", tmp_path, capsys)


@pytest.mark.parametrize("experiment", ["contract", "mixing", "correlations"])
def test_empty_big_preimage_event_fails_the_run(experiment, tmp_path):
    # validate warns of the zero frequency; the run used to end in a ValueError
    # from min() over the empty table of passage constants
    raw = json.loads((CONFIGS / "constant_full_shift.json").read_text())
    raw["fibers"]["bip"]["omega_bp"] = []
    path, out = tmp_path / "never.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), experiment, "--out-dir", str(out)]) == 1
    entry = json.loads((out / "report_seed1.json").read_text())[experiment]
    assert entry == {"passed": False, "error_class": "ConvergenceError",
                     "error": "no fiber of the window [-80, 80] has a big-preimage passage"}


@pytest.mark.parametrize("kappa", [None, [0.5]])
def test_table_missing_a_word_exits_2(kappa, tmp_path, capsys):
    # without kappa, fitting it ended `validate` in a KeyError from prefix_spread;
    # with it, the summability probe named the word but not the state
    raw = _depth3_table()
    del raw["potential"]["tables"]["a"]["2,2,2"]
    if kappa is not None:
        raw["potential"]["kappa"] = kappa
    _expect_config_error(raw, "potential.tables.a: no value for the admissible word 2,2,2",
                         tmp_path, capsys)


@pytest.mark.parametrize("experiment", ["contract", "mixing", "correlations"])
def test_return_scan_past_the_window_fails_the_run(experiment, tmp_path):
    # a kappa that understates the table's variation settles slowly enough that
    # the markov return scan read cert.alpha past the window: a KeyError
    raw = _depth3_table()
    raw["potential"]["kappa"] = [0.1]
    raw["potential"]["tables"]["a"].update({"1,1,1": 0, "2,1,1": 1.5})
    path, out = tmp_path / "understated.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), experiment, "--out-dir", str(out)]) == 1
    entry = json.loads((out / "report_seed2.json").read_text())[experiment]
    assert entry == {"passed": False, "error_class": "ConvergenceError",
                     "error": "certified-event return scan from fiber 81, "
                              "past the window [-80, 80]"}


def test_seed_override_stays_out_of_the_config_hash(tmp_path):
    heads = {}
    for name, flags in {"plain": [], "seed": ["--seed", "5"]}.items():
        out = tmp_path / name
        assert main(["run", str(CONFIGS / "markov_2letter.json"), "rpf",
                     "--out-dir", str(out), *flags]) == 0
        heads[name] = (out / "rpf_fibers_seed5.csv").read_text().splitlines()[0]
    assert heads["plain"] == heads["seed"] == "# config=8afe7bbfc2bc0473 seed=5"


def test_config_horizon_must_be_positive(tmp_path):
    rep = validate_config(load_config(_golden(tmp_path, horizons={"decay": -3})))
    assert not rep["ok"]
    assert rep["violations"] == ["horizon decay must be positive, got -3"]


@pytest.mark.parametrize("depths, violation", [
    ({"working": 0}, "depth working must be positive, got 0"),
    ({"algebra": 0}, "depth algebra must be positive, got 0"),
    ({"entropy": -1}, "depth entropy must be positive, got -1"),
])
def test_config_depths_must_be_positive(depths, violation, tmp_path):
    raw = json.loads((CONFIGS / "golden_mean.json").read_text())
    rep = validate_config(load_config(_golden(tmp_path, depths={**raw["depths"], **depths})))
    assert rep["violations"] == [violation]


def test_working_depth_below_locality_is_a_violation(tmp_path, capsys):
    # a depth-3 table potential reads two-letter tails: locality max(p-1, 1) = 2
    words = ["1,1,1", "1,1,2", "1,2,1", "2,1,1", "2,1,2"]
    table = {w: 0.0 for w in words}
    path = _golden(tmp_path, potential={"kind": "table", "depth": 3, "r": 0.5,
                                        "kappa": [0.0], "tables": {"a": table}})
    assert validate_config(load_config(path))["ok"]
    assert main(["run", str(path), "rpf", "--depth", "1", "--out-dir", str(tmp_path)]) == 2
    assert "working depth 1 is below the potential's locality 2" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("value", ["0", "many", "\u00b2"])
def test_bad_window_cap_exits_2(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RR_MAX_WINDOW", value)
    assert main(["run", str(CONFIGS / "golden_mean.json"), "rpf",
                 "--out-dir", str(tmp_path)]) == 2
    assert "RR_MAX_WINDOW" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "none.json"), "rpf"]) == 2


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only lipschitz_dual, which imports it on its first call
    probe = "import sys, rtmclab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"
