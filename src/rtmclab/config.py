"""Experiment configuration: a versioned JSON schema and its validation.

One file declares the driver law, the fiber structure with its mediator data,
the potential, metric parameters, depths, horizons and seeds.  load_config
checks the raw JSON against SCHEMA, its shape, before building anything from
it.  validate_config performs the structural checks (stochasticity, row/column
positivity, big images/preimages, empirical summability, stationary event
frequency, positive depths, a working depth between the potential's locality
and the cap, positive horizons, non-negative seeds) without running any
experiment.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .driver import DEFAULT_MAX_RADIUS, DriverSystem, EventSpec, sample_path
from .errors import ConfigError
from .potentials import (
    Potential,
    constant_potential,
    fitted_kappa,
    log_matrix_potential,
    table_potential,
)
from .shifts import BipStructure, FiberStructure, parse_word
from .transfer import summability_value

SCHEMA_VERSION = 1

_DEPTH_DEFAULTS = {"working": 6, "algebra": 2, "entropy": 10, "cap": 16}
_HORIZON_DEFAULTS = {
    "solve": 100, "pressure": 400, "decay": 40, "mixing": 14, "matrix": 60,
}
_TRIAL_DEFAULTS = {"lemma": 50}
_SEQUENCE_DEFAULTS = {"mode": "markov", "count": 10, "B": None, "C": None}


@dataclass(eq=False)
class ExperimentConfig:
    raw: dict
    path: str
    system: DriverSystem
    fibers: FiberStructure
    potential: Potential
    beta: float
    depths: dict
    horizons: dict
    trials: dict
    seeds: list
    sequences: dict
    observables: dict
    pressure_letter: int
    comparison_kernel: list | None
    name: str

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def sample(self, seed: int, max_radius: int = DEFAULT_MAX_RADIUS):
        return sample_path(self.system, seed=seed, max_radius=max_radius)


# A schema node is a JSON kind, named as messages name it; [node], a list of
# entries of that node, whose rows have one length if they are lists; (None,
# node), null or that node; or a dict of an object's keys.  A dict keyed by
# STATE has one entry per declared driver state and no other key, a dict keyed
# by WORD a comma-separated word per key.
NUMBER, FINITE, INTEGER, STRING = "a number", "a finite number", "an integer", "a string"
# a potential value v weighs a branch by e^v, which must be a float
_LOG_MAX = math.log(sys.float_info.max)
LOG_WEIGHT = f"a number at most {_LOG_MAX!r}"
STATE, WORD = "<state>", "<word>"
_TYPES = {NUMBER: (int, float), FINITE: (int, float), LOG_WEIGHT: (int, float), INTEGER: int,
          STRING: str}
# the largest JSON integer the program reads: as a float, or as a 64-bit integer
_BOUNDS = {NUMBER: sys.float_info.max, FINITE: sys.float_info.max,
           LOG_WEIGHT: sys.float_info.max, INTEGER: 2 ** 63 - 1}
_LISTS = {INTEGER: "a list of integers", STRING: "a list of strings"}
_CLOSED = ("depths", "horizons", "trials", "sequences")  # a key nothing reads is an error
_SQUARE = ("equilibrium.comparison_kernel",)  # as many entries in each row as rows
_DEFAULT_KIND = "table"  # the kind of a potential that names none


@dataclass(frozen=True)
class Required:
    """A key the config must give; with `kind`, only a potential of that kind must."""

    node: object
    kind: str | None = None


SCHEMA = {
    "name": STRING,
    "driver": Required({
        "states": Required([STRING]),
        "law": {"kind": STRING, "weights": [NUMBER], "matrix": [[NUMBER]]},
        "seed": INTEGER,
    }),
    "fibers": Required({
        "alphabets": Required({STATE: [INTEGER]}),
        "matrices": Required({STATE: [[INTEGER]]}),
        "bip": {"I": Required([INTEGER]), "omega_bp": [STRING], "omega_bi": [STRING]},
    }),
    "potential": Required({
        "kind": STRING,
        "r": NUMBER,
        "matrices": Required({STATE: [[NUMBER]]}, "log_matrix"),
        "value": Required(LOG_WEIGHT, "constant"),
        "tables": Required({STATE: {WORD: LOG_WEIGHT}}, "table"),
        "depth": Required(INTEGER, "table"),
        "index": INTEGER,
        "kappa": (None, [NUMBER]),
    }),
    "metric": {"beta": NUMBER},
    "depths": dict.fromkeys(_DEPTH_DEFAULTS, INTEGER),
    "horizons": dict.fromkeys(_HORIZON_DEFAULTS, INTEGER),
    "trials": dict.fromkeys(_TRIAL_DEFAULTS, INTEGER),
    "seeds": [INTEGER],
    "sequences": {"mode": STRING, "count": INTEGER, "B": (None, FINITE), "C": (None, FINITE)},
    "observables": dict.fromkeys("fg", {"values": Required({WORD: NUMBER}),
                                        "default": (None, NUMBER), "depth": INTEGER}),
    "pressure": {"letter": INTEGER},
    "equilibrium": {"comparison_kernel": (None, [[FINITE]])},
}


def _check(value, node, at: str, raw: dict) -> None:
    """Check `value`, found at path `at` of `raw`, against a schema node; a value of
    another JSON kind, a bool where a number is expected included, is a ConfigError."""
    if isinstance(node, Required):
        node = node.node
    if isinstance(node, tuple):
        if value is not None:
            _check(value, node[1], at, raw)
        return
    square = at in _SQUARE
    if isinstance(node, dict):
        kind, ok = "an object", isinstance(value, dict)
    elif isinstance(node, list):
        kind = (f"a {'square' if square else 'rectangular'} list of lists"
                if isinstance(node[0], list) else _LISTS.get(node[0], "a list"))
        ok = isinstance(value, list)
    else:
        kind = NUMBER if node in (FINITE, LOG_WEIGHT) else node
        ok = isinstance(value, _TYPES[node]) and not isinstance(value, bool)
        if ok and isinstance(value, int):
            ok = abs(value) <= _BOUNDS[node]
    if (not ok or node == FINITE and not math.isfinite(value)
            or node == LOG_WEIGHT and value > _LOG_MAX):
        raise ConfigError(f"{at or 'config'}: expected {node if ok else kind}, "
                          f"got {json.dumps(value)}")
    if isinstance(node, dict):
        _check_object(value, node, at, raw)
    elif isinstance(node, list):
        for i, entry in enumerate(value):
            _check(entry, node[0], f"{at}[{i}]", raw)
            if isinstance(node[0], list) and len(entry) != len(value if square else value[0]):
                got = (f"{len(value)} rows and {len(entry)} entries in row {i}" if square
                       else json.dumps(value))
                raise ConfigError(f"{at}: expected {kind}, got {got}")


def _check_object(value: dict, node: dict, at: str, raw: dict) -> None:
    """An object's keys, the required ones present, and the config's schema version."""
    if not at and value.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}, got {value.get('schema')!r}")
    if WORD in node:
        for word, entry in value.items():
            parse_word(word, at)
            _check(entry, node[WORD], f"{at}[{json.dumps(word)}]", raw)
        return
    if STATE in node:
        states = raw["driver"]["states"]
        unknown = sorted(set(value) - set(states))
        if unknown:
            raise ConfigError(f"{at}.{unknown[0]}: unknown driver state")
        node = {state: Required(node[STATE]) for state in states}
    unknown = sorted(set(value) - set(node)) if at in _CLOSED else ()
    if unknown:
        raise ConfigError(f"unknown {at} key(s) {', '.join(unknown)}; "
                          f"known: {', '.join(sorted(node))}")
    for key, child in node.items():
        path = f"{at}.{key}" if at else key
        if key in value:
            _check(value[key], child, path, raw)
        elif isinstance(child, Required) and child.kind in (None, value.get("kind", _DEFAULT_KIND)):
            if not at:
                raise ConfigError(f"config misses the {key!r} section")
            _check(None, child, path, raw)


def _observables(raw: dict, universe: tuple) -> dict:
    """Each observable f and g as its word -> value table, depth and default,
    converted on load; an undeclared one is the indicator of the least letter."""
    least = {"values": {str(a): float(a == universe[0]) for a in universe}}
    specs = {key: raw.get("observables", {}).get(key, least) for key in ("f", "g")}
    return {key: {"values": {parse_word(w, f"observables.{key}.values"): float(v)
                             for w, v in spec["values"].items()},
                  "depth": spec.get("depth", 1),
                  "default": None if spec.get("default") is None else float(spec["default"])}
            for key, spec in specs.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check(raw, SCHEMA, "", raw)  # before anything is built from it
    drv, fib, pot = raw["driver"], raw["fibers"], raw["potential"]
    law = drv.get("law", {})
    system = DriverSystem(states=tuple(drv["states"]), kind=law.get("kind", "iid"),
                          weights=law.get("weights"), matrix=law.get("matrix"),
                          seed=drv.get("seed", 0))
    b = fib.get("bip")
    bip = None if b is None else BipStructure(
        letters=frozenset(b["I"]),
        omega_bp=EventSpec.state_in(system, b.get("omega_bp", []), name="omega_bp"),
        omega_bi=EventSpec.state_in(system, b.get("omega_bi", []), name="omega_bi"),
    )
    fibers = FiberStructure.build(system, fib["alphabets"], fib["matrices"], bip=bip)
    kind = pot.get("kind", _DEFAULT_KIND)
    r = float(pot.get("r", 0.49))
    if kind == "log_matrix":
        potential = log_matrix_potential(fibers, [pot["matrices"][s] for s in system.states], r=r)
    elif kind == "constant":
        potential = constant_potential(fibers, pot["value"], r=r)
    elif kind == "table":
        tables = [{parse_word(k, f"potential.tables.{s}"): v
                   for k, v in pot["tables"][s].items()} for s in system.states]
        depth, index = pot["depth"], pot.get("index", 2)
        potential = table_potential(tables, depth=depth, r=r, index=index, kappa=pot.get("kappa"))
        # every word admissible along a state window the law charges has a value in
        # the table of the window's first state
        successors = {}
        for s, t in system.transitions():
            successors.setdefault(s, []).append(t)
        windows = [(s,) for s in range(system.n_states)]
        for _ in range(depth - 1):
            windows = [w + (t,) for w in windows for t in successors.get(w[-1], ())]
        for window in windows:
            missing = set(fibers.words_over(window).words) - tables[window[0]].keys()
            if missing:
                raise ConfigError(f"potential.tables.{system.states[window[0]]}: no value for "
                                  f"the admissible word {','.join(map(str, min(missing)))}")
        if "kappa" not in pot:
            probe = sample_path(system, seed=system.seed)
            kappas = [0.0] * system.n_states
            for i in range(-32, 32):
                s = probe.state(i)
                kappas[s] = max(kappas[s], fitted_kappa(potential, fibers, probe, i))
            potential = table_potential(tables, depth=depth, r=r, index=index, kappa=kappas)
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")
    beta = float(raw.get("metric", {}).get("beta", 0.5))
    if not 0 < beta < 1:
        raise ConfigError("beta must lie in (0, 1)")
    return ExperimentConfig(
        raw=raw, path=str(path), system=system, fibers=fibers, potential=potential,
        beta=beta, depths={**_DEPTH_DEFAULTS, **raw.get("depths", {})},
        horizons={**_HORIZON_DEFAULTS, **raw.get("horizons", {})},
        trials={**_TRIAL_DEFAULTS, **raw.get("trials", {})},
        seeds=list(raw.get("seeds", [system.seed])),
        sequences={**_SEQUENCE_DEFAULTS, **raw.get("sequences", {})},
        observables=_observables(raw, fibers.universe),
        pressure_letter=raw.get("pressure", {}).get("letter", min(fibers.universe)),
        comparison_kernel=raw.get("equilibrium", {}).get("comparison_kernel"),
        name=raw.get("name", path.stem),
    )


def validate_config(cfg: ExperimentConfig) -> dict:
    """Structural validation report: violations block runs, warnings do not."""
    violations = list(cfg.fibers.validate_rows_columns(cfg.system))
    warnings = []
    if cfg.fibers.bip is None:
        warnings.append("no b.i.p. structure declared; contraction experiments unavailable")
    else:
        violations.extend(cfg.fibers.validate_bip(cfg.system))
        pi = cfg.system.stationary()
        for ev in (cfg.fibers.bip.omega_bp, cfg.fibers.bip.omega_bi):
            # the frequency of an event is the stationary mass of its states
            if sum(pi[s] for s in range(cfg.system.n_states) if ev.holds(s)) == 0.0:
                warnings.append(f"event {ev.name} has frequency 0 under the stationary law")
    probe = cfg.sample(cfg.system.seed)
    s_value = summability_value(cfg.potential, cfg.fibers, probe, span=64)
    if not math.isfinite(s_value):
        violations.append("summability probe diverged")
    violations.extend(f"depth {key} must be positive, got {value}"
                      for key, value in sorted(cfg.depths.items()) if value < 1)
    working, locality = cfg.depths["working"], max(cfg.potential.depth - 1, 1)
    if working > cfg.depths["cap"]:
        violations.append("working depth exceeds the configured cap")
    if 1 <= working < locality:
        violations.append(f"working depth {working} is below the potential's locality {locality}")
    violations.extend(f"horizon {key} must be positive, got {value}"
                      for key, value in sorted(cfg.horizons.items()) if value < 1)
    violations.extend(f"seed must be a non-negative integer, got {seed}"
                      for seed in cfg.seeds if seed < 0)
    return {
        "name": cfg.name,
        "hash": cfg.config_hash,
        "violations": violations,
        "warnings": warnings,
        "summability_mean": s_value,
        "ok": not violations,
    }
