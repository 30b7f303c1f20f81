"""Experiment configuration: a versioned JSON schema and its validation.

One file declares the driver law, the fiber structure with its mediator data,
the potential, metric parameters, depths, horizons and seeds; a key of the
depths, horizons, trials or sequences section that nothing reads is rejected
on load.  validate()
performs the structural checks (stochasticity, row/column positivity, big
images/preimages, empirical summability, stationary event frequency,
positive depths, a working depth between the potential's locality and the
cap, positive horizons, non-negative seeds) without running any experiment.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


_KINDS = {"an integer": int, "a number": (int, float), "an object": dict,
          "a list": list, "a list of integers": list}


def _expect(value, key: str, kind: str):
    """A value as written in the config; a value of another JSON kind, a bool
    where a number is expected included, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{key}: expected {kind}, got {json.dumps(value)}")
    return value


def _entries(value, key: str, kind: str, dims: int = 1):
    """A list (of lists, for dims 2) as written in the config, each entry checked
    by `_expect` under its path, e.g. `potential.matrices.a[1][0]`."""
    _expect(value, key, "a list")
    for i, v in enumerate(value):
        if dims > 1:
            _entries(v, f"{key}[{i}]", kind, dims - 1)
        else:
            _expect(v, f"{key}[{i}]", kind)
    return value


def _finite(value, key: str):
    """A JSON number that is neither NaN nor infinite."""
    if not math.isfinite(_expect(value, key, "a number")):
        raise ConfigError(f"{key}: expected a finite number, got {json.dumps(value)}")
    return value


def _kernel(raw: dict):
    """The equilibrium comparison kernel, null or a square list of finite numbers."""
    kernel = _expect(raw.get("equilibrium", {}), "equilibrium", "an object").get(
        "comparison_kernel")
    if kernel is None:
        return None
    key = "equilibrium.comparison_kernel"
    for i, row in enumerate(_entries(kernel, key, "a number", dims=2)):
        if len(row) != len(kernel):
            raise ConfigError(f"{key}: expected a square list of lists, got {len(kernel)} "
                              f"rows and {len(row)} entries in row {i}")
        for k, v in enumerate(row):
            _finite(v, f"{key}[{i}][{k}]")
    return kernel


def _section(raw: dict, name: str, defaults: dict) -> dict:
    """A config section over its defaults; a section that is not an object, a
    key nothing reads and a value that is not an integer where the default is
    one are ConfigErrors."""
    values = _expect(raw.get(name, {}), name, "an object")
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {name} key(s) {', '.join(unknown)}; "
                          f"known: {', '.join(sorted(defaults))}")
    section = {**defaults, **values}
    for key, default in defaults.items():
        if isinstance(default, int):
            _expect(section[key], f"{name}.{key}", "an integer")
    return section


def _check_state_keys(raw: dict, states: tuple) -> None:
    """Every per-state table is keyed by states the driver declares."""
    for section, key in (("fibers", "alphabets"), ("fibers", "matrices"),
                         ("potential", "matrices"), ("potential", "tables")):
        table = raw[section].get(key)
        unknown = sorted(set(table) - set(states)) if isinstance(table, dict) else ()
        if unknown:
            raise ConfigError(f"{section}.{key}.{unknown[0]}: unknown driver state")


def _observables(raw: dict, universe: tuple) -> dict:
    """Each observable f and g as its word -> value table, depth and default,
    converted and checked on load; an undeclared one is the indicator of the
    least letter."""
    specs, out = _expect(raw.get("observables", {}), "observables", "an object"), {}
    for key in ("f", "g"):
        if key not in specs:
            out[key] = {"values": {(a,): float(a == universe[0]) for a in universe},
                        "depth": 1, "default": None}
            continue
        at = f"observables.{key}"
        spec = _expect(specs[key], at, "an object")
        table = _expect(spec.get("values"), f"{at}.values", "an object")
        values = {parse_word(w, f"{at}.values"):
                  float(_expect(v, f"{at}.values[{json.dumps(w)}]", "a number"))
                  for w, v in table.items()}
        default = spec.get("default")
        if default is not None:
            default = float(_expect(default, f"{at}.default", "a number"))
        depth = _expect(spec.get("depth", 1), f"{at}.depth", "an integer")
        out[key] = {"values": values, "depth": depth, "default": default}
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if raw.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}, got {raw.get('schema')!r}")
    for key in ("driver", "fibers", "potential"):
        if key not in raw:
            raise ConfigError(f"config misses the {key!r} section")
    drv = raw["driver"]
    law = drv.get("law", {})
    system = DriverSystem(
        states=tuple(drv.get("states", [])),
        kind=law.get("kind", "iid"),
        weights=(np.asarray(_entries(law["weights"], "driver.law.weights", "a number"),
                            dtype=float) if "weights" in law else None),
        matrix=(np.asarray(_entries(law["matrix"], "driver.law.matrix", "a number", dims=2),
                           dtype=float) if "matrix" in law else None),
        seed=_expect(drv.get("seed", 0), "driver.seed", "an integer"),
    )
    _check_state_keys(raw, system.states)
    fib = raw["fibers"]
    bip = None
    if "bip" in fib:
        b = fib["bip"]
        bip = BipStructure(
            letters=frozenset(_expect(x, f"fibers.bip.I[{i}]", "an integer")
                              for i, x in enumerate(b["I"])),
            omega_bp=EventSpec.state_in(system, b.get("omega_bp", []), name="omega_bp"),
            omega_bi=EventSpec.state_in(system, b.get("omega_bi", []), name="omega_bi"),
        )
    if isinstance(fib.get("alphabets"), dict):
        for label, letters in fib["alphabets"].items():
            _entries(letters, f"fibers.alphabets.{label}", "an integer")
    fibers = FiberStructure.build(system, fib["alphabets"], fib["matrices"], bip=bip)
    pot = raw["potential"]
    kind = pot.get("kind", "table")
    r = float(_expect(pot.get("r", 0.49), "potential.r", "a number"))
    if kind == "log_matrix":
        weights = [np.asarray(_entries(pot["matrices"][s], f"potential.matrices.{s}",
                                       "a number", dims=2), dtype=float)
                   for s in system.states]
        potential = log_matrix_potential(fibers, weights, r=r)
    elif kind == "constant":
        value = float(_expect(pot.get("value"), "potential.value", "a number"))
        potential = constant_potential(fibers, value, r=r)
    elif kind == "table":
        tables = [
            {parse_word(k, f"potential.tables.{s}"):
             float(_expect(v, f"potential.tables.{s}[{json.dumps(k)}]", "a number"))
             for k, v in pot["tables"][s].items()}
            for s in system.states
        ]
        depth = _expect(pot.get("depth"), "potential.depth", "an integer")
        index = _expect(pot.get("index", 2), "potential.index", "an integer")
        kappa = pot.get("kappa")
        if kappa is not None:
            _entries(kappa, "potential.kappa", "a number")
        potential = table_potential(tables, depth=depth, r=r, index=index, kappa=kappa)
        if "kappa" not in pot:
            probe = sample_path(system, seed=system.seed)
            kappas = [0.0] * system.n_states
            for i in range(-32, 32):
                s = probe.state(i)
                kappas[s] = max(kappas[s], fitted_kappa(potential, fibers, probe, i))
            potential = table_potential(tables, depth=depth, r=r, index=index, kappa=kappas)
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")
    metric = raw.get("metric", {})
    beta = float(_expect(metric.get("beta", 0.5), "metric.beta", "a number"))
    if not 0 < beta < 1:
        raise ConfigError("beta must lie in (0, 1)")
    if not 0 < r < 1:
        raise ConfigError("r must lie in (0, 1)")
    depths = _section(raw, "depths", _DEPTH_DEFAULTS)
    horizons = _section(raw, "horizons", _HORIZON_DEFAULTS)
    trials = _section(raw, "trials", _TRIAL_DEFAULTS)
    seeds = _expect(raw.get("seeds", [system.seed]), "seeds", "a list of integers")
    seeds = [_expect(s, f"seeds[{i}]", "an integer") for i, s in enumerate(seeds)]
    sequences = _section(raw, "sequences", _SEQUENCE_DEFAULTS)
    for key in ("B", "C"):
        if sequences[key] is not None:
            _finite(sequences[key], f"sequences.{key}")
    observables = _observables(raw, fibers.universe)
    return ExperimentConfig(
        raw=raw, path=str(path), system=system, fibers=fibers, potential=potential,
        beta=beta, depths=depths, horizons=horizons, trials=trials, seeds=seeds,
        sequences=sequences, observables=observables,
        pressure_letter=_expect(raw.get("pressure", {}).get("letter", min(fibers.universe)),
                                "pressure.letter", "an integer"),
        comparison_kernel=_kernel(raw),
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
