"""The four benchmark workloads and the checks on their outputs.

A pass is one complete execution of a workload, from ``load_config`` to the
last artifact; it returns one ``Op`` per experiment or duality pair.  The
same (workload, seed) gives the same inputs on every pass.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Library calls go through the module attributes, where the tracer rebinds them.
import rtmclab
from rtmclab import cli
from rtmclab.experiments import EXPERIMENTS

DUALITY_GAP = 1e-8  # acceptance 1: primal minus Kantorovich-Rubinstein value
REL_TOL = 1e-6  # reference floats: |a - b| <= REL_TOL * max(1, |b|)


@dataclass
class Op:
    key: str  # "<config name>/<experiment or pair>/seed<k>"
    fields: dict = field(default_factory=dict)  # flattened scalar outputs
    error: str | None = None


def flatten(obj, prefix: str = "") -> dict:
    """Nested report -> {dotted.key: scalar}."""
    if isinstance(obj, dict):
        out = {}
        for k in sorted(obj, key=str):
            out.update(flatten(obj[k], f"{prefix}.{k}" if prefix else str(k)))
        return out
    if isinstance(obj, (list, tuple)):
        out = {}
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}[{i}]"))
        return out
    return {prefix: obj}


def _same(a, b) -> bool:
    if isinstance(b, bool) or isinstance(a, bool):
        return a is b
    if isinstance(b, int) and isinstance(a, int):
        return a == b
    if isinstance(b, (int, float)) and isinstance(a, (int, float)):
        if math.isnan(b) or math.isnan(a):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOL * max(1.0, abs(b))
    return a == b


def reference_mismatch(fields: dict, expected: dict) -> str | None:
    """First field that differs from the reference: integers exact, floats at REL_TOL."""
    for key, want in expected.items():
        if key not in fields:
            return f"{key} missing"
        if not _same(fields[key], want):
            return f"{key} = {fields[key]!r}, reference {want!r}"
    return None


def check_passes(passes: list, reference: dict) -> list:
    """(op key, reason) for every failed op over all passes of one run."""
    failures = []
    first = {op.key: json.dumps(op.fields, sort_keys=True) for op in passes[0]}
    for ops in passes:
        for op in ops:
            reason = op.error
            if reason is None and op.key in reference:
                mismatch = reference_mismatch(op.fields, reference[op.key])
                if mismatch:
                    reason = f"reference mismatch: {mismatch}"
            if reason is None and json.dumps(op.fields, sort_keys=True) != first.get(op.key):
                reason = "output differs from the first pass"
            if reason is not None:
                failures.append((op.key, reason))
    return failures


class CliWorkload:
    """`rtmclab run <config> <experiment>` on derived configs, through ``cli.main``."""

    def __init__(self, name: str, runs: list):
        self.name = name
        self.runs = runs  # (config file stem, experiment, config overrides)

    def prepare(self, root: Path, work: Path, seed: int | None) -> None:
        """Write each derived config: the shipped file plus overrides and the seed."""
        self.invocations = []
        for stem, experiment, overrides in self.runs:
            raw = json.loads((root / "configs" / f"{stem}.json").read_text())
            for section, values in overrides.items():
                raw[section] = {**raw.get(section, {}), **values}
            if seed is not None:
                raw["seeds"] = [seed]
            path = work / f"{stem}.json"
            path.write_text(json.dumps(raw, indent=1))
            names = EXPERIMENTS if experiment == "all" else (experiment,)
            keys = [(str(s), exp, f"{raw.get('name', stem)}/{exp}/seed{s}")
                    for s in raw.get("seeds", [raw["driver"].get("seed", 0)]) for exp in names]
            self.invocations.append((path, experiment, work / f"out_{stem}", keys))

    def run_pass(self) -> list[Op]:
        ops = []
        for cfg_path, experiment, out_dir, keys in self.invocations:
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = ["run", str(cfg_path), experiment, "--out-dir", str(out_dir)]
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped error fails every op of the run
                code, crash = None, f"{type(exc).__name__}: {exc}"
            else:
                crash = None
            ops.extend(self._ops(keys, out_dir, code, crash))
        return ops

    @staticmethod
    def _ops(keys, out_dir, code, crash) -> list[Op]:
        summary = {}
        if crash is None:
            try:
                summary = json.loads((out_dir / "summary.json").read_text())["seeds"]
            except (OSError, ValueError, KeyError) as exc:
                crash = f"no summary.json: {exc}"
        ops = []
        for seed, exp, key in keys:
            op = Op(key)
            report = summary.get(seed, {}).get(exp)
            if crash is not None:
                op.error = crash
            elif report is None:
                op.error = "no report entry"
            else:
                op.fields = flatten(report)
                if "error" in report:
                    op.error = f"error: {report['error']}"
                elif "skipped" in report:
                    op.error = f"skipped: {report['skipped']}"
                elif report.get("passed") is False:
                    op.error = "passed: false"
            ops.append(op)
        if code not in (0, None) and all(op.error is None for op in ops):
            for op in ops:
                op.error = f"exit code {code}"
        return ops


class DualityWorkload:
    """Random AtomicMeasure pairs: ``wasserstein`` against ``lipschitz_dual`` per pair."""

    def __init__(self, name: str, config: str, schedule: list, default_seed: int):
        self.name = name
        self.config = config
        self.schedule = schedule  # (depth, metric kind, pair count)
        self.default_seed = default_seed

    def prepare(self, root: Path, work: Path, seed: int | None) -> None:
        self.cfg_path = root / "configs" / f"{self.config}.json"
        self.seed = self.default_seed if seed is None else seed

    def run_pass(self) -> list[Op]:
        cfg = rtmclab.load_config(self.cfg_path)
        report = rtmclab.validate_config(cfg)
        if not report["ok"]:
            return [Op(f"{cfg.name}/validate/seed{self.seed}",
                       error=f"config violations: {report['violations']}")]
        rng = np.random.default_rng(self.seed)
        path = cfg.sample(self.seed)
        ops = []
        index = 0
        for depth, kind, count in self.schedule:
            for _ in range(count):
                op = Op(f"{cfg.name}/pair{index}/seed{self.seed}")
                index += 1
                fiber = int(rng.integers(-64, 65))
                alpha = float(rng.uniform(1.0, 4.0)) if kind == "adjusted" else 1.0
                metric = rtmclab.Metric(kind, cfg.potential.r, alpha)
                mu = rtmclab.AtomicMeasure.random(cfg.fibers, path, fiber, depth, rng)
                nu = rtmclab.AtomicMeasure.random(cfg.fibers, path, fiber, depth, rng)
                try:
                    w_value, _ = rtmclab.wasserstein(mu, nu, metric)
                    kr_value, _ = rtmclab.lipschitz_dual(mu, nu, metric)
                except Exception as exc:  # a failed solve fails this pair only
                    op.error = f"{type(exc).__name__}: {exc}"
                    ops.append(op)
                    continue
                gap = abs(w_value - kr_value)
                op.fields = {"fiber": fiber, "depth": depth, "n": len(mu.weights),
                             "m": len(nu.weights), "w": w_value, "kr": kr_value}
                if gap > DUALITY_GAP:
                    op.error = f"primal-KR gap {gap:g} above {DUALITY_GAP:g}"
                ops.append(op)
        return ops


# Sizes are cut from the full CLI runs so that several passes fit in one
# measured run; see README.md for the full-size figures.
WORKLOADS = {
    "contract_r3": CliWorkload("contract_r3", [
        ("random_3letter", "contract", {"trials": {"lemma": 8}}),
    ]),
    "all_m2": CliWorkload("all_m2", [
        ("markov_2letter", "all", {"trials": {"lemma": 4}, "horizons": {"solve": 60}}),
    ]),
    "all_small": CliWorkload("all_small", [
        ("full_shift_iid", "all", {"trials": {"lemma": 4}}),
        ("golden_mean", "all", {"trials": {"lemma": 4}}),
    ]),
    "duality_r3": DualityWorkload("duality_r3", "random_3letter", [
        (3, "raw", 2), (3, "adjusted", 2),
        (4, "raw", 2), (4, "adjusted", 2),
        (5, "raw", 1), (5, "adjusted", 1),
    ], default_seed=17),
}
