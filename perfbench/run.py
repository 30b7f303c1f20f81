#!/usr/bin/env python3
"""rtmclab benchmark: four workloads through the public CLI and library.

    python3 perfbench/run.py --workload contract_r3 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all            # every workload, one process each

Run from any directory of a checkout that holds ``src/rtmclab`` and
``configs``.  Untraced (``--trace 0``) it repeats passes of the workload for
about ``--seconds`` and reports the end-to-end metrics; traced (``--trace 1``)
it runs one untraced and one traced pass and reports per-layer metrics.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("contract_r3", "all_m2", "all_small", "duality_r3")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# metric prefix -> function inside rtmclab, timed with a span per call
TIMED = {
    "driver.sample_path": "driver.sample_path",
    "shifts.canonical_representative": "shifts.canonical_representative",
    "potentials.distortion_constant": "potentials.distortion_constant",
    "transfer.transfer_apply": "transfer.transfer_apply",
    "transfer.dual_apply": "transfer.dual_apply",
    "transfer.rpf_solve": "transfer.rpf_solve",
    "transfer.invariant_measures": "transfer.invariant_measures",
    "transport.wasserstein": "transport.wasserstein",
    "transport.lipschitz_dual": "transport.lipschitz_dual",
    "transport.verify_main_lemma": "transport.verify_main_lemma",
    "transport.contraction_constants": "transport.contraction_constants",
    "matrices.matrix_rpf": "matrices.matrix_rpf",
    "matrices.matrix_decay_bounds": "matrices.matrix_decay_bounds",
    "mixing.psi_mixing": "mixing.psi_mixing",
    "mixing.correlation_decay": "mixing.correlation_decay",
    "mixing.equilibrium_gap": "mixing.equilibrium_gap",
    "config.load_config": "config.load_config",
    "config.validate_config": "config.validate_config",
    **{f"experiments.run_{r}": f"experiments.run_{r}" for r in
       ("rpf", "contract", "matrices", "mixing", "correlations", "equilibrium")},
    "cli.main": "cli.main",
}
# hot leaves: timing them distorts the run, so they are only counted
COUNTED = {
    "driver.state": "driver.DriverPath.state",
    "shifts.shift_metric": "shifts.shift_metric",
    "shifts.admissible_words": "shifts.admissible_words",
}
SETUP = ("config.load_config", "config.validate_config")
MODULES = ("driver", "shifts", "potentials", "transfer", "transport", "matrices",
           "mixing", "config", "experiments", "cli")


def _size(obj, attr: str) -> int:
    return len(getattr(obj, attr, None) or ())


def _union_rows(args, kwargs):
    mu, nu = args[:2]
    k = len(set(getattr(mu, "weights", ())) | set(getattr(nu, "weights", ())))
    return {"rows": k * (k - 1)}


def _word_cache_hit(args, kwargs):
    # the cache key of shifts.admissible_words: (id(fibers), start, n)
    if len(args) < 4:
        return None
    fibers, path, start, n = args[:4]
    cache = getattr(path, "word_cache", None)
    return {"hits": 1} if cache is not None and (id(fibers), start, n) in cache else None


HOOKS = {
    "transport.wasserstein": (None, lambda a, k, r: {"cells": _size(a[0], "weights")
                                                     * _size(a[1], "weights")}),
    "transport.lipschitz_dual": (_union_rows, None),
    "transfer.dual_apply": (None, lambda a, k, r: {"atoms_out": _size(r, "weights")}),
    "transfer.transfer_apply": (None, lambda a, k, r: {"words_out": _size(r, "values")}),
    "shifts.admissible_words": (_word_cache_hit, None),
}

UNITS = {"calls": "count", "failed": "count", "self_s": "s", "wall_s": "s", "cells": "count",
         "rows": "count", "atoms_out": "count", "words_out": "count", "hit_ratio": "ratio",
         "overhead_s": "s"}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    names = []
    for prefix in TIMED:
        if prefix.startswith("experiments."):
            names.append(f"{prefix}.wall_s")
        elif prefix == "cli.main":
            names.append(f"{prefix}.self_s")
        else:
            names += [f"{prefix}.calls", f"{prefix}.self_s"]
    names += ["transport.wasserstein.cells", "transport.wasserstein.failed",
              "transport.lipschitz_dual.rows", "transfer.dual_apply.atoms_out",
              "transfer.transfer_apply.words_out", "transfer.rpf_solve.failed",
              "driver.state.calls", "shifts.shift_metric.calls",
              "shifts.admissible_words.calls", "shifts.admissible_words.hit_ratio"]
    names += [f"layer.{m}.self_s" for m in MODULES]
    names.append("trace.overhead_s")
    return names


# -- environment --------------------------------------------------------------


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at one thread (at most nproc); must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
    }


# -- one workload ---------------------------------------------------------------


def run_pass(workload, tracer):
    """One pass under ``tracer``; returns (ops, wall seconds, setup seconds, window)."""
    with tracer:
        t0 = time.perf_counter()
        ops = workload.run_pass()
        t1 = time.perf_counter()
    summary = tracer.summary()
    setup = sum(summary.get(p, {}).get("wall_s", 0.0) for p in SETUP)
    return ops, t1 - t0, setup, (t0, t1)


def layer_metrics(tracer, overhead: float) -> dict:
    summary = tracer.summary()
    values = {}
    for name in per_layer_names():
        prefix, stat = name.rsplit(".", 1)
        if prefix.startswith("layer."):
            module = prefix.split(".")[1]
            value = sum(e.get("self_s", 0.0) for p, e in summary.items()
                        if p.split(".")[0] == module)
        elif name == "trace.overhead_s":
            value = overhead
        elif stat == "hit_ratio":
            calls = summary.get(prefix, {}).get("calls", 0)
            value = tracer.stats.get(f"{prefix}.hits", 0) / calls if calls else 0.0
        elif stat in ("calls", "failed", "self_s", "wall_s"):
            value = summary.get(prefix, {}).get(stat, 0)
        else:
            value = tracer.stats.get(name, 0)
        values[name] = {"value": value, "unit": UNITS[stat]}
    return values


def run_workload(args, import_s: float, threads: dict) -> int:
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(ROOT, work, args.seed)
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = {} if args.record_reference else stored.get(args.workload, {})
    env = environment(threads)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    passes, walls, setups = [], [], []
    problems = []
    deadline = time.perf_counter() + args.seconds
    while True:
        ops, wall, setup, _ = run_pass(workload, Tracer({p: TIMED[p] for p in SETUP}))
        passes.append(ops)
        walls.append(wall)
        setups.append(setup)
        # start another pass only if at least half of it fits before the deadline
        if args.trace or args.record_reference or time.perf_counter() + wall / 2 > deadline:
            break
    if args.trace:
        tracer = Tracer(TIMED, COUNTED, HOOKS)
        ops, wall, _, window = run_pass(workload, tracer)
        passes.append(ops)
        leftover = Tracer.leftover_wrappers()
        problems += tracer.check(window)
        if leftover:
            problems.append(f"wrappers left after the traced run: {leftover}")
        if tracer.missing:
            print(f"trace: not found in rtmclab: {tracer.missing}")
        tracer.save(work / "spans.npz")
        metrics = layer_metrics(tracer, wall - walls[0])
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
        }

    failures = workloads.check_passes(passes, reference)
    attempted = sum(len(ops) for ops in passes)
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}")
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}")
    print(f"passes {len(passes)} pass_wall_s {[round(w, 3) for w in walls]} "
          f"import_s {import_s:.3f}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric fail_rate {len(failures) / attempted:.6g} ratio "
          f"({len(failures)}/{attempted} ops)")

    if args.record_reference:
        if failures or args.seed is not None:
            print("reference not written: needs the default seed and no failures",
                  file=sys.stderr)
            return 1
        stored[args.workload] = {op.key: op.fields for op in passes[0]}
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


# -- every workload -------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, then one table of the end-to-end metrics."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})")
            ok = False
            continue
        ok = ok and result["correct"]
        rows.append((name, result))
    print()
    for name, result in rows:
        cells = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
                 if not args.trace or k.startswith(("layer.", "trace."))]
        rate = result["failed"] / result["attempted"]
        print(f"{name:12s} " + "  ".join(cells) + f"  fail_rate {rate:.3g} ratio")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each config's own seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the untraced passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the workload's reference")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "rtmclab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"not a rtmclab checkout: {ROOT} lacks src/rtmclab or configs", file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    rtmclab = importlib.import_module("rtmclab")
    import_s = time.perf_counter() - t0
    if Path(rtmclab.__file__).resolve().parent != (src / "rtmclab").resolve():
        print(f"imported rtmclab from {rtmclab.__file__}, not from {src}", file=sys.stderr)
        return 2

    return run_workload(args, import_s, threads)


if __name__ == "__main__":
    sys.exit(main())
