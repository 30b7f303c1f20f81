"""Batch front-end: validate configs, run experiments, emit JSON + CSV artifacts.

Exit codes: 0 all invariants passed, 1 an experiment failed (its report entry
names the error class), 2 the config, with the overrides applied, did not load
or validate.  Outputs are a pure function of (config, seed); every table
carries the config hash and seed in a comment header.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config, validate_config
from .driver import DEFAULT_MAX_RADIUS
from .errors import ConfigError, RtmcError
from .experiments import EXPERIMENTS, RUNNERS, SeedPipeline


def _write_csv(path: Path, header_note: str, columns, rows) -> None:
    lines = [header_note, ",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _json_default(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, (set, frozenset, tuple)):
        return sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
    return str(obj)


def _load(config_path, depth: int | None, horizon: int | None,
          seed: int | None) -> ExperimentConfig:
    """The config with the --depth and --horizon overrides applied, in `raw` too,
    so that the config hash covers them, and --seed in place of the seeds,
    validated like them but left out of the hash."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg.seeds = [seed]
    if depth is not None:
        cfg.depths["working"] = cfg.raw.setdefault("depths", {})["working"] = depth
    if horizon is not None:
        cfg.horizons["solve"] = cfg.raw.setdefault("horizons", {})["solve"] = horizon
    return cfg


def _run_one(cfg: ExperimentConfig, experiment: str, seed: int, out_dir: str,
             max_radius: int):
    names = EXPERIMENTS if experiment == "all" else (experiment,)
    pipeline = SeedPipeline(cfg, seed, names, max_radius=max_radius)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    note = f"# config={cfg.config_hash} seed={seed}"
    summary = {"config": cfg.config_hash, "name": cfg.name, "seed": seed}
    failed = False
    for name in names:
        try:
            report, tables = RUNNERS[name](pipeline)
        except ConfigError as exc:
            # the experiment's preconditions do not apply to this instance
            summary[name] = {"skipped": str(exc)}
            continue
        except RtmcError as exc:
            summary[name] = {"passed": False, "error": str(exc),
                             "error_class": type(exc).__name__}
            if getattr(exc, "diagnostics", None):  # a failed solve's gap curves
                summary[name]["diagnostics"] = exc.diagnostics
            failed = True
            continue
        summary[name] = report
        failed = failed or not report.get("passed", True)
        for fname, chunks in tables.pop("_files", {}).items():
            with (out / f"{fname}_seed{seed}.json").open("w") as fh:
                fh.writelines(chunks)  # written as they come
                fh.write("\n")
        for table_name, (columns, rows) in tables.items():
            _write_csv(out / f"{table_name}_seed{seed}.csv", note, columns, rows)
    (out / f"report_seed{seed}.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2, default=_json_default) + "\n"
    )
    return seed, summary, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rtmclab",
        description="fibered transfer-operator laboratory: solve, certify, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a config without running experiments")
    p_val.add_argument("config", nargs="?", help="config JSON path")
    p_val.add_argument("--config", dest="config_flag", help="config JSON path")

    p_run = sub.add_parser("run", help="run one experiment (or all) from a config")
    p_run.add_argument("config", nargs="?", help="config JSON path")
    p_run.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    p_run.add_argument("--config", dest="config_flag", help="config JSON path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seeds with a single seed")
    p_run.add_argument("--out-dir", default="out")
    p_run.add_argument("--depth", type=int, default=None,
                       help="override the working depth")
    p_run.add_argument("--horizon", type=int, default=None,
                       help="override the solver horizon")

    args = parser.parse_args(argv)
    config_path = args.config_flag or args.config
    if not config_path:
        parser.error("a config path is required (positional or --config)")

    try:
        cfg = _load(config_path, vars(args).get("depth"), vars(args).get("horizon"),
                    vars(args).get("seed"))
        report = validate_config(cfg)
    except (RtmcError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
        return 0 if report["ok"] else 2

    if not report["ok"]:
        for v in report["violations"]:
            print(f"config violation: {v}", file=sys.stderr)
        return 2

    max_radius = os.environ.get("RR_MAX_WINDOW", str(DEFAULT_MAX_RADIUS))
    if not (max_radius.isascii() and max_radius.isdigit()) or int(max_radius) < 1:
        print(f"config error: RR_MAX_WINDOW must be a positive integer, got {max_radius!r}",
              file=sys.stderr)
        return 2

    results = [_run_one(cfg, args.experiment, s, args.out_dir, int(max_radius))
               for s in cfg.seeds]
    combined = {"config": cfg.config_hash, "name": cfg.name,
                "seeds": {str(seed): summary for seed, summary, _ in results}}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(
        json.dumps(combined, sort_keys=True, indent=2, default=_json_default) + "\n"
    )
    failed = any(f for _, _, f in results)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
