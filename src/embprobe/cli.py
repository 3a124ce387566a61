"""Command-line entry point.

Subcommands: synth, partition, traits, probe, distance, perturb, sweep,
report. All outputs are machine-readable (JSON/CSV) plus static SVG charts;
rerunning a command with an unchanged resolved config rewrites byte-identical
files. A command runs from the library module it drives, imported only after
the config check, so the check and `report` run without numpy.
"""
from __future__ import annotations

if __name__ == "__main__":  # `python -m embprobe.cli`; numpy is not loaded yet
    from . import pin_blas_threads
    pin_blas_threads()

import argparse
import importlib
import json
import sys
from pathlib import Path

from . import REPORT_VERSION, __version__
from .config import (SCHEMA, check_config, config_fingerprint, load_config,  # noqa: F401
                     resolve_config, resolve_path, validate_task)
from .fileio import read_json, reading, write_json

# Published schema of report.json (see README). Validated in the test suite.
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "toolkit_version", "config_fingerprint", "config",
                 "tasks", "distance", "sweep"],
    "properties": {
        "version": {"const": REPORT_VERSION},
        "toolkit_version": {"type": "string"},
        "config_fingerprint": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "config": {"type": "object"},
        "tasks": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "required": ["system", "trait", "scheme", "kind", "status"],
                "properties": {
                    "system": {"type": "string"},
                    "trait": {"type": "string"},
                    "scheme": {"enum": ["T01", "T02", "T03"]},
                    "kind": {"enum": ["classification", "regression"]},
                    "status": {"enum": ["ok", "failed"]},
                    "error": {"type": "string"},
                    "metrics": {"type": "object"},
                    "history": {
                        "type": "object",
                        "properties": {
                            "losses": {"type": "array", "items": {"type": "number"}},
                            "lrs": {"type": "array", "items": {"type": "number"}},
                        },
                    },
                    "n_train": {"type": "integer"},
                    "n_eval": {"type": "integer"},
                    "dropped_missing_target": {"type": "integer"},
                    "probe_file": {"type": "string"},
                },
            },
        },
        "distance": {"type": ["object", "null"]},
        "sweep": {"type": ["object", "null"]},
    },
}


def cmd_report(resolved: dict, cfg: dict) -> list[dict]:
    report = {
        "version": REPORT_VERSION,
        "toolkit_version": __version__,
        "config_fingerprint": config_fingerprint(resolved),
        "config": resolved,
        "tasks": None, "distance": None, "sweep": None,
    }
    for key, fname in (("tasks", "probe_report.json"),
                       ("distance", "distance_summary.json"),
                       ("sweep", "sweep_eer.json")):
        path = resolve_path(cfg, fname)
        if path.exists():
            with reading(path):
                doc = read_json(path)
                if fname == "probe_report.json":
                    doc = doc.get("tasks")
                    if not isinstance(doc, list) or not all(isinstance(t, dict) for t in doc):
                        raise ValueError("'tasks' must be a list of task objects")
            report[key] = doc
    write_json(resolve_path(cfg, "report.json"), report)
    return []


# command -> "module:function" that runs it; an empty module is this one
COMMANDS = {
    "synth": "embprobe.synth:cmd_synth",
    "partition": "embprobe.data_model:cmd_partition",
    "traits": "embprobe.trait_extract:cmd_traits",
    "probe": "embprobe.probe_net:cmd_probe",
    "distance": "embprobe.distance_analysis:cmd_distance",
    "perturb": "embprobe.perturbation:cmd_perturb",
    "sweep": "embprobe.perturbation:cmd_sweep",
    "report": ":cmd_report",
}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML or JSON run config")
    common.add_argument("--outdir", default=None, help="override the output directory")
    common.add_argument("--seed", type=int, default=None, help="override the global seed")
    common.add_argument("--jobs", type=int, default=1, help="parallel task workers")

    parser = argparse.ArgumentParser(
        prog="embprobe",
        description="Probing toolkit for fixed-dimensional audio embeddings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)

    # a config that does not load leaves its failure under --outdir or the default
    failures_path = Path(args.outdir or SCHEMA["outdir"][1], "failures.json")
    try:
        resolved = resolve_config(load_config(args.config), outdir=args.outdir, seed=args.seed)
        failures_path = Path(str(resolved["outdir"]), "failures.json")  # even if outdir is bad
        failures_path.unlink(missing_ok=True)  # a successful rerun leaves none behind
        cfg = check_config(resolved)
        if cfg.get(args.command, {}) is None:  # the command's own optional section
            raise ValueError(f"config has no {args.command} section")
        module, _, function = COMMANDS[args.command].partition(":")
        namespace = vars(importlib.import_module(module)) if module else globals()
        jobs = {"jobs": max(1, args.jobs)} if args.command == "probe" else {}
        failures = namespace[function](resolved, cfg, **jobs)
    except (ValueError, OSError) as exc:
        failures = [{"command": args.command, "error": str(exc)}]

    if failures:
        write_json(failures_path, {"command": args.command, "failures": failures})
        print(json.dumps({"command": args.command, "failures": failures}, sort_keys=True),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
