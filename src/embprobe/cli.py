"""Command-line entry point.

Subcommands: synth, partition, traits, probe, distance, perturb, sweep,
report. All outputs are machine-readable (JSON/CSV) plus static SVG charts;
rerunning a command with an unchanged resolved config rewrites byte-identical
files.
"""
from __future__ import annotations

if __name__ == "__main__":  # `python -m embprobe.cli`; numpy is not loaded yet
    from . import pin_blas_threads
    pin_blas_threads()

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, charts, synth
from .config import (SCHEMA, check_config, config_fingerprint, load_config, resolve_config,
                     synth_spec_keys)
from .config import validate_task  # noqa: F401  (re-exported)
from .data_model import (TraitTask, load_embeddings, load_manifest, partition, write_embeddings,
                         write_manifest)
from .distance_analysis import (bonafide_spoof_pairing, read_frames, summarize_by_gender,
                                write_distance_records)
from .fileio import read_json, reading, write_json
from .metrics import classification_result, regression_result
from .perturbation import run_sweep, speed_perturb, write_score_file
from .probe_net import TrainConfig, init_probe, predict, save_probe, train
from .rng import derive_seed
from .trait_extract import (TraitValues, chunk_fixed, extract_traits, power_spectrogram,
                            read_trait_csv, read_wav, write_trait_csv, write_wav)

REPORT_VERSION = 1

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


def _resolve_path(cfg: dict, value) -> Path:
    # relative config paths live under the output directory
    p = Path(value)
    return p if p.is_absolute() else Path(cfg["outdir"]) / p


def _synth_spec(cfg: dict, overrides: dict | None = None) -> synth.SynthSpec:
    spec = synth_spec_keys(cfg, overrides)
    if missing := sorted({"n_speakers", "utts_per_speaker", "dim"} - spec.keys()):
        raise ValueError(f"config key 'synth.{missing[0]}' is required")
    planted = tuple(synth.PlantedTrait(p["trait"], p["kind"], p["strength"])
                    for p in spec.pop("planted", ()))
    return synth.SynthSpec(planted_traits=planted, **spec)


def cmd_synth(resolved: dict, cfg: dict) -> list[dict]:
    scfg = cfg["synth"]
    if scfg is None:
        raise ValueError("config has no synth section")
    base_spec = _synth_spec(cfg)
    manifest = synth.build_manifest(base_spec)

    manifest_path = _resolve_path(cfg, cfg["manifest"])
    audio = scfg["audio"]
    if audio is not None:
        if audio["freq_trait"]:
            values = synth.planted_values(base_spec, audio["freq_trait"])
        else:
            values = np.zeros(len(manifest.rows))
        audio_root = _resolve_path(cfg, audio["dir"])
        # manifest audio paths are relative to the manifest's directory
        audio_rel = Path(os.path.relpath(audio_root, manifest_path.parent)).as_posix()
        rows = []
        for i, row in enumerate(manifest.rows):
            freq = audio["freq_base"] + audio["freq_scale"] * float(np.clip(values[i], -3.0, 3.0))
            write_wav(audio_root / f"{row.utt_id}.wav",
                      synth.gen_tone(freq, audio["duration_s"], sr=audio["sr"], amplitude=0.5))
            rows.append(dataclasses.replace(row, audio_path=f"{audio_rel}/{row.utt_id}.wav"))
        manifest = dataclasses.replace(manifest, rows=tuple(rows))

    write_manifest(manifest, manifest_path)

    systems = scfg["systems"] or {name: None for name in cfg["embeddings"]}
    for name in sorted(systems):
        if name not in cfg["embeddings"]:
            raise ValueError(f"synth system {name!r} has no embeddings path in config")
        table = synth.gen_table(_synth_spec(cfg, systems[name]), manifest)
        write_embeddings(table, _resolve_path(cfg, cfg["embeddings"][name]))

    scores = scfg["scores"]
    if scores is not None:
        for rate in scores["rates"]:
            separation = max(0.2, scores["base_separation"] - scores["decay"] * abs(rate - 1.0))
            rows = synth.gen_scores(scores["n_bonafide"], scores["n_spoof"], separation,
                                    seed=derive_seed(cfg["seed"], "scores", f"{rate:g}"))
            write_score_file(rows, _resolve_path(cfg, f"{scores['dir']}/scores_{rate:g}.txt"))
    return []


def cmd_partition(resolved: dict, cfg: dict) -> list[dict]:
    manifest = load_manifest(_resolve_path(cfg, cfg["manifest"]))
    fraction, seed = cfg["partition"]["train_fraction"], cfg["seed"]
    schemes = cfg["partition"]["schemes"] or sorted({t["scheme"] for t in cfg["tasks"]})
    for scheme in schemes:
        train_ids, eval_ids = partition(manifest, scheme, fraction, seed)
        write_json(_resolve_path(cfg, f"splits/{scheme}.json"), {
            "scheme": scheme, "train_fraction": fraction, "seed": seed,
            "train": list(train_ids), "eval": list(eval_ids),
        })
    return []


def cmd_traits(resolved: dict, cfg: dict) -> list[dict]:
    manifest_path = _resolve_path(cfg, cfg["manifest"])
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    values = {}
    errors: dict[str, dict[str, str]] = {}
    n_ok = 0
    for row in manifest.rows:  # one output row per manifest row, failures recorded
        if not row.audio_path:
            errors[row.utt_id] = {"audio": "no audio path"}
            values[row.utt_id] = TraitValues()
            continue
        try:
            wav = read_wav(base / row.audio_path)
        except (OSError, ValueError) as exc:
            errors[row.utt_id] = {"audio": str(exc)}
            values[row.utt_id] = TraitValues()
            continue
        tv, failures = extract_traits(wav, row.transcript)
        values[row.utt_id] = tv
        n_ok += 1
        if failures:
            errors[row.utt_id] = failures
    if n_ok == 0:
        raise ValueError("trait extraction produced zero successful rows")
    write_trait_csv(values, _resolve_path(cfg, cfg["traits_csv"]))
    write_json(_resolve_path(cfg, "traits_errors.json"), errors)
    return []


def _load_split(cfg: dict, scheme: str) -> tuple[list[str], list[str]]:
    path = _resolve_path(cfg, f"splits/{scheme}.json")
    if not path.exists():
        raise ValueError(f"split file missing for scheme {scheme}: run `partition` first")
    with reading(path):
        doc = read_json(path)
        if not all(isinstance(doc.get(key), list) and all(isinstance(u, str) for u in doc[key])
                   for key in ("train", "eval")):
            raise ValueError("expected 'train' and 'eval' lists of utt_ids")
        return doc["train"], doc["eval"]


def _run_probe_task(cfg, manifest, tables, traits, system, task):
    trait, kind, scheme = task["trait"], task["kind"], task["scheme"]
    table = tables[system]
    train_ids, eval_ids = _load_split(cfg, scheme)
    dropped = 0
    if kind == "classification":
        task_obj = TraitTask.classification(manifest, trait)
        out_dim = task_obj.label_space.size
    else:
        if traits is None:
            raise ValueError(f"regression trait {trait!r} needs a traits CSV: run `traits` first")
        values = {utt: getattr(tv, trait) for utt, tv in traits.items()
                  if getattr(tv, trait) is not None}
        kept_train = [u for u in train_ids if u in values]
        kept_eval = [u for u in eval_ids if u in values]
        dropped = (len(train_ids) - len(kept_train)) + (len(eval_ids) - len(kept_eval))
        train_ids, eval_ids = kept_train, kept_eval
        task_obj = TraitTask.regression(trait, values)
        out_dim = 1

    tcfg = cfg["train"]
    from .data_model import assemble
    ds_train = assemble(manifest, table, task_obj, train_ids, "train", tcfg["unit_norm"])
    ds_eval = assemble(manifest, table, task_obj, eval_ids, "eval", tcfg["unit_norm"])
    if len(ds_train) == 0 or len(ds_eval) == 0:
        raise ValueError(f"empty split for task {system}/{trait}/{scheme}")

    seed = cfg["seed"]
    probe = init_probe(table.dim, tcfg["hidden_dim"], out_dim, kind,
                       seed=derive_seed(seed, "init", system, trait, scheme))
    if kind == "classification":
        probe.classes = task_obj.label_space.classes
    train_cfg = TrainConfig(epochs=tcfg["epochs"], batch_size=tcfg["batch_size"],
                            initial_lr=tcfg["initial_lr"], decay_factor=tcfg["decay_factor"],
                            decay_every=tcfg["decay_every"],
                            seed=derive_seed(seed, "train", system, trait, scheme))
    probe, history = train(probe, ds_train, train_cfg)
    preds = predict(probe, ds_eval.X)

    mcfg = cfg["metrics"]
    if kind == "classification":
        res = classification_result(
            preds, ds_eval.y, out_dim, n_boot=mcfg["n_boot"], alpha=mcfg["alpha"],
            seed=derive_seed(seed, "bootstrap", system, trait, scheme))
        metric_block = {"accuracy": res.accuracy, "ci_low": res.ci_low,
                        "ci_high": res.ci_high, "n": res.n,
                        "confusion": res.confusion.tolist()}
    else:
        res = regression_result(preds, ds_eval.y, n_perm=mcfg["n_perm"],
                                seed=derive_seed(seed, "permutation", system, trait, scheme))
        metric_block = {"r_squared": res.r_squared, "p_value": res.p_value, "n": res.n}

    probe_rel = f"probes/{system}_{trait}_{scheme}.prb"
    save_probe(probe, _resolve_path(cfg, probe_rel))
    return {
        "system": system, **task, "status": "ok", "metrics": metric_block,
        "history": {"losses": history.losses, "lrs": history.lrs},
        "n_train": len(ds_train), "n_eval": len(ds_eval),
        "dropped_missing_target": dropped, "probe_file": probe_rel,
    }


def cmd_probe(resolved: dict, cfg: dict, jobs: int = 1) -> list[dict]:
    manifest = load_manifest(_resolve_path(cfg, cfg["manifest"]))
    if not cfg["embeddings"]:
        raise ValueError("config declares no embedding tables")
    tables = {name: load_embeddings(_resolve_path(cfg, path))
              for name, path in cfg["embeddings"].items()}
    traits_path = _resolve_path(cfg, cfg["traits_csv"])
    traits = read_trait_csv(traits_path) if traits_path.exists() else None

    jobs_list = [(system, task) for system in sorted(tables)
                 for task in cfg["tasks"]]

    def run(item):
        system, task = item
        try:
            return _run_probe_task(cfg, manifest, tables, traits, system, task)
        except (ValueError, OSError) as exc:
            return {"system": system, **task, "status": "failed", "error": str(exc)}

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run, jobs_list))
    else:
        records = [run(item) for item in jobs_list]

    report = {
        "version": REPORT_VERSION, "toolkit_version": __version__,
        "config_fingerprint": config_fingerprint(resolved),
        "tasks": records,
    }
    write_json(_resolve_path(cfg, "probe_report.json"), report)
    _emit_probe_charts(cfg, records)
    return [r for r in records if r["status"] == "failed"]


def _emit_probe_charts(cfg: dict, records: list[dict]) -> None:
    systems = sorted({r["system"] for r in records if r["status"] == "ok"})
    for kind, fname, field, ylabel in (
            ("classification", "charts/classification_accuracy.svg", "accuracy", "accuracy"),
            ("regression", "charts/regression_r2.svg", "r_squared", "R^2")):
        ok = [r for r in records if r["status"] == "ok" and r["kind"] == kind]
        if not ok:
            continue
        groups = sorted({f"{r['trait']} ({r['scheme']})" for r in ok})
        by_key = {(r["system"], f"{r['trait']} ({r['scheme']})"): r for r in ok}
        values = [[by_key[(s, g)]["metrics"][field] if (s, g) in by_key else 0.0
                   for g in groups] for s in systems]
        if kind == "classification":
            lo = [[by_key[(s, g)]["metrics"]["ci_low"] if (s, g) in by_key else None
                   for g in groups] for s in systems]
            hi = [[by_key[(s, g)]["metrics"]["ci_high"] if (s, g) in by_key else None
                   for g in groups] for s in systems]
        else:
            lo = hi = None
        charts.bar_chart(_resolve_path(cfg, fname),
                         f"Probe {kind} performance", groups, systems, values,
                         err_low=lo, err_high=hi, ylabel=ylabel)


def cmd_distance(resolved: dict, cfg: dict) -> list[dict]:
    dcfg = cfg["distance"]
    if dcfg is None:
        raise ValueError("config has no distance section")
    manifest_path = _resolve_path(cfg, cfg["manifest"])
    manifest = load_manifest(manifest_path)
    rows = manifest.row_map()
    paired: dict[str, tuple] = {}
    for kind in dcfg["kinds"]:
        source = None  # utt_id -> the file a pairing error names
        if kind == "embedding":
            system = dcfg["system"]
            if system not in cfg["embeddings"]:
                raise ValueError(f"distance system {system!r} has no embeddings path")
            table = load_embeddings(_resolve_path(cfg, cfg["embeddings"][system]))
            load = table.row
        else:
            features_dir = dcfg["features_dir"]

            def frm_path(utt: str) -> Path:
                return _resolve_path(cfg, f"{features_dir}/{utt}.frm")

            def load(utt: str) -> np.ndarray:
                if features_dir:
                    return read_frames(frm_path(utt))
                if rows[utt].audio_path:
                    wav = read_wav(manifest_path.parent / rows[utt].audio_path)
                    return power_spectrogram(chunk_fixed(wav, dcfg["chunk_seconds"])).frames
                raise ValueError(f"{utt}: no frame features or audio for encoder_spectral")

            source = frm_path if features_dir else None
        # one speaker's representations at a time, each read exactly once
        paired[kind] = bonafide_spoof_pairing(manifest, load, kind, source=source)
    # every kind is paired before the first file is written
    summary: dict[str, dict] = {}
    for kind, (records, skipped) in paired.items():
        write_distance_records(records, _resolve_path(cfg, f"distance_records_{kind}.csv"))
        female, male = summarize_by_gender(records, bins=dcfg["bins"])
        summary[kind] = {
            "female": dataclasses.asdict(female), "male": dataclasses.asdict(male),
            "skipped": skipped,
        }
        charts.histogram_overlay(
            _resolve_path(cfg, f"charts/distance_{kind}.svg"),
            f"Bonafide-spoof distance by gender ({kind})",
            {"female": [r.mean_distance for r in records if r.gender == "female"],
             "male": [r.mean_distance for r in records if r.gender == "male"]},
            bins=dcfg["bins"], xlabel="mean distance")
    write_json(_resolve_path(cfg, "distance_summary.json"), summary)
    return []


def cmd_perturb(resolved: dict, cfg: dict) -> list[dict]:
    pcfg = cfg["perturb"]
    if pcfg is None:
        raise ValueError("config has no perturb section")
    manifest_path = _resolve_path(cfg, cfg["manifest"])
    manifest = load_manifest(manifest_path)
    wrote = 0
    for row in manifest.rows:
        if not row.audio_path:
            continue
        wav = read_wav(manifest_path.parent / row.audio_path)
        for rate in pcfg["rates"]:
            out = _resolve_path(cfg, f"{pcfg['audio_outdir']}/r{rate:g}/{row.utt_id}.wav")
            write_wav(out, speed_perturb(wav, rate))
            wrote += 1
    if wrote == 0:
        raise ValueError("no rows with audio paths to perturb")
    return []


def cmd_sweep(resolved: dict, cfg: dict) -> list[dict]:
    scfg = cfg["sweep"]
    if scfg is None:
        raise ValueError("config has no sweep section")
    if scfg["score_files"]:
        files = {rate: str(_resolve_path(cfg, p)) for rate, p in scfg["score_files"].items()}
    elif scfg["score_dir"]:
        files = {rate: str(_resolve_path(cfg, f"{scfg['score_dir']}/scores_{rate:g}.txt"))
                 for rate in scfg["rates"]}
    else:
        raise ValueError("sweep needs score_files or score_dir")
    run_sweep(scfg["rates"], files, outdir=_resolve_path(cfg, "."))
    return []


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
        path = _resolve_path(cfg, fname)
        if path.exists():
            with reading(path):
                doc = read_json(path)
                if fname == "probe_report.json":
                    doc = doc.get("tasks")
                    if not isinstance(doc, list) or not all(isinstance(t, dict) for t in doc):
                        raise ValueError("'tasks' must be a list of task objects")
            report[key] = doc
    write_json(_resolve_path(cfg, "report.json"), report)
    return []


COMMANDS = {
    "synth": cmd_synth,
    "partition": cmd_partition,
    "traits": cmd_traits,
    "probe": cmd_probe,
    "distance": cmd_distance,
    "perturb": cmd_perturb,
    "sweep": cmd_sweep,
    "report": cmd_report,
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
        if args.command == "probe":
            failures = cmd_probe(resolved, cfg, jobs=max(1, args.jobs))
        else:
            failures = COMMANDS[args.command](resolved, cfg)
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
