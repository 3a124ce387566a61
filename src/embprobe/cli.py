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
import copy
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, charts, synth
from .data_model import (ATTACK_TRAITS, META_TRAITS, PartitionScheme, TraitTask,
                         load_embeddings, load_manifest, partition,
                         write_embeddings, write_manifest)
from .distance_analysis import (bonafide_spoof_pairing, read_frames,
                                summarize_by_gender, write_distance_records)
from .fileio import atomic_write_text
from .metrics import classification_result, regression_result
from .perturbation import (DEFAULT_RATES, PerturbSweepConfig, check_rate,
                           run_sweep, speed_perturb, write_score_file)
from .probe_net import (DEFAULT_HIDDEN_DIM, TrainConfig, init_probe, predict,
                        save_probe, train)
from .rng import derive_seed
from .trait_extract import (TRAIT_CSV_COLUMNS, TraitValues, chunk_fixed,
                            extract_traits, power_spectrogram, read_trait_csv,
                            read_wav, write_trait_csv, write_wav)

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

REGRESSION_TRAITS = tuple(c for c in TRAIT_CSV_COLUMNS if c != "utt_id")

DEFAULTS = {
    "seed": 0,
    "outdir": "out",
    "manifest": "manifest.csv",
    "embeddings": {},
    "traits_csv": "traits.csv",
    "partition": {"train_fraction": 0.9, "schemes": None},
    "train": {"epochs": 20, "batch_size": 32, "initial_lr": 0.001,
              "decay_factor": 0.1, "decay_every": 8,
              "hidden_dim": DEFAULT_HIDDEN_DIM, "unit_norm": False},
    "metrics": {"n_boot": 1000, "alpha": 0.05, "n_perm": 999},
    "tasks": [],
    "distance": None,
    "perturb": None,
    "sweep": None,
    "synth": None,
}


# Keys of a synthetic-corpus spec: the synth section and each of its
# per-system overrides take them.
SYNTH_SPEC_KEYS = ("n_speakers", "utts_per_speaker", "dim", "planted", "noise_sigma",
                   "seed", "spoof_fraction", "attack_ids")
# Every key of the sections that DEFAULTS leaves as None (each may be absent)
# and of the mappings inside synth.
SECTION_KEYS = {
    "distance": ("system", "kinds", "features_dir", "chunk_seconds", "bins"),
    "perturb": ("rates", "audio_outdir"),
    "sweep": ("rates", "score_files", "score_dir"),
    "synth": SYNTH_SPEC_KEYS + ("audio", "scores", "systems"),
    "synth.audio": ("dir", "duration_s", "sr", "freq_trait", "freq_base", "freq_scale"),
    "synth.scores": ("dir", "rates", "n_bonafide", "n_spoof", "base_separation", "decay"),
}
PLANTED_KEYS = ("trait", "kind", "strength")
TASK_KEYS = ("trait", "kind", "scheme")


def check_config_keys(resolved: dict) -> None:
    """Raise ValueError naming the dotted path of the first unknown key, or of
    a section that is not a mapping, anywhere in the config."""
    def mapping(section, path: str) -> dict:
        if not isinstance(section, dict):
            raise ValueError(f"config key {path!r} must be a mapping")
        return section

    def check(section, known, path: str) -> None:
        for key in mapping(section, path):
            if key not in known:
                dotted = f"{path}.{key}" if path else str(key)
                raise ValueError(f"unknown config key {dotted!r} "
                                 f"(known: {', '.join(sorted(known))})")

    check(resolved, DEFAULTS, "")
    mapping(resolved["embeddings"], "embeddings")
    for name in ("partition", "train", "metrics"):
        check(resolved[name], DEFAULTS[name], name)
    for name in ("distance", "perturb", "sweep"):
        if resolved[name] is not None:
            check(resolved[name], SECTION_KEYS[name], name)
    synth = resolved["synth"]
    if synth is None:
        synth = {}
    check(synth, SECTION_KEYS["synth"], "synth")
    for name in ("audio", "scores"):
        if synth.get(name) is not None:
            check(synth[name], SECTION_KEYS[f"synth.{name}"], f"synth.{name}")
    specs = {"synth": synth}
    systems = synth.get("systems")
    if systems is not None:
        for name, spec in mapping(systems, "synth.systems").items():
            path = f"synth.systems.{name}"
            specs[path] = spec if spec is not None else {}
            check(specs[path], SYNTH_SPEC_KEYS, path)
    for path, spec in specs.items():
        for i, item in enumerate(spec.get("planted") or []):
            check(item, PLANTED_KEYS, f"{path}.planted[{i}]")
    if not isinstance(resolved["tasks"], list):
        raise ValueError("config key 'tasks' must be a list")
    for i, task in enumerate(resolved["tasks"]):
        check(task, TASK_KEYS, f"tasks[{i}]")
    for path, section in (("perturb", resolved["perturb"]), ("sweep", resolved["sweep"]),
                          ("synth.scores", synth.get("scores"))):
        rates = (section or {}).get("rates", DEFAULT_RATES)
        if (not isinstance(rates, list | tuple) or not rates
                or not all(isinstance(r, int | float) and not isinstance(r, bool)
                           for r in rates)
                or len(set(rates)) != len(rates)):
            raise ValueError(f"config key '{path}.rates' must be a non-empty list "
                             "of distinct numbers")


def _deep_merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _deep_merge(base.get(key), value)
        return merged
    return copy.deepcopy(override) if override is not None else copy.deepcopy(base)


def load_config(path) -> dict:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
    else:
        import yaml  # JSON configs skip its import cost
        doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return doc


def resolve_config(doc: dict, outdir=None, seed=None) -> dict:
    resolved = _deep_merge(DEFAULTS, doc)
    if outdir is not None:
        resolved["outdir"] = str(outdir)
    if seed is not None:
        resolved["seed"] = int(seed)
    return resolved


def config_fingerprint(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _dump_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _resolve_path(resolved: dict, value) -> Path:
    # relative config paths live under the output directory
    p = Path(value)
    return p if p.is_absolute() else Path(resolved["outdir"]) / p


def validate_task(task: dict) -> None:
    trait = task.get("trait")
    kind = task.get("kind")
    scheme = task.get("scheme")
    if kind not in ("classification", "regression"):
        raise ValueError(f"task {task}: unknown kind {kind!r}")
    if scheme not in set(PartitionScheme):
        raise ValueError(f"task {task}: unknown scheme {scheme!r}")
    if kind == "classification":
        if trait not in META_TRAITS:
            raise ValueError(f"task {task}: unknown classification trait {trait!r}")
        if trait in ATTACK_TRAITS and scheme != "T03":
            raise ValueError(f"task {task}: attack traits require scheme T03")
        if trait not in ATTACK_TRAITS and scheme == "T03":
            raise ValueError(f"task {task}: speaker traits require scheme T01 or T02")
    else:
        if trait == "age":
            raise ValueError("age is categorical, never a regression target")
        if trait in META_TRAITS:
            raise ValueError(f"task {task}: meta trait {trait!r} is a classification target")
        if scheme == "T03":
            raise ValueError(f"task {task}: acoustic traits require scheme T01 or T02")


def _synth_spec(resolved: dict, overrides: dict | None = None) -> synth.SynthSpec:
    scfg = resolved["synth"]
    merged = _deep_merge(scfg, overrides or {})
    planted = tuple(
        synth.PlantedTrait(trait_name=p["trait"], kind=p["kind"],
                           strength=float(p.get("strength", 1.0)))
        for p in merged.get("planted", []) or [])
    return synth.SynthSpec(
        n_speakers=int(merged["n_speakers"]),
        utts_per_speaker=int(merged["utts_per_speaker"]),
        dim=int(merged["dim"]),
        planted_traits=planted,
        noise_sigma=float(merged.get("noise_sigma", 0.1)),
        seed=int(merged["seed"]) if merged.get("seed") is not None else int(resolved["seed"]),
        spoof_fraction=float(merged.get("spoof_fraction", 0.5)),
        attack_ids=tuple(merged.get("attack_ids", synth.DEFAULT_ATTACKS)),
    )


def cmd_synth(resolved: dict) -> list[dict]:
    scfg = resolved.get("synth")
    if not scfg:
        raise ValueError("config has no synth section")
    base_spec = _synth_spec(resolved)
    manifest = synth.build_manifest(base_spec)

    manifest_path = _resolve_path(resolved, resolved["manifest"])
    audio_cfg = scfg.get("audio")
    if audio_cfg:
        audio_dir = audio_cfg.get("dir", "audio")
        dur = float(audio_cfg.get("duration_s", 1.0))
        sr = int(audio_cfg.get("sr", 16000))
        freq_trait = audio_cfg.get("freq_trait")
        base = float(audio_cfg.get("freq_base", 200.0))
        scale = float(audio_cfg.get("freq_scale", 30.0))
        if freq_trait:
            values = synth.planted_values(base_spec, freq_trait)
        else:
            values = np.zeros(len(manifest.rows))
        audio_root = _resolve_path(resolved, audio_dir)
        # manifest audio paths are relative to the manifest's directory
        audio_rel = Path(os.path.relpath(audio_root, manifest_path.parent)).as_posix()
        rows = []
        for i, row in enumerate(manifest.rows):
            freq = base + scale * float(np.clip(values[i], -3.0, 3.0))
            write_wav(audio_root / f"{row.utt_id}.wav",
                      synth.gen_tone(freq, dur, sr=sr, amplitude=0.5))
            rows.append(replace(row, audio_path=f"{audio_rel}/{row.utt_id}.wav"))
        manifest = dataclasses.replace(manifest, rows=tuple(rows))

    write_manifest(manifest, manifest_path)

    systems = scfg.get("systems") or {name: {} for name in resolved["embeddings"]}
    for name in sorted(systems):
        if name not in resolved["embeddings"]:
            raise ValueError(f"synth system {name!r} has no embeddings path in config")
        spec = _synth_spec(resolved, systems[name])
        table = synth.gen_table(spec, manifest)
        write_embeddings(table, _resolve_path(resolved, resolved["embeddings"][name]))

    scores_cfg = scfg.get("scores")
    if scores_cfg:
        score_dir = scores_cfg.get("dir", "scores")
        base_sep = float(scores_cfg.get("base_separation", 3.0))
        decay = float(scores_cfg.get("decay", 4.0))
        for rate in scores_cfg.get("rates", DEFAULT_RATES):
            rate = float(rate)
            separation = max(0.2, base_sep - decay * abs(rate - 1.0))
            rows = synth.gen_scores(int(scores_cfg.get("n_bonafide", 60)),
                                    int(scores_cfg.get("n_spoof", 60)),
                                    separation,
                                    seed=derive_seed(resolved["seed"], "scores", f"{rate:g}"))
            write_score_file(rows, _resolve_path(resolved, f"{score_dir}/scores_{rate:g}.txt"))
    return []


def _task_schemes(resolved: dict) -> list[str]:
    schemes = resolved["partition"].get("schemes")
    if schemes:
        return list(schemes)
    return sorted({t["scheme"] for t in resolved["tasks"]})


def cmd_partition(resolved: dict) -> list[dict]:
    manifest = load_manifest(_resolve_path(resolved, resolved["manifest"]))
    fraction = float(resolved["partition"]["train_fraction"])
    seed = int(resolved["seed"])
    for scheme in _task_schemes(resolved):
        train_ids, eval_ids = partition(manifest, scheme, fraction, seed)
        _dump_json(_resolve_path(resolved, f"splits/{scheme}.json"), {
            "scheme": scheme, "train_fraction": fraction, "seed": seed,
            "train": list(train_ids), "eval": list(eval_ids),
        })
    return []


def cmd_traits(resolved: dict) -> list[dict]:
    manifest_path = _resolve_path(resolved, resolved["manifest"])
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
    write_trait_csv(values, _resolve_path(resolved, resolved["traits_csv"]))
    _dump_json(_resolve_path(resolved, "traits_errors.json"), errors)
    return []


def _load_split(resolved: dict, scheme: str) -> tuple[list[str], list[str]]:
    path = _resolve_path(resolved, f"splits/{scheme}.json")
    if not path.exists():
        raise ValueError(f"split file missing for scheme {scheme}: run `partition` first")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return list(doc["train"]), list(doc["eval"])


def _run_probe_task(resolved, manifest, tables, traits, system, task):
    validate_task(task)
    trait, kind, scheme = task["trait"], task["kind"], task["scheme"]
    table = tables[system]
    train_ids, eval_ids = _load_split(resolved, scheme)
    dropped = 0
    if kind == "classification":
        task_obj = TraitTask.classification(manifest, trait)
        out_dim = task_obj.label_space.size
    else:
        if traits is None:
            raise ValueError(f"regression trait {trait!r} needs a traits CSV: run `traits` first")
        if trait not in REGRESSION_TRAITS:
            raise ValueError(f"unknown regression trait {trait!r}")
        values = {utt: getattr(tv, trait) for utt, tv in traits.items()
                  if getattr(tv, trait) is not None}
        kept_train = [u for u in train_ids if u in values]
        kept_eval = [u for u in eval_ids if u in values]
        dropped = (len(train_ids) - len(kept_train)) + (len(eval_ids) - len(kept_eval))
        train_ids, eval_ids = kept_train, kept_eval
        task_obj = TraitTask.regression(trait, values)
        out_dim = 1

    tcfg = resolved["train"]
    unit_norm = bool(tcfg.get("unit_norm", False))
    from .data_model import assemble
    ds_train = assemble(manifest, table, task_obj, train_ids, "train", unit_norm)
    ds_eval = assemble(manifest, table, task_obj, eval_ids, "eval", unit_norm)
    if len(ds_train) == 0 or len(ds_eval) == 0:
        raise ValueError(f"empty split for task {system}/{trait}/{scheme}")

    seed = int(resolved["seed"])
    probe = init_probe(table.dim, int(tcfg["hidden_dim"]), out_dim, kind,
                       seed=derive_seed(seed, "init", system, trait, scheme))
    if kind == "classification":
        probe.classes = task_obj.label_space.classes
    cfg = TrainConfig(epochs=int(tcfg["epochs"]), batch_size=int(tcfg["batch_size"]),
                      initial_lr=float(tcfg["initial_lr"]),
                      decay_factor=float(tcfg["decay_factor"]),
                      decay_every=int(tcfg["decay_every"]),
                      seed=derive_seed(seed, "train", system, trait, scheme))
    probe, history = train(probe, ds_train, cfg)
    preds = predict(probe, ds_eval.X)

    mcfg = resolved["metrics"]
    if kind == "classification":
        res = classification_result(
            preds, ds_eval.y, out_dim, n_boot=int(mcfg["n_boot"]),
            alpha=float(mcfg["alpha"]),
            seed=derive_seed(seed, "bootstrap", system, trait, scheme))
        metric_block = {"accuracy": res.accuracy, "ci_low": res.ci_low,
                        "ci_high": res.ci_high, "n": res.n,
                        "confusion": res.confusion.tolist()}
    else:
        res = regression_result(preds, ds_eval.y, n_perm=int(mcfg["n_perm"]),
                                seed=derive_seed(seed, "permutation", system, trait, scheme))
        metric_block = {"r_squared": res.r_squared, "p_value": res.p_value, "n": res.n}

    probe_rel = f"probes/{system}_{trait}_{scheme}.prb"
    save_probe(probe, _resolve_path(resolved, probe_rel))
    return {
        "system": system, "trait": trait, "scheme": scheme, "kind": kind,
        "status": "ok", "metrics": metric_block,
        "history": {"losses": history.losses, "lrs": history.lrs},
        "n_train": len(ds_train), "n_eval": len(ds_eval),
        "dropped_missing_target": dropped, "probe_file": probe_rel,
    }


def cmd_probe(resolved: dict, jobs: int = 1) -> list[dict]:
    manifest = load_manifest(_resolve_path(resolved, resolved["manifest"]))
    if not resolved["embeddings"]:
        raise ValueError("config declares no embedding tables")
    tables = {name: load_embeddings(_resolve_path(resolved, path))
              for name, path in resolved["embeddings"].items()}
    traits_path = _resolve_path(resolved, resolved["traits_csv"])
    traits = read_trait_csv(traits_path) if traits_path.exists() else None

    jobs_list = [(system, task) for system in sorted(tables)
                 for task in resolved["tasks"]]

    def run(item):
        system, task = item
        try:
            return _run_probe_task(resolved, manifest, tables, traits, system, task)
        except (ValueError, OSError) as exc:
            return {"system": system, "trait": task.get("trait"),
                    "scheme": task.get("scheme"), "kind": task.get("kind"),
                    "status": "failed", "error": str(exc)}

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
    _dump_json(_resolve_path(resolved, "probe_report.json"), report)
    _emit_probe_charts(resolved, records)
    return [r for r in records if r["status"] == "failed"]


def _emit_probe_charts(resolved: dict, records: list[dict]) -> None:
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
        charts.bar_chart(_resolve_path(resolved, fname),
                         f"Probe {kind} performance", groups, systems, values,
                         err_low=lo, err_high=hi, ylabel=ylabel)


def cmd_distance(resolved: dict) -> list[dict]:
    dcfg = resolved.get("distance")
    if not dcfg:
        raise ValueError("config has no distance section")
    manifest_path = _resolve_path(resolved, resolved["manifest"])
    manifest = load_manifest(manifest_path)
    rows = manifest.row_map()
    paired: dict[str, tuple] = {}
    for kind in dcfg.get("kinds", ["embedding"]):
        source = None  # utt_id -> the file a pairing error names
        if kind == "embedding":
            system = dcfg.get("system")
            if system not in resolved["embeddings"]:
                raise ValueError(f"distance system {system!r} has no embeddings path")
            table = load_embeddings(_resolve_path(resolved, resolved["embeddings"][system]))
            load = table.entries
        elif kind == "encoder_spectral":
            features_dir = dcfg.get("features_dir")
            chunk_s = float(dcfg.get("chunk_seconds", 4.0))

            def frm_path(utt: str) -> Path:
                return _resolve_path(resolved, f"{features_dir}/{utt}.frm")

            def load(utt: str) -> np.ndarray:
                if features_dir:
                    return read_frames(frm_path(utt))
                if rows[utt].audio_path:
                    wav = read_wav(manifest_path.parent / rows[utt].audio_path)
                    return power_spectrogram(chunk_fixed(wav, chunk_s)).frames
                raise ValueError(f"{utt}: no frame features or audio for encoder_spectral")

            source = frm_path if features_dir else None
        else:
            raise ValueError(f"unknown distance kind {kind!r}")
        # one speaker's representations at a time, each read exactly once
        paired[kind] = bonafide_spoof_pairing(manifest, load, kind, source=source)
    # every kind is paired before the first file is written
    bins = int(dcfg.get("bins", 50))
    summary: dict[str, dict] = {}
    for kind, (records, skipped) in paired.items():
        write_distance_records(records, _resolve_path(resolved, f"distance_records_{kind}.csv"))
        female, male = summarize_by_gender(records, bins=bins)
        summary[kind] = {
            "female": dataclasses.asdict(female), "male": dataclasses.asdict(male),
            "skipped": skipped,
        }
        charts.histogram_overlay(
            _resolve_path(resolved, f"charts/distance_{kind}.svg"),
            f"Bonafide-spoof distance by gender ({kind})",
            {"female": [r.mean_distance for r in records if r.gender == "female"],
             "male": [r.mean_distance for r in records if r.gender == "male"]},
            bins=bins, xlabel="mean distance")
    _dump_json(_resolve_path(resolved, "distance_summary.json"), summary)
    return []


def cmd_perturb(resolved: dict) -> list[dict]:
    pcfg = resolved.get("perturb")
    if not pcfg:
        raise ValueError("config has no perturb section")
    rates = [float(r) for r in pcfg.get("rates", DEFAULT_RATES)]
    for rate in rates:
        check_rate(rate)
    manifest_path = _resolve_path(resolved, resolved["manifest"])
    manifest = load_manifest(manifest_path)
    out_rel = pcfg.get("audio_outdir", "perturbed")
    wrote = 0
    for row in manifest.rows:
        if not row.audio_path:
            continue
        wav = read_wav(manifest_path.parent / row.audio_path)
        for rate in rates:
            out = speed_perturb(wav, rate)
            write_wav(_resolve_path(resolved, f"{out_rel}/r{rate:g}/{row.utt_id}.wav"), out)
            wrote += 1
    if wrote == 0:
        raise ValueError("no rows with audio paths to perturb")
    return []


def cmd_sweep(resolved: dict) -> list[dict]:
    scfg = resolved.get("sweep")
    if not scfg:
        raise ValueError("config has no sweep section")
    rates = tuple(float(r) for r in scfg.get("rates", DEFAULT_RATES))
    for rate in rates:
        check_rate(rate)
    files = {}
    if scfg.get("score_files"):
        for key, path in scfg["score_files"].items():
            files[float(key)] = str(_resolve_path(resolved, path))
    elif scfg.get("score_dir"):
        for rate in rates:
            files[rate] = str(_resolve_path(resolved, f"{scfg['score_dir']}/scores_{rate:g}.txt"))
    else:
        raise ValueError("sweep needs score_files or score_dir")
    cfg = PerturbSweepConfig(rates=rates, score_files=files)
    results = run_sweep(cfg, outdir=_resolve_path(resolved, "."))
    _dump_json(_resolve_path(resolved, "sweep_eer.json"),
               {f"{rate:g}": {"eer": res.eer, "threshold": res.threshold}
                for rate, res in results.items()})
    return []


def cmd_report(resolved: dict) -> list[dict]:
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
        path = _resolve_path(resolved, fname)
        if path.exists():
            doc = json.loads(path.read_text(encoding="utf-8"))
            report[key] = doc.get("tasks", doc) if fname == "probe_report.json" else doc
    _dump_json(_resolve_path(resolved, "report.json"), report)
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

    doc = load_config(args.config)
    resolved = resolve_config(doc, outdir=args.outdir, seed=args.seed)
    failures_path = _resolve_path(resolved, "failures.json")
    failures_path.unlink(missing_ok=True)  # a successful rerun leaves none behind

    try:
        check_config_keys(resolved)
        for task in resolved["tasks"]:
            validate_task(task)
        if args.command == "probe":
            failures = cmd_probe(resolved, jobs=max(1, args.jobs))
        else:
            failures = COMMANDS[args.command](resolved)
    except (ValueError, OSError) as exc:
        failures = [{"command": args.command, "error": str(exc)}]

    if failures:
        _dump_json(failures_path, {"command": args.command, "failures": failures})
        print(json.dumps({"command": args.command, "failures": failures}, sort_keys=True),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
