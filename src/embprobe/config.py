"""The run config's schema (every key's type, default and range), the range checks that
the libraries share, and loading, checking and fingerprinting a config. Imports only the
standard library and fileio, so a command checks its whole config without numpy."""
from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from enum import Enum
from pathlib import Path

from .fileio import read_json

META_TRAITS = ("speaker_id", "age", "gender", "accent", "attack_id", "attack_type")
ATTACK_TRAITS = ("attack_id", "attack_type")
ACOUSTIC_TRAITS = ("f0_mean", "speaking_rate", "duration", "snr")
PLANTED_KINDS = ("cluster", "linear_subspace", "none")
DEFAULT_HIDDEN_DIM = 256
DEFAULT_RATES = (0.8, 0.9, 1.0, 1.1, 1.2)


class PartitionScheme(str, Enum):
    T01 = "T01"
    T02 = "T02"
    T03 = "T03"


def check_train_fraction(train_fraction: float) -> None:
    """Raise ValueError unless `train_fraction` lies in (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")


def check_train(**values) -> None:
    """Raise ValueError for the first of the given TrainConfig fields out of range."""
    for name in ("epochs", "batch_size"):
        if values.get(name, 1) < 1:
            raise ValueError(f"{name} must be >= 1")
    lr = values.get("initial_lr", 1.0)
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError("initial_lr must be positive and finite")
    if not 0.0 < values.get("decay_factor", 1.0) <= 1.0:
        raise ValueError("decay_factor must lie in (0, 1]")
    if values.get("decay_every", 1) < 1:
        raise ValueError("decay_every must be >= 1")


def check_dims(**dims: int) -> None:
    """Raise ValueError unless every named layer width is at least 1."""
    for name, value in dims.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def check_resampling(n_boot: int = 1000, alpha: float = 0.05, n_perm: int = 999) -> None:
    """Raise ValueError unless every resampling setting lies in its range."""
    for name, n in (("n_boot", n_boot), ("n_perm", n_perm)):
        if n < 100:
            raise ValueError(f"{name} must be >= 100")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def check_bins(bins: int) -> None:
    """Raise ValueError unless a histogram bin count is at least 1."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")


def check_chunk_seconds(chunk_seconds: float) -> None:
    """Raise ValueError unless a chunk length in seconds is positive."""
    if chunk_seconds <= 0:
        raise ValueError("seconds must be positive")


def check_rate(rate: float) -> None:
    """Raise ValueError unless `rate` lies in the supported [0.5, 2.0]."""
    if not 0.5 <= rate <= 2.0:
        raise ValueError(f"rate {rate} outside [0.5, 2.0]")


def check_sweep_rates(rates) -> None:
    """Raise ValueError unless the sweep's rates are distinct, positive and include 1.0."""
    if len(set(rates)) != len(rates):
        raise ValueError("rates must be distinct")
    if any(r <= 0 for r in rates):
        raise ValueError("rates must be positive")
    if 1.0 not in rates:
        raise ValueError("baseline rate 1.0 must be included")


def check_synth_spec(**values) -> None:
    """Raise ValueError for the first of the given SynthSpec fields out of range."""
    if any(values.get(name, 1) < 1 for name in ("n_speakers", "utts_per_speaker", "dim")):
        raise ValueError("counts and dim must be positive")
    if not 0.0 <= values.get("spoof_fraction", 0.0) <= 1.0:
        raise ValueError("spoof_fraction must lie in [0, 1]")
    if values.get("noise_sigma", 0.0) < 0.0:
        raise ValueError("noise_sigma must be non-negative")
    if "attack_ids" in values and not values["attack_ids"]:
        raise ValueError("attack_ids must not be empty")


def check_planted(**values) -> None:
    """Raise ValueError for the first of the given PlantedTrait fields out of range."""
    if values.get("kind", "none") not in PLANTED_KINDS:
        raise ValueError(f"unknown planted kind {values['kind']!r}")
    if not 0.0 <= values.get("strength", 0.0) <= 1.0:
        raise ValueError("strength must lie in [0, 1]")


def check_positive(**values) -> None:
    """Raise ValueError naming the first of `values` (a count, a duration or a
    sample rate) that is not positive."""
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive")


def check_frequency(freq: float, sr: int) -> None:
    """Raise ValueError unless a tone of `freq` Hz lies in (0, Nyquist) at
    sample rate `sr`."""
    if freq <= 0 or freq >= sr / 2:
        raise ValueError(f"frequency {freq:g} must lie in (0, Nyquist={sr / 2})")


class Optional(dict):
    """A config section that may be absent; null or empty, it reads as None."""


RATES = "rates"  # the kind of a non-empty list of distinct rates
# The keys of a synthetic-corpus spec, in synth and in each synth.systems.<name>;
# null leaves a key to synth, then to SynthSpec (the seed to the top level).
SYNTH_SPEC = {
    "n_speakers": (int, None, check_synth_spec), "utts_per_speaker": (int, None, check_synth_spec),
    "dim": (int, None, check_synth_spec), "noise_sigma": (float, None, check_synth_spec),
    "seed": (int,), "spoof_fraction": (float, None, check_synth_spec),
    "attack_ids": [(str, ...), None, check_synth_spec],
    "planted": [{"trait": (str,), "kind": (str, None, check_planted),
                 "strength": (float, 1.0, check_planted)}, None]}
# Every config key. A value's spec is (kind, default, check): kind is int, float,
# bool, str, a tuple of the strings it may be, or RATES; check, the library's
# check of its range, takes the value by its key's name; null reads as the
# default, or is an error if that is ... . {key: spec} is a section (Optional:
# may be absent), {str: spec} or {float: spec} a mapping from names or rates,
# and [item spec, default] or [item spec, default, check] a list. resolve_config
# merges the defaults of the top level and its plain sections into the config
# (report.json echoes it).
SCHEMA = {
    "seed": (int, 0), "outdir": (str, "out"), "manifest": (str, "manifest.csv"),
    "embeddings": {str: (str, ...)}, "traits_csv": (str, "traits.csv"),
    "partition": {"train_fraction": (float, 0.9, check_train_fraction),
                  "schemes": [(tuple(s.value for s in PartitionScheme), ...), None]},
    "train": {"epochs": (int, 20, check_train), "batch_size": (int, 32, check_train),
              "initial_lr": (float, 0.001, check_train), "decay_factor": (float, 0.1, check_train),
              "decay_every": (int, 8, check_train), "unit_norm": (bool, False),
              "hidden_dim": (int, DEFAULT_HIDDEN_DIM, check_dims)},
    "metrics": {"n_boot": (int, 1000, check_resampling), "alpha": (float, 0.05, check_resampling),
                "n_perm": (int, 999, check_resampling)},
    "tasks": [{"trait": (str,), "kind": (str,), "scheme": (str,)}, []],
    "distance": Optional({"system": (str,), "features_dir": (str,),
                          "bins": (int, 50, check_bins),
                          "kinds": [(("embedding", "encoder_spectral"), ...), ["embedding"]],
                          "chunk_seconds": (float, 4.0, check_chunk_seconds)}),
    "perturb": Optional({"rates": (RATES, DEFAULT_RATES, check_rate),
                         "audio_outdir": (str, "perturbed")}),
    "sweep": Optional({"rates": (RATES, DEFAULT_RATES, check_rate),
                       "score_files": {float: (str, ...)}, "score_dir": (str,)}),
    "synth": Optional({
        **SYNTH_SPEC, "systems": {str: Optional(SYNTH_SPEC)},
        "audio": Optional({"dir": (str, "audio"), "duration_s": (float, 1.0, check_positive),
                           "sr": (int, 16000, check_positive), "freq_trait": (str,),
                           "freq_base": (float, 200.0), "freq_scale": (float, 30.0)}),
        "scores": Optional({"dir": (str, "scores"), "rates": (RATES, DEFAULT_RATES),
                            "n_bonafide": (int, 60, check_positive),
                            "n_spoof": (int, 60, check_positive),
                            "base_separation": (float, 3.0), "decay": (float, 4.0)})})}


TYPES = {int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
         float: ("a finite number", lambda v: isinstance(v, int | float)
                 and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
         bool: ("true or false", lambda v: isinstance(v, bool)),
         str: ("a string", lambda v: isinstance(v, str))}


def _checked(path: str, check, *args, **kwargs) -> None:
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config key {path!r}: {exc}") from None


def _default(spec):
    if isinstance(spec, Optional):
        return None
    if isinstance(spec, dict):
        return {} if str in spec or float in spec else {k: _default(s) for k, s in spec.items()}
    return spec[1] if len(spec) > 1 else None


def _name(kind, name, path: str):
    # a key of a {str: spec} or {float: spec} mapping; JSON writes a rate as a string
    if kind is str:
        if not isinstance(name, str):
            raise ValueError(f"config key {path!r} must be named by a string")
        return name
    try:
        return _typed((float,), float(name), path)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"config key {path!r} must be named by a number") from None


def _typed(spec, value, path: str):
    if isinstance(spec, tuple):
        kind, default, check = (*spec, None, None)[:3]
        if kind is RATES:
            if (not isinstance(value, list | tuple) or not value
                    or not all(map(TYPES[float][1], value)) or len(set(value)) != len(value)):
                raise ValueError(f"config key {path!r} must be a non-empty list of "
                                 "distinct numbers")
            for rate in value if check else ():
                _checked(path, check, rate)
            return tuple(float(rate) for rate in value)
        if value is None and default is not ...:
            return default
        expected, ok = (("one of " + ", ".join(kind), value in kind) if isinstance(kind, tuple)
                        else (TYPES[kind][0], TYPES[kind][1](value)))
        if not ok:
            raise ValueError(f"config key {path!r} must be {expected}, got {value!r}")
        if check is not None:
            _checked(path, check, **{path.rpartition(".")[2]: value})
        return float(value) if kind is float else value
    if isinstance(spec, list):
        if value is None:
            return spec[1]
        if not isinstance(value, list | tuple):
            raise ValueError(f"config key {path!r} must be a list")
        items = tuple(_typed(spec[0], item, f"{path}[{i}]") for i, item in enumerate(value))
        if len(spec) > 2:
            _checked(path, spec[2], **{path.rpartition(".")[2]: items})
        return items
    mapping = str in spec or float in spec
    if (value is None and mapping) or (isinstance(spec, Optional) and value in (None, {})):
        return _default(spec)
    if not isinstance(value, dict):
        raise ValueError(f"config key {path!r} must be a mapping")
    join = (lambda key: f"{path}.{key}") if path else str
    if mapping:
        (name_kind, item_spec), = spec.items()
        typed, paths = {}, {}
        for name, item in value.items():
            key = _name(name_kind, name, join(name))
            if key in paths:  # two names of one rate
                raise ValueError(f"config key {join(name)!r} repeats the rate of {paths[key]!r}")
            paths[key] = join(name)
            typed[key] = _typed(item_spec, item, join(name))
        if len({isinstance(name, str) for name in value}) > 1:  # json.dumps cannot sort them
            raise ValueError(f"config key {path!r} names its rates by both numbers and strings")
        return typed
    for key in value:
        if key not in spec:
            raise ValueError(f"unknown config key {join(key)!r} "
                             f"(known: {', '.join(sorted(spec))})")
    return {key: _typed(s, value[key], join(key)) if key in value else _default(s)
            for key, s in spec.items()}


def synth_spec_keys(cfg: dict, overrides: dict | None = None) -> dict:
    """The set SYNTH_SPEC keys of synth, then of a system's overrides, over the top-level seed."""
    spec = {"seed": cfg["seed"]}
    for source in (cfg["synth"], overrides or {}):
        spec.update((key, value) for key, value in source.items()
                    if key in SYNTH_SPEC and value is not None)
    return spec


def check_config(resolved: dict) -> dict:
    """The resolved config typed, with every default in; ValueError names the
    dotted path of the first key that is unknown, of a wrong type or out of range."""
    cfg = _typed(SCHEMA, resolved, "")
    for i, task in enumerate(cfg["tasks"]):
        _checked(f"tasks[{i}]", validate_task, task)
    audio = cfg["synth"] and cfg["synth"]["audio"]
    if audio and audio["freq_trait"]:
        # synth's tones follow planted_values of freq_trait at synth's seed, which only a
        # system planting it as linear_subspace at that seed puts in the embeddings
        seed, trait = synth_spec_keys(cfg)["seed"], audio["freq_trait"]
        specs = [synth_spec_keys(cfg, over)
                 for over in (cfg["synth"]["systems"] or {"": None}).values()]
        if not any((p["trait"], p["kind"]) == (trait, "linear_subspace")
                   for spec in specs if spec["seed"] == seed for p in spec.get("planted", ())):
            raise ValueError(f"config key 'synth.audio.freq_trait': {trait!r} "
                             "is not a planted linear_subspace trait")
    if audio:  # synth's tones span freq_base +/- 3 |freq_scale| with a freq_trait
        base, sr = audio["freq_base"], audio["sr"]
        spread = 3.0 * abs(audio["freq_scale"]) if audio["freq_trait"] else 0.0
        _checked("synth.audio.freq_base", check_frequency, base, sr)
        for freq in (base - spread, base + spread):
            _checked("synth.audio.freq_scale", check_frequency, freq, sr)
    sweep = cfg["sweep"]
    if sweep:
        _checked("sweep.rates", check_sweep_rates, sweep["rates"])
        for rate in sweep["rates"] if sweep["score_files"] else ():
            if rate not in sweep["score_files"]:
                raise ValueError(f"config key 'sweep.score_files' has no file for rate {rate:g}")
        if not (sweep["score_files"] or sweep["score_dir"]):
            raise ValueError("config key 'sweep' needs score_files or score_dir")
    return cfg


def validate_task(task: dict) -> None:
    trait, kind, scheme = task.get("trait"), task.get("kind"), task.get("scheme")
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
        if trait not in ACOUSTIC_TRAITS:
            raise ValueError(f"task {task}: unknown regression trait {trait!r}")
        if scheme == "T03":
            raise ValueError(f"task {task}: acoustic traits require scheme T01 or T02")


def _deep_merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _deep_merge(base.get(key), value)
        return merged
    return copy.deepcopy(override) if override is not None else copy.deepcopy(base)


def load_config(path) -> dict:
    if Path(path).suffix == ".json":
        return read_json(path)
    import yaml  # JSON configs skip its import cost
    return read_json(path, yaml.safe_load)


def resolve_config(doc: dict, outdir=None, seed=None) -> dict:
    resolved = _deep_merge(copy.deepcopy(_default(SCHEMA)), doc)
    if outdir is not None:
        resolved["outdir"] = str(outdir)
    if seed is not None:
        resolved["seed"] = int(seed)
    return resolved


def resolve_path(cfg: dict, value) -> Path:
    """A config path; a relative one lives under the output directory."""
    p = Path(value)
    return p if p.is_absolute() else Path(cfg["outdir"]) / p


def config_fingerprint(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
