"""Synthetic corpora with planted, known trait structure.

These generators are the verification scaffolding of the toolkit: every
probing and ablation claim is checked against data where the ground truth is
known by construction. Deterministic given the seed.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (check_frequency, check_planted, check_positive, check_synth_spec,
                     resolve_path, synth_spec_keys)
from .data_model import (EmbeddingTable, Manifest, ManifestRow, trait_label, write_embeddings,
                         write_manifest)
from .perturbation import ScoreRow, write_score_file
from .rng import derive_seed, make_rng
from .trait_extract import Waveform, write_wav

ACCENTS = ("american", "english", "irish", "scottish", "welsh")
DEFAULT_ATTACKS = ("A07", "A08", "A09", "A10")


@dataclass(frozen=True)
class PlantedTrait:
    trait_name: str
    kind: str  # cluster | linear_subspace | none
    strength: float

    def __post_init__(self):
        check_planted(**vars(self))


@dataclass(frozen=True)
class SynthSpec:
    n_speakers: int
    utts_per_speaker: int
    dim: int
    planted_traits: tuple[PlantedTrait, ...] = ()
    noise_sigma: float = 0.1
    seed: int = 0
    spoof_fraction: float = 0.5
    attack_ids: tuple[str, ...] = DEFAULT_ATTACKS

    def __post_init__(self):
        check_synth_spec(**vars(self))


def build_manifest(spec: SynthSpec) -> Manifest:
    """Synthetic manifest: balanced genders, cycling ages/accents, and a
    spoofed tail per speaker cycling through the attack ids."""
    rows = []
    n_spoof = int(round(spec.spoof_fraction * spec.utts_per_speaker))
    attack_counter = 0
    for s in range(spec.n_speakers):
        speaker = f"SYN{s:04d}"
        gender = "female" if s % 2 == 0 else "male"
        age = 18 + (s % 15)
        accent = ACCENTS[s % len(ACCENTS)]
        for u in range(spec.utts_per_speaker):
            utt = f"{speaker}_{u:03d}"
            spoofed = u >= spec.utts_per_speaker - n_spoof
            if spoofed:
                attack = spec.attack_ids[attack_counter % len(spec.attack_ids)]
                attack_counter += 1
                a_type = "TTS" if spec.attack_ids.index(attack) % 2 == 0 else "VC"
                rows.append(ManifestRow(
                    utt_id=utt, speaker_id=speaker, gender=gender, age=age,
                    accent=accent, is_bonafide=False, attack_id=attack,
                    attack_type=a_type,
                    transcript=f"synthetic spoofed utterance number {u}"))
            else:
                rows.append(ManifestRow(
                    utt_id=utt, speaker_id=speaker, gender=gender, age=age,
                    accent=accent, is_bonafide=True,
                    transcript=f"synthetic bonafide utterance number {u}"))
    return Manifest(rows=tuple(rows))


def trait_direction(spec: SynthSpec, trait_name: str) -> np.ndarray:
    """Unit direction along which a linear_subspace trait is planted."""
    v = make_rng(spec.seed, "synth-direction", trait_name).normal(0.0, 1.0, size=spec.dim)
    return v / np.linalg.norm(v)


def planted_values(spec: SynthSpec, trait_name: str) -> np.ndarray:
    """The standard-normal value stream of a linear_subspace trait, one value
    per manifest row in row order."""
    n = spec.n_speakers * spec.utts_per_speaker
    return make_rng(spec.seed, "synth-value", trait_name).normal(0.0, 1.0, size=n)


def gen_table(spec: SynthSpec, manifest: Manifest) -> EmbeddingTable:
    """Embeddings = noise_sigma * Gaussian base + sum of planted signals.

    Cluster traits add a unit per-class mean vector scaled by strength;
    linear_subspace traits add value * direction scaled by strength.
    """
    n = len(manifest.rows)
    emb = spec.noise_sigma * make_rng(spec.seed, "synth-base").normal(0.0, 1.0, size=(n, spec.dim))
    for planted in spec.planted_traits:
        if planted.kind == "none" or planted.strength == 0.0:
            continue
        if planted.kind == "cluster":
            labels = [trait_label(row, planted.trait_name) for row in manifest.rows]
            rng = make_rng(spec.seed, "synth-cluster", planted.trait_name)
            means = {}
            for cls in sorted(set(labels)):
                v = rng.normal(0.0, 1.0, size=spec.dim)
                means[cls] = v / np.linalg.norm(v)
            emb += planted.strength * np.stack([means[lab] for lab in labels])
        else:
            direction = trait_direction(spec, planted.trait_name)
            values = planted_values(spec, planted.trait_name)
            emb += planted.strength * values[:, None] * direction[None, :]
    return EmbeddingTable(ids=tuple(row.utt_id for row in manifest.rows), matrix=emb)


def gen_dataset(spec: SynthSpec) -> tuple[Manifest, EmbeddingTable]:
    """Manifest plus an embedding table with the planted structure."""
    manifest = build_manifest(spec)
    return manifest, gen_table(spec, manifest)


def gen_regression_target(spec: SynthSpec, trait_name: str,
                          table: EmbeddingTable) -> dict[str, float]:
    """Scalar target per utterance: <embedding, direction>/strength plus
    Gaussian observation noise of scale noise_sigma."""
    planted = next((p for p in spec.planted_traits if p.trait_name == trait_name), None)
    if planted is None or planted.kind != "linear_subspace":
        raise ValueError(f"trait {trait_name!r} not planted as linear_subspace")
    if planted.strength <= 0.0:
        raise ValueError("planted strength must be positive for regression targets")
    direction = trait_direction(spec, trait_name)
    rng = make_rng(spec.seed, "synth-target-noise", trait_name)
    return {utt: float(vec @ direction / planted.strength + rng.normal(0.0, spec.noise_sigma))
            for utt, vec in zip(table.ids, table.matrix)}


def gen_tone(freq: float, dur: float, sr: int = 16000,
             amplitude: float = 0.5) -> Waveform:
    """Pure sine of `dur` seconds starting at phase 0."""
    check_positive(duration_s=dur, sr=sr)
    check_frequency(freq, sr)
    n = int(round(dur * sr))
    t = np.arange(n) / sr
    return Waveform(samples=amplitude * np.sin(2.0 * math.pi * freq * t), sample_rate=sr)


def gen_scores(n_bonafide: int, n_spoof: int, separation: float,
               seed: int = 0) -> list[ScoreRow]:
    """Unit-variance Gaussian score families with the given mean separation.

    Larger separation means an easier detection problem (lower EER).
    """
    check_positive(n_bonafide=n_bonafide, n_spoof=n_spoof)
    rng = make_rng(seed, "synth-scores")
    rows = [ScoreRow(f"BONA{i:05d}", float(rng.normal(separation / 2.0, 1.0)), True)
            for i in range(n_bonafide)]
    rows += [ScoreRow(f"SPOOF{i:05d}", float(rng.normal(-separation / 2.0, 1.0)), False)
             for i in range(n_spoof)]
    return rows


def gen_gender_ablation_pair(n_speakers: int = 12, bonafide_per_speaker: int = 2,
                             spoof_per_speaker: int = 4, n_frames: int = 20,
                             n_bins: int = 16, dim: int = 32, seed: int = 0,
                             ) -> tuple[Manifest, dict[str, np.ndarray], EmbeddingTable]:
    """Paired representations where only the encoder level separates genders.

    Encoder-level frames of spoofed utterances are scaled copies of the
    speaker's base spectrum with a gender-specific log-scale offset, so
    bonafide-vs-spoof spectral distances split cleanly by gender. Embeddings
    place spoofs at a gender-independent angular offset, so embedding-level
    distances share one distribution across genders.
    """
    rng = make_rng(seed, "gender-pair")
    rows = []
    encoder: dict[str, np.ndarray] = {}
    vectors: list[np.ndarray] = []
    for s in range(n_speakers):
        speaker = f"GAB{s:03d}"
        gender = "female" if s % 2 == 0 else "male"
        tilt = 0.3 if gender == "female" else 1.0  # gender-specific spoof offset, encoder level
        base_frames = np.exp(rng.normal(0.0, 0.5, size=(n_frames, n_bins)))
        base_emb = rng.normal(0.0, 1.0, size=dim)
        base_emb /= np.linalg.norm(base_emb)
        for u in range(bonafide_per_speaker):
            utt = f"{speaker}_B{u:02d}"
            rows.append(ManifestRow(utt_id=utt, speaker_id=speaker, gender=gender,
                                    age=20 + s % 12, accent=ACCENTS[s % len(ACCENTS)],
                                    is_bonafide=True))
            encoder[utt] = base_frames * math.exp(0.01 * rng.normal())
            vec = base_emb + 0.05 * rng.normal(0.0, 1.0, size=dim)
            vectors.append(vec / np.linalg.norm(vec))
        for u in range(spoof_per_speaker):
            utt = f"{speaker}_S{u:02d}"
            rows.append(ManifestRow(utt_id=utt, speaker_id=speaker, gender=gender,
                                    age=20 + s % 12, accent=ACCENTS[s % len(ACCENTS)],
                                    is_bonafide=False, attack_id="A07", attack_type="TTS"))
            encoder[utt] = base_frames * math.exp(tilt + 0.05 * rng.normal())
            gamma = 0.6 + 0.05 * rng.normal()
            vec = base_emb + gamma * rng.normal(0.0, 1.0, size=dim)
            vectors.append(vec / np.linalg.norm(vec))
    table = EmbeddingTable(ids=tuple(row.utt_id for row in rows), matrix=np.array(vectors))
    return Manifest(rows=tuple(rows)), encoder, table


def _synth_spec(cfg: dict, overrides: dict | None = None) -> SynthSpec:
    spec = synth_spec_keys(cfg, overrides)
    if missing := sorted({"n_speakers", "utts_per_speaker", "dim"} - spec.keys()):
        raise ValueError(f"config key 'synth.{missing[0]}' is required")
    planted = tuple(PlantedTrait(p["trait"], p["kind"], p["strength"])
                    for p in spec.pop("planted", ()))
    return SynthSpec(planted_traits=planted, **spec)


def cmd_synth(resolved: dict, cfg: dict) -> list[dict]:
    """The `synth` command: the manifest, each system's table, and any tones and scores."""
    scfg = cfg["synth"]
    base_spec = _synth_spec(cfg)
    manifest = build_manifest(base_spec)

    manifest_path = resolve_path(cfg, cfg["manifest"])
    audio = scfg["audio"]
    if audio is not None:
        if audio["freq_trait"]:
            values = planted_values(base_spec, audio["freq_trait"])
        else:
            values = np.zeros(len(manifest.rows))
        audio_root = resolve_path(cfg, audio["dir"])
        # manifest audio paths are relative to the manifest's directory
        audio_rel = Path(os.path.relpath(audio_root, manifest_path.parent)).as_posix()
        rows = []
        for i, row in enumerate(manifest.rows):
            freq = audio["freq_base"] + audio["freq_scale"] * float(np.clip(values[i], -3.0, 3.0))
            write_wav(audio_root / f"{row.utt_id}.wav",
                      gen_tone(freq, audio["duration_s"], sr=audio["sr"], amplitude=0.5))
            rows.append(replace(row, audio_path=f"{audio_rel}/{row.utt_id}.wav"))
        manifest = replace(manifest, rows=tuple(rows))

    write_manifest(manifest, manifest_path)

    systems = scfg["systems"] or {name: None for name in cfg["embeddings"]}
    for name in sorted(systems):
        if name not in cfg["embeddings"]:
            raise ValueError(f"synth system {name!r} has no embeddings path in config")
        table = gen_table(_synth_spec(cfg, systems[name]), manifest)
        write_embeddings(table, resolve_path(cfg, cfg["embeddings"][name]))

    scores = scfg["scores"]
    if scores is not None:
        for rate in scores["rates"]:
            separation = max(0.2, scores["base_separation"] - scores["decay"] * abs(rate - 1.0))
            rows = gen_scores(scores["n_bonafide"], scores["n_spoof"], separation,
                              seed=derive_seed(cfg["seed"], "scores", f"{rate:g}"))
            write_score_file(rows, resolve_path(cfg, f"{scores['dir']}/scores_{rate:g}.txt"))
    return []
