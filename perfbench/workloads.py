"""Workload definitions: one embprobe run config per workload and seed.

Each workload runs the full README sequence, but is shaped so that one layer
does most of the work while another does almost none. Every path
in a config is relative, and commands run with the iteration directory as
their working directory, so two iterations of one seed write byte-identical
artifacts, config echo in report.json included.
"""
from __future__ import annotations

import copy

GENDER = {"trait": "gender", "kind": "classification", "scheme": "T02"}
SPEAKER = {"trait": "speaker_id", "kind": "classification", "scheme": "T01"}
ATTACK = {"trait": "attack_id", "kind": "classification", "scheme": "T03"}
F0 = {"trait": "f0_mean", "kind": "regression", "scheme": "T02"}

SWEEP_RATES = [0.8, 0.9, 1.0, 1.1, 1.2]


def _planted(*traits: str) -> list[dict]:
    return [{"trait": t, "kind": "linear_subspace" if t == "f0_mean" else "cluster",
             "strength": 1.0} for t in traits]


def _base(seed: int) -> dict:
    return {
        "seed": seed,
        "outdir": "out",
        "manifest": "manifest.csv",
        "embeddings": {"cm": "emb/cm.emb"},
        "traits_csv": "traits.csv",
        "partition": {"train_fraction": 0.9},
        "tasks": [GENDER, F0],
        "distance": {"system": "cm", "kinds": ["embedding"], "chunk_seconds": 4.0,
                     "bins": 50},
        "perturb": {"rates": [1.0], "audio_outdir": "perturbed"},
        "sweep": {"rates": SWEEP_RATES, "score_dir": "scores"},
        "synth": {
            "n_speakers": 12, "utts_per_speaker": 8, "dim": 24,
            "noise_sigma": 0.05, "spoof_fraction": 0.5,
            "planted": _planted("gender", "f0_mean"),
            "audio": {"dir": "audio", "duration_s": 0.25, "sr": 16000,
                      "freq_trait": "f0_mean", "freq_base": 200.0, "freq_scale": 25.0},
            # EER grows 15x faster than the README example away from rate 1.0,
            # so "rate 1.0 has the lowest EER" holds for every seed.
            "scores": {"dir": "scores", "rates": SWEEP_RATES,
                       "n_bonafide": 200, "n_spoof": 200,
                       "base_separation": 4.0, "decay": 15.0},
        },
    }


def _probe_grid(cfg: dict) -> None:
    # probe_net and metrics dominate; rate 1.0 bypasses the resampler and the
    # embedding kind is the only distance, so perturbation and spectral work
    # should not show here
    cfg["embeddings"] = {"asv": "emb/asv.emb", "cm": "emb/cm.emb"}
    cfg["tasks"] = [GENDER, SPEAKER, ATTACK, F0]
    cfg["synth"].update(n_speakers=24, utts_per_speaker=10, dim=192,
                        planted=_planted("gender", "speaker_id", "attack_id", "f0_mean"),
                        systems={"asv": {"noise_sigma": 0.1}, "cm": {}})


def _spectral_many(cfg: dict) -> None:
    # distance dominates and sets peak RSS: every 4 s spectrogram is held at
    # once; traits runs its F0 path beside distance's spectrogram path
    cfg["distance"]["kinds"] = ["embedding", "encoder_spectral"]
    cfg["synth"].update(n_speakers=24, utts_per_speaker=12)


def _audio_long(cfg: dict) -> None:
    # speed_perturb dominates; probe and distance are trivial, so this is the
    # no-change side for probe_net and distance_analysis work
    cfg["perturb"]["rates"] = [0.8, 1.0, 1.2]
    cfg["synth"].update(n_speakers=16, utts_per_speaker=4, spoof_fraction=0.25)
    cfg["synth"]["audio"]["duration_s"] = 0.3
    # With this few rows the probes only reach the checks' floors for every
    # seed when four speakers are held out and the step size is larger.
    cfg["partition"]["train_fraction"] = 0.75
    cfg["train"] = {"initial_lr": 0.01}


SHAPES = {"probe-grid": _probe_grid, "spectral-many": _spectral_many,
          "audio-long": _audio_long}
# The command each workload is built to stress; its wall time is `focus_s`.
# Only it runs long enough everywhere for a per-command time to be steady.
FOCUS = {"probe-grid": "probe", "spectral-many": "distance", "audio-long": "perturb"}


def _shrink(cfg: dict) -> None:
    """Tiny corpus of the same shape, for the harness self-test."""
    synth = cfg["synth"]
    synth.update(n_speakers=min(synth["n_speakers"], 16),
                 utts_per_speaker=min(synth["utts_per_speaker"], 8),
                 dim=min(synth["dim"], 48))
    synth["audio"]["duration_s"] = 0.25
    cfg["partition"]["train_fraction"] = 0.75
    cfg["distance"]["chunk_seconds"] = 0.5
    cfg["train"] = {"initial_lr": 0.01}
    cfg["metrics"] = {"n_boot": 100, "n_perm": 100}


def config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The run config of `workload` for `seed`; `tiny` shrinks the corpus."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(SHAPES)}")
    cfg = copy.deepcopy(_base(seed))
    SHAPES[workload](cfg)
    if tiny:
        _shrink(cfg)
    return cfg
