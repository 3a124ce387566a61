import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from embprobe.config import check_config, resolve_config
from embprobe.data_model import partition
from embprobe.distance_analysis import histogram_overlap
from embprobe.metrics import bootstrap_ci, permutation_p_value
from embprobe.perturbation import run_sweep, speed_perturb
from embprobe.probe_net import TrainConfig, init_probe
from embprobe.synth import PlantedTrait, SynthSpec, build_manifest, gen_scores, gen_tone
from embprobe.trait_extract import chunk_fixed


def test_config_import_loads_neither_numpy_nor_yaml():
    import embprobe
    src = str(Path(embprobe.__file__).resolve().parents[1])
    code = ("import sys, embprobe.config; print(sorted(m for m in sys.modules "
            "if m in ('numpy', 'yaml') or m.partition('.')[0] == 'embprobe'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "['embprobe', 'embprobe.config', 'embprobe.fileio']"


VALID = {"synth": {"n_speakers": 2, "utts_per_speaker": 2, "dim": 4,
                   "planted": [{"trait": "gender", "kind": "cluster"}],
                   "audio": {"sr": 16000}, "scores": {"n_bonafide": 5}},
         "distance": {"bins": 10}, "perturb": {"rates": [1.0]}, "sweep": {"score_dir": "s"}}


def _tone():
    return gen_tone(200.0, 0.1)


# (path, out-of-range value, the library call that gets the same value)
SHARED_CHECKS = [
    ("train.epochs", 0, lambda v: TrainConfig(epochs=v)),
    ("train.initial_lr", -1.0, lambda v: TrainConfig(initial_lr=v)),
    ("train.decay_factor", 1.5, lambda v: TrainConfig(decay_factor=v)),
    ("train.hidden_dim", 0, lambda v: init_probe(4, v, 2, "classification")),
    ("synth.n_speakers", 0, lambda v: SynthSpec(n_speakers=v, utts_per_speaker=2, dim=4)),
    ("synth.noise_sigma", -0.5, lambda v: SynthSpec(2, 2, 4, noise_sigma=v)),
    ("synth.attack_ids", [], lambda v: SynthSpec(2, 2, 4, attack_ids=tuple(v))),
    ("synth.planted[0].kind", "blob", lambda v: PlantedTrait("gender", v, 1.0)),
    ("synth.planted[0].strength", 1.5, lambda v: PlantedTrait("gender", "cluster", v)),
    ("partition.train_fraction", 1.0,
     lambda v: partition(build_manifest(SynthSpec(2, 2, 4)), "T02", v)),
    ("metrics.n_boot", 99, lambda v: bootstrap_ci([0, 1], [0, 1], n_boot=v)),
    ("metrics.alpha", 1.0, lambda v: bootstrap_ci([0, 1], [0, 1], alpha=v)),
    ("metrics.n_perm", 10, lambda v: permutation_p_value([0, 1, 2], [0, 2, 1], n_perm=v)),
    ("distance.bins", 0, lambda v: histogram_overlap([0.0], [1.0], bins=v)),
    ("distance.chunk_seconds", 0.0, lambda v: chunk_fixed(_tone(), v)),
    ("perturb.rates", [2.5], lambda v: speed_perturb(_tone(), v[0])),
    ("sweep.rates", [0.9, 1.1], lambda v: run_sweep(v, {})),
    ("synth.audio.sr", 0, lambda v: gen_tone(200.0, 1.0, sr=v)),
    ("synth.audio.duration_s", -1.0, lambda v: gen_tone(200.0, v)),
    ("synth.scores.n_bonafide", 0, lambda v: gen_scores(v, 5, 1.0)),
]


@pytest.mark.parametrize("path, value, library_call", SHARED_CHECKS,
                         ids=[path for path, _, _ in SHARED_CHECKS])
def test_config_and_library_share_one_range_check(path, value, library_call):
    """An out-of-range value fails the config check with exactly the error the
    library raises for it, prefixed by the key's path."""
    with pytest.raises(ValueError) as library:
        library_call(value)
    cfg = resolve_config(VALID)
    *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    section = cfg
    for key in keys:
        section = section[key]
    section[last] = value
    with pytest.raises(ValueError) as config:
        check_config(cfg)
    assert str(config.value) == f"config key {path!r}: {library.value}"
