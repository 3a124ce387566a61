import numpy as np
import pytest

from embprobe.data_model import (EmbeddingTable, TraitTask, assemble,
                                 build_label_space, partition)
from embprobe.metrics import accuracy, eer, r_squared
from embprobe.probe_net import TrainConfig, init_probe, predict, train
from embprobe.synth import (PlantedTrait, SynthSpec, gen_dataset,
                            gen_gender_ablation_pair, gen_regression_target,
                            gen_scores, gen_tone, planted_values, trait_direction)


def _probe_accuracy(manifest, table, trait, seed, hidden=32, epochs=10):
    train_ids, eval_ids = partition(manifest, "T01", 0.9, seed=seed)
    task = TraitTask.classification(manifest, trait)
    ds_tr = assemble(manifest, table, task, train_ids, "train")
    ds_ev = assemble(manifest, table, task, eval_ids, "eval")
    probe = init_probe(table.dim, hidden, task.label_space.size, "classification", seed=seed)
    probe, _ = train(probe, ds_tr, TrainConfig(epochs=epochs, seed=seed))
    return accuracy(predict(probe, ds_ev.X), ds_ev.y)


def test_gen_dataset_deterministic():
    spec = SynthSpec(n_speakers=6, utts_per_speaker=4, dim=8,
                     planted_traits=(PlantedTrait("gender", "cluster", 0.7),),
                     noise_sigma=0.2, seed=12)
    m1, t1 = gen_dataset(spec)
    m2, t2 = gen_dataset(spec)
    assert m1 == m2
    assert t1.ids == t2.ids
    assert np.array_equal(t1.matrix, t2.matrix)


def test_gen_dataset_shapes_and_structure():
    spec = SynthSpec(n_speakers=5, utts_per_speaker=6, dim=16, spoof_fraction=0.5, seed=0)
    manifest, table = gen_dataset(spec)
    assert len(manifest) == 30
    assert table.dim == 16
    spoofs = [r for r in manifest.rows if not r.is_bonafide]
    assert len(spoofs) == 15
    assert all(r.attack_id is not None for r in spoofs)
    assert build_label_space(manifest, "gender").classes == ("female", "male")


def test_planted_cluster_recoverable():
    spec = SynthSpec(n_speakers=20, utts_per_speaker=10, dim=32,
                     planted_traits=(PlantedTrait("gender", "cluster", 1.0),),
                     noise_sigma=0.05, seed=1, spoof_fraction=0.0)
    manifest, table = gen_dataset(spec)
    assert _probe_accuracy(manifest, table, "gender", seed=2) >= 0.95


def test_planted_zero_strength_chance_level():
    accs = []
    for seed in range(5):
        spec = SynthSpec(n_speakers=20, utts_per_speaker=10, dim=32,
                         planted_traits=(PlantedTrait("gender", "cluster", 0.0),),
                         noise_sigma=0.05, seed=100 + seed, spoof_fraction=0.0)
        manifest, table = gen_dataset(spec)
        accs.append(_probe_accuracy(manifest, table, "gender", seed=seed))
    assert abs(float(np.mean(accs)) - 0.5) < 0.12


def test_planted_monotone_in_strength():
    means = []
    for strength in (0.0, 0.25, 0.5, 1.0):
        accs = []
        for seed in range(5):
            spec = SynthSpec(n_speakers=16, utts_per_speaker=8, dim=24,
                             planted_traits=(PlantedTrait("gender", "cluster", strength),),
                             noise_sigma=0.3, seed=200 + seed, spoof_fraction=0.0)
            manifest, table = gen_dataset(spec)
            accs.append(_probe_accuracy(manifest, table, "gender", seed=seed, epochs=8))
        means.append(float(np.mean(accs)))
    # non-decreasing, tolerating one inversion of <= 2 points
    inversions = [max(0.0, means[i] - means[i + 1]) for i in range(len(means) - 1)]
    assert sum(1 for v in inversions if v > 0) <= 1
    assert max(inversions) <= 0.02


def test_speaker_id_probe_on_separated_clusters():
    # qualitative mirror: well-separated speaker clusters probe above 90%
    spec = SynthSpec(n_speakers=20, utts_per_speaker=20, dim=48,
                     planted_traits=(PlantedTrait("speaker_id", "cluster", 1.0),),
                     noise_sigma=0.05, seed=7, spoof_fraction=0.0)
    manifest, table = gen_dataset(spec)
    assert _probe_accuracy(manifest, table, "speaker_id", seed=3, hidden=64, epochs=15) > 0.90


def test_regression_target_noiseless_linear():
    spec = SynthSpec(n_speakers=10, utts_per_speaker=10, dim=16,
                     planted_traits=(PlantedTrait("pitch_proxy", "linear_subspace", 1.0),),
                     noise_sigma=0.0, seed=4, spoof_fraction=0.0)
    manifest, table = gen_dataset(spec)
    values = gen_regression_target(spec, "pitch_proxy", table)
    direction = trait_direction(spec, "pitch_proxy")
    for utt, vec in zip(table.ids, table.matrix):
        assert np.isclose(values[utt], float(vec @ direction))  # strength 1, no noise


def test_regression_target_not_planted():
    spec = SynthSpec(n_speakers=4, utts_per_speaker=4, dim=8, seed=0)
    _, table = gen_dataset(spec)
    with pytest.raises(ValueError, match="not planted"):
        gen_regression_target(spec, "pitch_proxy", table)


def test_regression_orthogonal_direction_no_signal():
    spec = SynthSpec(n_speakers=10, utts_per_speaker=10, dim=16,
                     planted_traits=(PlantedTrait("pitch_proxy", "linear_subspace", 1.0),),
                     noise_sigma=0.1, seed=5, spoof_fraction=0.0)
    manifest, table = gen_dataset(spec)
    direction = trait_direction(spec, "pitch_proxy")
    # remove every trace of the planted direction from the embeddings
    projected = [vec - (vec @ direction) * direction for vec in table.matrix]
    flat_table = EmbeddingTable(ids=table.ids, matrix=np.array(projected))
    values = gen_regression_target(spec, "pitch_proxy", flat_table)
    train_ids, eval_ids = partition(manifest, "T01", 0.9, seed=5)
    task = TraitTask.regression("pitch_proxy", values)
    ds_tr = assemble(manifest, flat_table, task, train_ids, "train")
    ds_ev = assemble(manifest, flat_table, task, eval_ids, "eval")
    probe = init_probe(16, 32, 1, "regression", seed=5)
    probe, _ = train(probe, ds_tr, TrainConfig(epochs=10, seed=5))
    assert r_squared(predict(probe, ds_ev.X), ds_ev.y) < 0.3


def test_gen_tone_basics():
    w = gen_tone(220.0, 1.0)
    assert w.sample_rate == 16000
    assert len(w.samples) == 16000
    assert w.samples[0] == 0.0  # phase 0 start
    silent = gen_tone(220.0, 0.5, amplitude=0.0)
    assert not silent.samples.any()
    with pytest.raises(ValueError, match="Nyquist"):
        gen_tone(8000.0, 1.0, sr=16000)
    with pytest.raises(ValueError):
        gen_tone(-10.0, 1.0)


def test_gen_scores_separation_monotone():
    eers = []
    for sep in (0.5, 2.0, 4.0):
        rows = gen_scores(500, 500, sep, seed=11)
        pos = [r.score for r in rows if r.is_bonafide]
        neg = [r.score for r in rows if not r.is_bonafide]
        eers.append(eer(pos, neg).eer)
    assert eers[0] > eers[1] > eers[2]


def test_gender_ablation_pair_structure():
    manifest, encoder, table = gen_gender_ablation_pair(n_speakers=6, seed=2)
    assert set(encoder) == {r.utt_id for r in manifest.rows}
    assert table.ids == tuple(r.utt_id for r in manifest.rows)
    genders = {r.gender for r in manifest.rows}
    assert genders == {"female", "male"}


def test_planted_values_stable_stream():
    spec = SynthSpec(n_speakers=3, utts_per_speaker=4, dim=8,
                     planted_traits=(PlantedTrait("x", "linear_subspace", 1.0),), seed=9)
    assert np.array_equal(planted_values(spec, "x"), planted_values(spec, "x"))
