"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import yaml

from embprobe.cli import main as cli_main
from embprobe.data_model import (EmbeddingTable, Manifest, TraitTask, assemble,
                                 load_embeddings, load_manifest, partition,
                                 trait_label, write_embeddings, write_manifest)
from embprobe.distance_analysis import (bonafide_spoof_pairing,
                                        cosine_similarity, itakura_saito,
                                        read_frames, summarize_by_gender,
                                        write_frames)
from embprobe.metrics import eer, permutation_p_value, r_squared
from embprobe.perturbation import (read_score_file, speed_perturb,
                                   write_score_file)
from embprobe.probe_net import (TrainConfig, backward, cross_entropy, forward,
                                init_probe, load_probe, mse, predict,
                                save_probe, train)
from embprobe.rng import make_rng
from embprobe.synth import (PlantedTrait, SynthSpec, gen_dataset,
                            gen_gender_ablation_pair, gen_regression_target,
                            gen_scores, gen_tone)
from embprobe.trait_extract import f0_mean

from conftest import make_row
from test_metrics import brute_force_eer


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} FAIL - {desc}")
        raise
    print(f"\n[acceptance] criterion {num:02d} PASS - {desc}")


def _loss(probe, X, y):
    out = forward(probe, X)
    if probe.task_kind == "classification":
        return cross_entropy(out, y)
    return mse(out.reshape(-1), y)


def test_criterion_01_gradient_correctness():
    with criterion(1, "analytic gradients match central finite differences"):
        start = time.time()
        step = 1e-5
        rng = make_rng(101, "acceptance-grad")
        for trial in range(50):
            kind = "classification" if trial % 2 == 0 else "regression"
            d_in = int(rng.integers(2, 9))
            d_h = int(rng.integers(2, 9))
            d_out = 1 if kind == "regression" else int(rng.integers(2, 7))
            n = int(rng.integers(1, 5))
            probe = init_probe(d_in, d_h, d_out, kind, seed=int(rng.integers(0, 1 << 30)),
                               dtype=np.float64)
            for param in probe.views(probe.theta).values():
                param += 0.1 * rng.normal(size=param.shape)  # keep rectifiers off exact kinks
            X = rng.normal(size=(n, d_in))
            y = (rng.integers(0, d_out, size=n) if kind == "classification"
                 else rng.normal(size=n))
            analytic = probe.views(backward(probe, X, y).flat)
            for name, param in probe.views(probe.theta).items():
                flat = param.reshape(-1)
                a_flat = analytic[name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    hi = _loss(probe, X, y)
                    flat[i] = orig - step
                    lo = _loss(probe, X, y)
                    flat[i] = orig
                    fd = (hi - lo) / (2.0 * step)
                    denom = max(abs(fd), abs(a_flat[i]), 1e-6)
                    assert abs(fd - a_flat[i]) / denom <= 1e-4, \
                        f"trial {trial} {name}[{i}]: fd={fd} analytic={a_flat[i]}"
        elapsed = time.time() - start
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def _two_class_spec(seed, strength):
    return SynthSpec(n_speakers=100, utts_per_speaker=20, dim=160,
                     planted_traits=(PlantedTrait("gender", "cluster", strength),),
                     noise_sigma=0.01, seed=seed, spoof_fraction=0.0)


def _train_eval_accuracy(spec, seed):
    manifest, table = gen_dataset(spec)
    train_ids, eval_ids = partition(manifest, "T01", 0.9, seed=seed)
    task = TraitTask.classification(manifest, "gender")
    ds_tr = assemble(manifest, table, task, train_ids, "train")
    ds_ev = assemble(manifest, table, task, eval_ids, "eval")
    probe = init_probe(spec.dim, 256, 2, "classification", seed=seed)
    probe, _ = train(probe, ds_tr, TrainConfig(seed=seed))
    preds = predict(probe, ds_ev.X)
    return int(np.sum(preds == ds_ev.y)), len(ds_ev)


def test_criterion_02_probing_recoverability():
    with criterion(2, "planted 2-class trait recovered; zero strength at chance"):
        start = time.time()
        hits, n = _train_eval_accuracy(_two_class_spec(7, 1.0), seed=7)
        assert hits / n >= 0.95, f"strength-1 accuracy {hits / n:.3f}"
        total_hits = 0
        total_n = 0
        for seed in range(20):
            hits, n = _train_eval_accuracy(_two_class_spec(1000 + seed, 0.0), seed=seed)
            total_hits += hits
            total_n += n
        pooled = total_hits / total_n
        band = 2.576 * math.sqrt(0.25 / total_n)  # 99% binomial band around 0.5
        assert abs(pooled - 0.5) <= band, f"pooled chance accuracy {pooled:.4f}, band {band:.4f}"
        elapsed = time.time() - start
        assert elapsed < 120.0, f"recoverability check took {elapsed:.1f}s"


def test_criterion_03_regression_recoverability():
    with criterion(3, "noiseless linear target recovered; shuffled target not significant"):
        spec = SynthSpec(n_speakers=100, utts_per_speaker=20, dim=160,
                         planted_traits=(PlantedTrait("value", "linear_subspace", 1.0),),
                         noise_sigma=0.0, seed=31, spoof_fraction=0.0)
        manifest, table = gen_dataset(spec)
        values = gen_regression_target(spec, "value", table)
        train_ids, eval_ids = partition(manifest, "T01", 0.9, seed=3)
        task = TraitTask.regression("value", values)
        ds_tr = assemble(manifest, table, task, train_ids, "train")
        ds_ev = assemble(manifest, table, task, eval_ids, "eval")
        probe = init_probe(160, 256, 1, "regression", seed=5)
        probe, _ = train(probe, ds_tr, TrainConfig(seed=7))
        preds = predict(probe, ds_ev.X)
        r2 = r_squared(preds, ds_ev.y)
        p = permutation_p_value(preds, ds_ev.y, n_perm=999, seed=9)
        assert r2 >= 0.99, f"noiseless R^2 {r2:.4f}"
        assert p <= 0.001, f"noiseless p {p}"
        insignificant = 0
        for trial in range(20):
            shuffled = make_rng(50, "shuffle-target", trial).permutation(ds_ev.y)
            p_null = permutation_p_value(preds, shuffled, n_perm=999, seed=trial)
            if p_null >= 0.05:
                insignificant += 1
        assert insignificant >= 18, f"only {insignificant}/20 shuffled trials had p >= 0.05"


def test_criterion_04_formula_checks():
    with criterion(4, "closed-form hand values for IS, R^2, CE, cosine"):
        P = np.array([[2.0], [2.0]])
        Q = np.array([[1.0], [1.0]])
        assert itakura_saito(P, P) == 0.0
        assert abs(itakura_saito(P, Q) - 0.306853) < 1e-6
        assert abs(itakura_saito(Q, P) - 0.193147) < 1e-6
        rng = make_rng(104, "is-nonneg")
        for _ in range(10_000):
            A = np.exp(rng.normal(size=(2, 3)))
            B = np.exp(rng.normal(size=(2, 3)))
            assert itakura_saito(A, B) >= 0.0
        assert abs(r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) - 0.5) < 1e-12
        assert abs(cross_entropy(np.array([[0.0, 0.0]]), [0]) - math.log(2.0)) < 1e-9
        assert abs(cosine_similarity([1.0, 1.0], [1.0, 0.0]) - 0.707107) < 1e-6


def test_criterion_05_eer_against_oracle():
    with criterion(5, "EER matches the brute-force threshold sweep"):
        assert eer([0.9, 0.8, 0.7], [0.3, 0.2, 0.1]).eer == 0.0
        same = [0.2, 0.5, 0.5, 0.8]
        assert eer(same, same).eer == 0.5
        rng = make_rng(105, "eer-sets")
        for trial in range(1000):
            n_p = int(rng.integers(2, 50))
            n_n = int(rng.integers(2, 50))
            pos = rng.normal(0.3, 1.0, n_p)
            neg = rng.normal(-0.3, 1.0, n_n)
            if trial % 4 == 0:
                pos = np.round(pos, 1)
                neg = np.round(neg, 1)
            got = eer(pos, neg).eer
            want = brute_force_eer(pos, neg)
            assert abs(got - want) <= 1e-9, f"trial {trial}: {got} vs {want}"


def test_criterion_06_f0_recovery_and_pitch_scaling():
    with criterion(6, "pure-tone F0 within 1 Hz; perturbation scales F0 by the rate"):
        rng = make_rng(106, "tones")
        for freq in np.sort(rng.uniform(80.0, 400.0, 20)):
            est = f0_mean(gen_tone(float(freq), 1.0))
            assert abs(est - freq) <= 1.0, f"{freq:.2f} Hz -> {est:.2f} Hz"
        base = gen_tone(200.0, 1.0)
        for rate in (0.8, 0.9, 1.1, 1.2):
            est = f0_mean(speed_perturb(base, rate))
            target = 200.0 * rate
            assert abs(est - target) / target <= 0.01, f"rate {rate}: {est:.2f} Hz"


def _random_manifest(rng):
    rows = []
    n_spk = int(rng.integers(2, 7))
    attacks = [f"A{7 + i:02d}" for i in range(int(rng.integers(0, 4)))]
    for s in range(n_spk):
        speaker = f"R{s:02d}"
        gender = "female" if s % 2 == 0 else "male"
        for u in range(int(rng.integers(1, 6))):
            rows.append(make_row(f"{speaker}_B{u}", speaker=speaker, gender=gender,
                                 age=18 + s))
    for i, attack in enumerate(attacks):
        for u in range(int(rng.integers(1, 5))):
            s = int(rng.integers(0, n_spk))
            rows.append(make_row(f"SP{i}_{u}", speaker=f"R{s:02d}",
                                 gender="female" if s % 2 == 0 else "male",
                                 age=18 + s, bonafide=False, attack_id=attack,
                                 attack_type="TTS" if i % 2 == 0 else "VC"))
    return Manifest(rows=tuple(rows))


def test_criterion_07_partition_invariants():
    with criterion(7, "partition invariants over 1000 randomized manifests"):
        rng = make_rng(107, "manifests")
        for trial in range(1000):
            manifest = _random_manifest(rng)
            seed = int(rng.integers(0, 1 << 30))
            bona_speakers = {r.speaker_id for r in manifest.bonafide()}

            t2a = partition(manifest, "T02", 0.9, seed)
            assert t2a == partition(manifest, "T02", 0.9, seed)
            spk = lambda ids: {next(r.speaker_id for r in manifest.rows if r.utt_id == u)
                               for u in ids}
            train_spk, eval_spk = spk(t2a[0]), spk(t2a[1])
            assert train_spk & eval_spk == set()
            assert train_spk | eval_spk == bona_speakers

            t1a = partition(manifest, "T01", 0.9, seed)
            assert t1a == partition(manifest, "T01", 0.9, seed)

            class_sizes = {}
            for row in manifest.rows:
                cls = trait_label(row, "attack_id")
                class_sizes[cls] = class_sizes.get(cls, 0) + 1
            feasible = all(v >= 2 for v in class_sizes.values())
            if feasible:
                t3a = partition(manifest, "T03", 0.9, seed)
                assert t3a == partition(manifest, "T03", 0.9, seed)
                rows = manifest.row_map()
                for ids in t3a:
                    covered = {trait_label(rows[u], "attack_id") for u in ids}
                    assert covered == set(class_sizes)
            else:
                try:
                    partition(manifest, "T03", 0.9, seed)
                    raise AssertionError("expected T03 infeasible error")
                except ValueError as exc:
                    assert "T03 infeasible" in str(exc)


def test_criterion_08_gender_ablation_overlap():
    with criterion(8, "gender distributions converge at the embedding level"):
        manifest, encoder, table = gen_gender_ablation_pair(n_speakers=24, seed=8)
        rec_enc, _ = bonafide_spoof_pairing(manifest, encoder, "encoder_spectral")
        rec_emb, _ = bonafide_spoof_pairing(manifest, table.row, "embedding")
        f_enc, _ = summarize_by_gender(rec_enc)
        f_emb, _ = summarize_by_gender(rec_emb)
        assert f_emb.overlap_with_peer > f_enc.overlap_with_peer, \
            f"embedding {f_emb.overlap_with_peer:.3f} <= encoder {f_enc.overlap_with_peer:.3f}"
        assert f_enc.overlap_with_peer < 0.2


PIPELINE_CONFIG = {
    "seed": 90909,
    "manifest": "manifest.csv",
    "embeddings": {"cm": "emb/cm.emb"},
    "traits_csv": "traits.csv",
    "partition": {"train_fraction": 0.9},
    "train": {"epochs": 10, "hidden_dim": 32, "decay_every": 8},
    "metrics": {"n_boot": 300, "n_perm": 199},
    "tasks": [
        {"trait": "gender", "kind": "classification", "scheme": "T02"},
        {"trait": "f0_mean", "kind": "regression", "scheme": "T02"},
    ],
    "distance": {"system": "cm", "kinds": ["embedding", "encoder_spectral"],
                 "chunk_seconds": 1.0, "bins": 30},
    "sweep": {"rates": [0.8, 0.9, 1.0, 1.1, 1.2], "score_dir": "scores"},
    "synth": {
        "n_speakers": 12, "utts_per_speaker": 8, "dim": 24,
        "noise_sigma": 0.05, "spoof_fraction": 0.5,
        "planted": [
            {"trait": "gender", "kind": "cluster", "strength": 1.0},
            {"trait": "f0_mean", "kind": "linear_subspace", "strength": 1.0},
        ],
        "audio": {"dir": "audio", "duration_s": 0.5, "sr": 16000,
                  "freq_trait": "f0_mean", "freq_base": 200.0, "freq_scale": 25.0},
        "scores": {"dir": "scores", "rates": [0.8, 0.9, 1.0, 1.1, 1.2],
                   "n_bonafide": 60, "n_spoof": 60,
                   "base_separation": 4.0, "decay": 8.0},
    },
}


def test_criterion_09_pipeline_determinism(tmp_path):
    with criterion(9, "two identical pipeline runs emit byte-identical artifacts"):
        outdir = tmp_path / "run"
        cfg = dict(PIPELINE_CONFIG, outdir=str(outdir))
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        commands = ("synth", "partition", "traits", "probe", "distance", "sweep", "report")

        def run_all():
            for cmd in commands:
                assert cli_main([cmd, "--config", str(cfg_path)]) == 0, cmd

        run_all()
        watched = [outdir / "report.json"] + sorted((outdir / "charts").glob("*.svg")) \
            + [outdir / "sweep_eer.svg"]
        assert len(watched) >= 5
        first = {p: p.read_bytes() for p in watched}
        run_all()
        for path, before in first.items():
            assert path.read_bytes() == before, f"{path.name} changed between runs"


def test_criterion_10_format_roundtrips(tmp_path, rng):
    with criterion(10, "all file formats survive write-read-write byte-identically"):
        # EMB1
        table = EmbeddingTable(ids=tuple(f"U{i}" for i in range(6)),
                               matrix=rng.normal(size=(6, 16)))
        a, b = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embeddings(table, a)
        write_embeddings(load_embeddings(a), b)
        assert a.read_bytes() == b.read_bytes()
        # FRM1
        frames = np.exp(rng.normal(size=(9, 5)))
        a, b = tmp_path / "a.frm", tmp_path / "b.frm"
        write_frames(frames, a)
        write_frames(read_frames(a), b)
        assert a.read_bytes() == b.read_bytes()
        # PRB1
        probe = init_probe(8, 6, 3, "classification", seed=1)
        probe.classes = ("x", "y", "z")
        a, b = tmp_path / "a.prb", tmp_path / "b.prb"
        save_probe(probe, a)
        save_probe(load_probe(a), b)
        assert a.read_bytes() == b.read_bytes()
        # manifest CSV and JSONL
        manifest = Manifest(rows=(
            make_row("U1", transcript="hello, world"),
            make_row("U2", speaker="S2", gender="male", bonafide=False,
                     attack_id="A07", attack_type="TTS", audio_path="x.wav"),
        ))
        for suffix in ("csv", "jsonl"):
            a, b = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
            write_manifest(manifest, a)
            write_manifest(load_manifest(a), b)
            assert a.read_bytes() == b.read_bytes()
        # score files
        rows = gen_scores(8, 8, 1.5, seed=2)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_score_file(rows, a)
        write_score_file(read_score_file(a), b)
        assert a.read_bytes() == b.read_bytes()
