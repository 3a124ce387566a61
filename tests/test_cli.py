import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

from embprobe.cli import (REPORT_SCHEMA, check_config_keys, cmd_perturb,
                          config_fingerprint, main, resolve_config, validate_task)
from embprobe.data_model import load_embeddings, load_manifest
from embprobe.distance_analysis import write_frames
from embprobe.trait_extract import read_trait_csv, read_wav


def pipeline_config(outdir):
    return {
        "seed": 424242,
        "outdir": str(outdir),
        "manifest": "manifest.csv",
        "embeddings": {"cm": "emb/cm.emb"},
        "traits_csv": "traits.csv",
        "partition": {"train_fraction": 0.9},
        "train": {"epochs": 40, "hidden_dim": 48, "decay_every": 20},
        "metrics": {"n_boot": 300, "n_perm": 199},
        "tasks": [
            {"trait": "gender", "kind": "classification", "scheme": "T02"},
            {"trait": "attack_id", "kind": "classification", "scheme": "T03"},
            {"trait": "f0_mean", "kind": "regression", "scheme": "T02"},
        ],
        "distance": {"system": "cm", "kinds": ["embedding", "encoder_spectral"],
                     "chunk_seconds": 1.0, "bins": 30},
        "perturb": {"rates": [1.0, 1.1], "audio_outdir": "perturbed"},
        "sweep": {"rates": [0.8, 0.9, 1.0, 1.1, 1.2], "score_dir": "scores"},
        "synth": {
            "n_speakers": 12,
            "utts_per_speaker": 16,
            "dim": 24,
            "noise_sigma": 0.05,
            "spoof_fraction": 0.5,
            "planted": [
                {"trait": "gender", "kind": "cluster", "strength": 1.0},
                {"trait": "attack_id", "kind": "cluster", "strength": 1.0},
                {"trait": "f0_mean", "kind": "linear_subspace", "strength": 1.0},
            ],
            "audio": {"dir": "audio", "duration_s": 0.5, "sr": 16000,
                      "freq_trait": "f0_mean", "freq_base": 200.0, "freq_scale": 25.0},
            "scores": {"dir": "scores", "rates": [0.8, 0.9, 1.0, 1.1, 1.2],
                       "n_bonafide": 80, "n_spoof": 80,
                       "base_separation": 4.0, "decay": 8.0},
        },
    }


def write_config(tmp_path, cfg):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(cmd, cfg_path, extra=()):
    return main([cmd, "--config", cfg_path, *extra])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline run shared by the read-only assertions below."""
    outdir = tmp_path_factory.mktemp("run")
    cfg = pipeline_config(outdir)
    cfg_path = write_config(outdir, cfg)
    for cmd in ("synth", "partition", "traits", "probe", "distance", "sweep", "report"):
        assert run(cmd, cfg_path) == 0, cmd
    return outdir, cfg, cfg_path


def test_synth_emits_loadable_corpus(pipeline):
    outdir, _, _ = pipeline
    manifest = load_manifest(outdir / "manifest.csv")
    table = load_embeddings(outdir / "emb" / "cm.emb")
    assert len(manifest) == 192
    assert table.dim == 24
    assert set(table.entries) == {r.utt_id for r in manifest.rows}
    assert all(r.audio_path for r in manifest.rows)


def test_partition_outputs(pipeline):
    outdir, _, _ = pipeline
    t02 = json.loads((outdir / "splits" / "T02.json").read_text())
    train_spk = {u.rsplit("_", 1)[0] for u in t02["train"]}
    eval_spk = {u.rsplit("_", 1)[0] for u in t02["eval"]}
    assert train_spk & eval_spk == set()
    t03 = json.loads((outdir / "splits" / "T03.json").read_text())
    assert set(t03["train"]) & set(t03["eval"]) == set()


def test_traits_cover_manifest(pipeline):
    outdir, _, _ = pipeline
    manifest = load_manifest(outdir / "manifest.csv")
    traits = read_trait_csv(outdir / "traits.csv")
    assert set(traits) == {r.utt_id for r in manifest.rows}
    assert all(tv.duration is not None for tv in traits.values())
    assert all(tv.f0_mean is not None for tv in traits.values())  # tones are voiced


def test_probe_report_structure(pipeline):
    outdir, _, _ = pipeline
    report = json.loads((outdir / "probe_report.json").read_text())
    assert len(report["tasks"]) == 3
    by_trait = {t["trait"]: t for t in report["tasks"]}
    assert by_trait["gender"]["status"] == "ok"
    gm = by_trait["gender"]["metrics"]
    assert gm["ci_low"] <= gm["accuracy"] <= gm["ci_high"]
    assert gm["accuracy"] >= 0.95  # planted at strength 1
    am = by_trait["attack_id"]["metrics"]
    assert am["accuracy"] >= 0.90
    assert len(am["confusion"]) == 5  # 4 attacks + bonafide
    rm = by_trait["f0_mean"]["metrics"]
    assert rm["r_squared"] >= 0.8
    assert rm["p_value"] <= 0.01
    assert (outdir / "probes" / "cm_gender_T02.prb").exists()
    assert (outdir / "charts" / "classification_accuracy.svg").exists()
    assert (outdir / "charts" / "regression_r2.svg").exists()


def test_distance_outputs(pipeline):
    outdir, _, _ = pipeline
    summary = json.loads((outdir / "distance_summary.json").read_text())
    for kind in ("embedding", "encoder_spectral"):
        assert summary[kind]["female"]["count"] > 0
        assert 0.0 <= summary[kind]["female"]["overlap_with_peer"] <= 1.0
        csv_path = outdir / f"distance_records_{kind}.csv"
        n_rows = len(csv_path.read_text().splitlines()) - 1
        assert n_rows == summary[kind]["female"]["count"] + summary[kind]["male"]["count"]
        assert (outdir / "charts" / f"distance_{kind}.svg").exists()


def test_sweep_outputs(pipeline):
    outdir, _, _ = pipeline
    sweep = json.loads((outdir / "sweep_eer.json").read_text())
    assert set(sweep) == {"0.8", "0.9", "1", "1.1", "1.2"}
    assert sweep["1"]["eer"] < sweep["0.8"]["eer"]
    assert sweep["1"]["eer"] < sweep["1.2"]["eer"]
    table = (outdir / "sweep_eer.csv").read_text().splitlines()
    assert len(table) == 6  # header + one row per rate


def test_report_merges_sections(pipeline):
    outdir, cfg, _ = pipeline
    report = json.loads((outdir / "report.json").read_text())
    assert report["version"] == 1
    assert report["tasks"] is not None
    assert report["distance"] is not None
    assert report["sweep"] is not None
    assert report["config_fingerprint"] == config_fingerprint(resolve_config(cfg))


def test_report_validates_against_schema(pipeline):
    outdir, _, _ = pipeline
    report = json.loads((outdir / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)


def test_probe_parallel_jobs_identical_report(pipeline):
    outdir, _, cfg_path = pipeline
    before = (outdir / "probe_report.json").read_bytes()
    assert run("probe", cfg_path, extra=("--jobs", "3")) == 0
    assert (outdir / "probe_report.json").read_bytes() == before


def test_rerun_report_idempotent(pipeline):
    outdir, _, cfg_path = pipeline
    before = (outdir / "report.json").read_bytes()
    assert run("report", cfg_path) == 0
    assert (outdir / "report.json").read_bytes() == before


def test_perturb_tree(pipeline):
    outdir, _, cfg_path = pipeline
    assert run("perturb", cfg_path) == 0
    manifest = load_manifest(outdir / "manifest.csv")
    row = manifest.rows[0]
    original = (outdir / row.audio_path).read_bytes()
    copied = (outdir / "perturbed" / "r1" / f"{row.utt_id}.wav").read_bytes()
    assert copied == original  # rate 1.0 re-encodes to identical bytes
    shifted = read_wav(outdir / "perturbed" / "r1.1" / f"{row.utt_id}.wav")
    source = read_wav(outdir / row.audio_path)
    assert abs(len(shifted.samples) * 1.1 - len(source.samples)) <= 1.0 + 1e-9


def test_probe_failure_sets_exit_code(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["tasks"] = [{"trait": "gender", "kind": "classification", "scheme": "T02"}]
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    # no partition step: probe task cannot find its split file
    assert run("probe", cfg_path) == 1
    failures = json.loads((outdir / "failures.json").read_text())
    assert failures["failures"][0]["status"] == "failed"
    assert "split file missing" in failures["failures"][0]["error"]


def test_unknown_config_section_errors(tmp_path):
    cfg_path = write_config(tmp_path, {"outdir": str(tmp_path / "o")})
    assert run("distance", cfg_path) == 1
    assert run("sweep", cfg_path) == 1


@pytest.mark.parametrize("typo, path", [
    ({"distnce": {"system": "cm"}}, "distnce"),
    ({"train": {"epoch": 1}}, "train.epoch"),
    ({"metrics": {"nboot": 10}}, "metrics.nboot"),
    ({"partition": {"train_frac": 0.5}}, "partition.train_frac"),
])
def test_config_typo_fails_before_any_work(tmp_path, typo, path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg.update({key: {**cfg.get(key, {}), **value} for key, value in typo.items()})
    with pytest.raises(ValueError, match=rf"unknown config key '{path}'"):
        check_config_keys(resolve_config(cfg))
    assert run("synth", write_config(tmp_path, cfg)) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert f"unknown config key '{path}'" in error
    assert sorted(p.name for p in outdir.iterdir()) == ["failures.json"]


def test_sweep_bad_rate_fails_before_reading_scores(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["sweep"]["rates"] = [1.0, 2.5]
    cfg_path = write_config(tmp_path, cfg)
    assert run("sweep", cfg_path) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert "rate 2.5 outside" in error
    assert not (outdir / "sweep_eer.csv").exists()


def test_manifest_in_subdirectory_resolves_audio(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["manifest"] = "data/manifest.csv"
    cfg["synth"].update(n_speakers=2, utts_per_speaker=4)
    cfg["distance"]["kinds"] = ["encoder_spectral"]
    cfg["perturb"]["rates"] = [1.1]
    cfg_path = write_config(tmp_path, cfg)
    for cmd in ("synth", "traits", "distance", "perturb"):
        assert run(cmd, cfg_path) == 0, cmd
    manifest = load_manifest(outdir / "data" / "manifest.csv")
    assert {r.audio_path for r in manifest.rows} == {
        f"../audio/{r.utt_id}.wav" for r in manifest.rows}
    traits = read_trait_csv(outdir / "traits.csv")
    assert all(tv.f0_mean is not None for tv in traits.values())
    assert len(list((outdir / "perturbed" / "r1.1").glob("*.wav"))) == len(manifest.rows)


def test_default_layout_audio_paths_unchanged(pipeline):
    outdir, _, _ = pipeline
    manifest = load_manifest(outdir / "manifest.csv")
    assert all(r.audio_path == f"audio/{r.utt_id}.wav" for r in manifest.rows)


def test_validate_task_rules():
    validate_task({"trait": "gender", "kind": "classification", "scheme": "T02"})
    validate_task({"trait": "attack_type", "kind": "classification", "scheme": "T03"})
    validate_task({"trait": "snr", "kind": "regression", "scheme": "T01"})
    with pytest.raises(ValueError, match="attack traits require"):
        validate_task({"trait": "attack_id", "kind": "classification", "scheme": "T02"})
    with pytest.raises(ValueError, match="speaker traits require"):
        validate_task({"trait": "gender", "kind": "classification", "scheme": "T03"})
    with pytest.raises(ValueError, match="categorical"):
        validate_task({"trait": "age", "kind": "regression", "scheme": "T02"})
    with pytest.raises(ValueError, match="unknown scheme"):
        validate_task({"trait": "gender", "kind": "classification", "scheme": "T9"})
    with pytest.raises(ValueError, match="classification target"):
        validate_task({"trait": "gender", "kind": "regression", "scheme": "T02"})


def test_fingerprint_changes_iff_config_changes(tmp_path):
    cfg = pipeline_config(tmp_path / "o")
    a = config_fingerprint(resolve_config(cfg))
    assert a == config_fingerprint(resolve_config(json.loads(json.dumps(cfg))))
    cfg2 = json.loads(json.dumps(cfg))
    cfg2["train"]["epochs"] = 9
    assert config_fingerprint(resolve_config(cfg2)) != a


def test_seed_override_changes_outputs(tmp_path):
    cfg = pipeline_config(tmp_path / "o")
    base = resolve_config(cfg)
    assert resolve_config(cfg, seed=7)["seed"] == 7
    assert base["seed"] == 424242


def test_synth_multiple_systems_with_overrides(tmp_path):
    outdir = tmp_path / "o"
    cfg = pipeline_config(outdir)
    cfg["embeddings"] = {"asv": "emb/asv.emb", "cm": "emb/cm.emb"}
    cfg["synth"]["systems"] = {
        "asv": {"dim": 40, "seed": 1},
        "cm": {"dim": 24, "seed": 2},
    }
    cfg["synth"].pop("audio")
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    asv = load_embeddings(outdir / "emb" / "asv.emb")
    cm = load_embeddings(outdir / "emb" / "cm.emb")
    assert asv.dim == 40
    assert cm.dim == 24
    assert set(asv.entries) == set(cm.entries)


def test_perturb_bad_rate_fails_before_any_audio(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["synth"].update(n_speakers=2, utts_per_speaker=4)
    cfg["perturb"]["rates"] = [0.8, 2.5]
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    with pytest.raises(ValueError, match=r"rate 2\.5 outside"):
        cmd_perturb(resolve_config(cfg))
    assert run("perturb", cfg_path) == 1
    failures = json.loads((outdir / "failures.json").read_text())
    assert "rate 2.5" in failures["failures"][0]["error"]
    assert not (outdir / "perturbed").exists()


def test_successful_rerun_removes_failures_file(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["synth"].update(n_speakers=4, utts_per_speaker=4)
    cfg["synth"].pop("audio")
    cfg["tasks"] = [{"trait": "gender", "kind": "classification", "scheme": "T02"}]
    cfg["train"]["epochs"] = 2
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    assert run("probe", cfg_path) == 1  # no split file yet
    assert (outdir / "failures.json").exists()
    assert run("partition", cfg_path) == 0
    assert run("probe", cfg_path) == 0
    assert not (outdir / "failures.json").exists()


def _small_distance_run(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["synth"].update(n_speakers=4, utts_per_speaker=6)
    cfg["tasks"] = []
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    return outdir, cfg, cfg_path


def test_distance_corrupt_wav_fails_before_any_record(tmp_path):
    outdir, _, cfg_path = _small_distance_run(tmp_path)
    manifest = load_manifest(outdir / "manifest.csv")
    speakers = sorted({r.speaker_id for r in manifest.rows})
    victim = next(r for r in manifest.rows
                  if r.speaker_id == speakers[2] and not r.is_bonafide)
    (outdir / victim.audio_path).write_bytes(b"not a wav file")
    assert run("distance", cfg_path) == 1
    assert not list(outdir.glob("distance_records_*.csv"))
    assert not (outdir / "distance_summary.json").exists()
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert f"{victim.utt_id}.wav" in error and "not a RIFF/WAVE file" in error


@pytest.mark.parametrize("defect", ["frame count", "zero entry"])
def test_distance_frm1_pairing_error_names_utterances_and_files(tmp_path, defect):
    outdir, cfg, _ = _small_distance_run(tmp_path)
    cfg["distance"].update(kinds=["encoder_spectral"], features_dir="frm")
    cfg_path = write_config(tmp_path, cfg)
    manifest = load_manifest(outdir / "manifest.csv")
    rng = np.random.Generator(np.random.PCG64(3))
    for row in manifest.rows:
        write_frames(np.exp(rng.normal(size=(6, 5))), outdir / "frm" / f"{row.utt_id}.frm")
    spoof = next(r for r in manifest.rows if not r.is_bonafide)
    bona = next(r for r in manifest.rows
                if r.is_bonafide and r.speaker_id == spoof.speaker_id)
    frames = np.ones((7, 5)) if defect == "frame count" else np.zeros((6, 5))
    write_frames(frames, outdir / "frm" / f"{spoof.utt_id}.frm")
    assert run("distance", cfg_path) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert f"bonafide {bona.utt_id!r} ({outdir / 'frm' / bona.utt_id}.frm)" in error
    assert f"spoof {spoof.utt_id!r} ({outdir / 'frm' / spoof.utt_id}.frm)" in error
    assert ("shape mismatch" if defect == "frame count" else "non-positive") in error
    assert not list(outdir.glob("distance_records_*.csv"))


def test_cli_import_loads_neither_yaml_nor_thread_pool():
    import embprobe
    src = str(Path(embprobe.__file__).resolve().parents[1])
    code = ("import sys, embprobe.cli; "
            "print([m for m in ('yaml', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_probe_outputs_independent_of_jobs_and_blas_threads(tmp_path):
    """probe_report.json and every .prb file are byte-identical with one or two
    task workers, and with BLAS single-threaded or left at its default."""
    import embprobe
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    # dim 48 x hidden 256 makes the layer products large enough for BLAS to
    # split them over threads when it may
    cfg["synth"].update(n_speakers=6, utts_per_speaker=6, dim=48)
    cfg["synth"].pop("audio")
    cfg["tasks"] = [{"trait": "gender", "kind": "classification", "scheme": "T02"},
                    {"trait": "attack_id", "kind": "classification", "scheme": "T03"}]
    cfg["train"] = {"epochs": 3, "hidden_dim": 256}
    cfg["metrics"] = {"n_boot": 100, "n_perm": 100}
    cfg_path = write_config(tmp_path, cfg)
    for cmd in ("synth", "partition"):
        assert run(cmd, cfg_path) == 0, cmd
    src = str(Path(embprobe.__file__).resolve().parents[1])
    outputs = set()
    for jobs in ("1", "2"):
        for blas in ("1", None):
            env = dict(os.environ, PYTHONPATH=src)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            subprocess.run([sys.executable, "-m", "embprobe.cli", "probe", "--config", cfg_path,
                            "--jobs", jobs], check=True, env=env, timeout=300)
            probes = sorted((outdir / "probes").glob("*.prb"))
            assert len(probes) == 2
            outputs.add(((outdir / "probe_report.json").read_bytes(),
                         tuple((p.name, p.read_bytes()) for p in probes)))
    assert len(outputs) == 1
