import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from embprobe.cli import (REPORT_SCHEMA, check_config, config_fingerprint, main,
                          resolve_config, validate_task)
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
    assert table.ids == tuple(r.utt_id for r in manifest.rows)
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
    ({"distance": {"kind": ["embedding", "encoder_spectral"]}}, "distance.kind"),
    ({"perturb": {"rate": [1.1]}}, "perturb.rate"),
    ({"sweep": {"scores_dir": "scores"}}, "sweep.scores_dir"),
    ({"synth": {"n_speaker": 4}}, "synth.n_speaker"),
])
def test_config_typo_fails_before_any_work(tmp_path, typo, path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg.update({key: {**cfg.get(key, {}), **value} for key, value in typo.items()})
    with pytest.raises(ValueError, match=rf"unknown config key '{path}'"):
        check_config(resolve_config(cfg))
    assert run("synth", write_config(tmp_path, cfg)) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert f"unknown config key '{path}'" in error
    assert sorted(p.name for p in outdir.iterdir()) == ["failures.json"]


@pytest.mark.parametrize("command, section", [("perturb", "perturb"), ("sweep", "sweep"),
                                              ("synth", "synth.scores")])
@pytest.mark.parametrize("rates", [1.0, [], "0.9 1.0", [1.0, 1], [True], None],
                         ids=["scalar", "empty", "string", "duplicate", "bool", "null"])
def test_bad_rate_list_fails_before_any_work(tmp_path, command, section, rates):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    target = cfg
    for key in section.split("."):
        target = target[key]
    target["rates"] = rates
    message = f"config key '{section}.rates' must be a non-empty list of distinct numbers"
    with pytest.raises(ValueError, match=message):
        check_config(resolve_config(cfg))
    assert run(command, write_config(tmp_path, cfg)) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert error == message
    assert sorted(p.name for p in outdir.iterdir()) == ["failures.json"]


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["synth"]["audio"].update(durations=1.0), "unknown config key 'synth.audio.durations'"),
    (lambda c: c["synth"]["scores"].update(n_bonafides=5), "unknown config key 'synth.scores.n_bonafides'"),
    (lambda c: c["synth"].update(systems={"cm": {"noise": 0.1}}),
     "unknown config key 'synth.systems.cm.noise'"),
    (lambda c: c["synth"].update(systems={"cm": {"planted": [{"trait": "gender", "strenght": 1}]}}),
     r"unknown config key 'synth.systems.cm.planted\[0\].strenght'"),
    (lambda c: c["synth"]["planted"][1].update(knd="cluster"),
     r"unknown config key 'synth.planted\[1\].knd'"),
    (lambda c: c["tasks"][2].update(schem="T01"), r"unknown config key 'tasks\[2\].schem'"),
    (lambda c: c["tasks"].append("gender"), r"config key 'tasks\[3\]' must be a mapping"),
    (lambda c: c.update(distance=["embedding"]), "config key 'distance' must be a mapping"),
    (lambda c: c.update(embeddings=["emb/cm.emb"]), "config key 'embeddings' must be a mapping"),
])
def test_nested_config_typo_names_its_path(tmp_path, edit, message):
    cfg = pipeline_config(tmp_path / "out")
    edit(cfg)
    with pytest.raises(ValueError, match=message):
        check_config(resolve_config(cfg))


def test_absent_optional_sections_pass_the_key_check(tmp_path):
    cfg = pipeline_config(tmp_path / "out")
    cfg.update(distance=None, perturb=None, sweep=None, synth=None)
    check_config(resolve_config(cfg))
    cfg["synth"] = {"n_speakers": 2, "audio": None, "systems": {"cm": None}}
    check_config(resolve_config(cfg))


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


@pytest.mark.parametrize("command", ["synth", "partition", "traits", "probe", "distance",
                                     "perturb", "sweep", "report"])
@pytest.mark.parametrize("section, key, value", [
    (None, "seed", "abc"),
    (None, "seed", 7.9),
    ("train", "unit_norm", "no"),
    ("train", "initial_lr", -1.0),
    ("metrics", "n_perm", "999"),
    ("train", "epochs", "x"),
    ("train", "hidden_dim", 0),
    ("metrics", "alpha", 2.0),
    ("distance", "kinds", "embedding"),
    ("partition", "schemes", "T02"),
    ("sweep", "score_files", {"one": "scores/scores_1.txt"}),
    ("synth", "attack_ids", []),
    ("distance", "bins", 0),
    ("distance", "chunk_seconds", 0),
    ("synth.scores", "n_bonafide", 0),
    ("synth.scores", "n_spoof", 0),
    ("synth.audio", "duration_s", 0),
    ("synth.audio", "sr", 0),
], ids=lambda v: str(v))
def test_bad_config_value_fails_before_any_io(tmp_path, command, section, key, value):
    cfg = pipeline_config(tmp_path / "out")  # no manifest or other input exists
    _set(cfg, (*section.split("."), key) if section else (key,), value)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path)]) == 1
    error = json.loads((tmp_path / "out" / "failures.json").read_text())["failures"][0]["error"]
    dotted = f"{section}.{key}" if section else key
    if key == "score_files":
        dotted += ".one"
    assert error.startswith(f"config key {dotted!r}")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "out", "out/failures.json", "run.json"]


def _config_sites(node, keys=()):
    """(keys, dotted path, value) of every value in a config, and of every
    mapping whose keys are fixed (not `embeddings`, whose keys name systems)."""
    dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
    if isinstance(node, dict):
        if keys != ("embeddings",):
            yield keys, dotted, node
        for key, value in node.items():
            yield from _config_sites(value, keys + (key,))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for i, item in enumerate(node):
            yield from _config_sites(item, keys + (i,))
    else:
        yield keys, dotted, node


VALID_CONFIG = pipeline_config("out")
SITES = [(keys, dotted, value) for keys, dotted, value in _config_sites(VALID_CONFIG) if keys]
SECTIONS = [("", VALID_CONFIG)] + [(dotted, value) for _, dotted, value in SITES
                                   if isinstance(value, dict)]
LEAVES = [(keys, dotted, value) for keys, dotted, value in SITES if not isinstance(value, dict)]
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
WRONG_TYPE = {  # values of any other type than a valid value's
    int: st.one_of(st.text(), st.booleans(), st.floats(), st.lists(st.integers(), max_size=2)),
    float: st.one_of(st.text(), st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]),
                     st.lists(FLOATS, max_size=2)),
    str: st.one_of(st.integers(), st.floats(), st.booleans(), st.lists(st.text(), max_size=2)),
    bool: st.one_of(st.integers(), st.floats(), st.text()),
    list: st.one_of(st.text(), st.integers(), st.dictionaries(st.text(), st.integers())),
}
OUTSIDE_UNIT = st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1.0 + 1e-9,
                                                                allow_infinity=False))
BAD_RATES = st.lists(st.floats(max_value=0.49) | st.floats(min_value=2.01, allow_infinity=False),
                     min_size=1, max_size=3, unique=True)
OUT_OF_RANGE = {
    "train.epochs": st.integers(max_value=0),
    "train.batch_size": st.integers(max_value=0),
    "train.initial_lr": st.floats(max_value=0.0),
    "train.decay_factor": st.floats(max_value=0.0) | st.floats(min_value=1.0 + 1e-9,
                                                               allow_infinity=False),
    "train.decay_every": st.integers(max_value=0),
    "train.hidden_dim": st.integers(max_value=0),
    "metrics.n_boot": st.integers(max_value=99),
    "metrics.alpha": st.floats(max_value=0.0) | st.floats(min_value=1.0, allow_infinity=False),
    "metrics.n_perm": st.integers(max_value=99),
    "partition.train_fraction": st.floats(max_value=0.0) | st.floats(min_value=1.0,
                                                                     allow_infinity=False),
    "partition.schemes": st.lists(st.text().filter(lambda s: s not in ("T01", "T02", "T03")),
                                  min_size=1, max_size=2),
    "distance.kinds": st.lists(st.text().filter(
        lambda k: k not in ("embedding", "encoder_spectral")), min_size=1, max_size=2),
    "perturb.rates": BAD_RATES,
    "sweep.rates": BAD_RATES,
    "synth.n_speakers": st.integers(max_value=0),
    "synth.utts_per_speaker": st.integers(max_value=0),
    "synth.dim": st.integers(max_value=0),
    "synth.noise_sigma": st.floats(max_value=-1e-9),
    "synth.spoof_fraction": OUTSIDE_UNIT,
    "synth.planted[0].kind": st.text().filter(
        lambda k: k not in ("cluster", "linear_subspace", "none")),
    "synth.planted[0].strength": OUTSIDE_UNIT,
    "synth.attack_ids": st.just([]),
    "distance.bins": st.integers(max_value=0),
    "distance.chunk_seconds": st.floats(max_value=0.0),
    "synth.audio.duration_s": st.floats(max_value=0.0),
    "synth.audio.sr": st.integers(max_value=0),
    "synth.scores.n_bonafide": st.integers(max_value=0),
    "synth.scores.n_spoof": st.integers(max_value=0),
    "tasks[0]": st.just({"trait": "gender", "kind": "classification", "scheme": "T03"}),
}


def _set(cfg, keys, value):
    for key in keys[:-1]:
        cfg = cfg[key]
    cfg[keys[-1]] = value


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_check_names_the_one_bad_key(data):
    """A valid config with one key given a value of the wrong type, a value out
    of range or an unknown name fails the check, naming that key's path."""
    cfg = json.loads(json.dumps(VALID_CONFIG))
    fault = data.draw(st.sampled_from(["type", "range", "name"]))
    if fault == "name":
        path, section = data.draw(st.sampled_from(SECTIONS))
        key = data.draw(st.text(min_size=1).filter(lambda k: k not in section))
        _set(cfg, [k for k, d, _ in SITES if d == path][0] + (key,) if path else (key,), 0)
        expected = repr(f"{path}.{key}" if path else key)
    elif fault == "type":
        keys, path, value = data.draw(st.sampled_from(LEAVES))
        _set(cfg, keys, data.draw(WRONG_TYPE[type(value)]))
        expected = repr(path)
    else:
        path = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        keys = tuple(int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path))
        _set(cfg, keys, data.draw(OUT_OF_RANGE[path]))
        expected = repr(path)[:-1]  # a list item's path may follow
    with pytest.raises(ValueError) as info:
        check_config(resolve_config(cfg))
    assert expected in str(info.value)


def test_valid_configs_pass_the_check():
    check_config(resolve_config(VALID_CONFIG))
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    check_config(resolve_config(yaml.safe_load(readme.split("```yaml\n")[1].split("```")[0])))


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    cfg = {"outdir": str(tmp_path), "embeddings": {"cm": "cm.emb"},
           "synth": {"n_speakers": 10, "utts_per_speaker": 6, "dim": 16,
                     "planted": [{"trait": "gender", "kind": "cluster", "strength": 1.0}]}}
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(cfg_path)]) == 0
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    snippet = readme.split("## Library use\n")[1].split("```python\n")[1].split("```")[0]
    monkeypatch.chdir(tmp_path)  # the snippet names manifest.csv and cm.emb
    exec(compile(snippet, "README.md", "exec"), {})
    accuracy, ci_low, ci_high = map(float, capsys.readouterr().out.split())
    assert 0.0 <= ci_low <= accuracy <= ci_high <= 1.0


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
    assert asv.ids == cm.ids


def test_perturb_bad_rate_fails_before_any_audio(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["synth"].update(n_speakers=2, utts_per_speaker=4)
    assert run("synth", write_config(tmp_path, cfg)) == 0
    cfg["perturb"]["rates"] = [0.8, 2.5]
    cfg_path = write_config(tmp_path, cfg)
    with pytest.raises(ValueError, match=r"rate 2\.5 outside"):
        check_config(resolve_config(cfg))
    assert run("perturb", cfg_path) == 1
    failures = json.loads((outdir / "failures.json").read_text())
    assert "rate 2.5" in failures["failures"][0]["error"]
    assert not (outdir / "perturbed").exists()


def test_perturb_checks_rates_before_reading_the_manifest(tmp_path):
    cfg = pipeline_config(tmp_path / "out")  # no synth: the manifest does not exist
    cfg["perturb"]["rates"] = [2.5]
    with pytest.raises(ValueError, match=r"rate 2\.5 outside"):
        check_config(resolve_config(cfg))
    assert main(["perturb", "--config", write_config(tmp_path, cfg)]) == 1
    error = json.loads((tmp_path / "out" / "failures.json").read_text())["failures"][0]["error"]
    assert error == "config key 'perturb.rates': rate 2.5 outside [0.5, 2.0]"


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


@pytest.mark.parametrize("outdir", [None, "elsewhere"], ids=["default outdir", "--outdir"])
@pytest.mark.parametrize("name, text", [
    ("missing.json", None),
    ("bad.json", '{"outdir": "out",'),
    ("bad.yaml", "outdir: [out\n"),
    ("list.yaml", "- outdir\n"),
], ids=["missing", "invalid JSON", "YAML syntax", "not a mapping"])
def test_config_that_does_not_load_writes_failures(tmp_path, monkeypatch, name, text, outdir):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        Path(name).write_text(text)
    failures_path = Path(outdir or "out", "failures.json")
    failures_path.parent.mkdir()
    failures_path.write_text('{"command": "probe", "failures": []}\n')  # an earlier run's
    assert main(["report", "--config", name] + (["--outdir", outdir] if outdir else [])) == 1
    failures = json.loads(failures_path.read_text())
    assert failures["command"] == "report"
    assert name in failures["failures"][0]["error"]
    assert sorted(p.as_posix() for p in Path().rglob("*") if p.name != name) == [
        failures_path.parent.as_posix(), failures_path.as_posix()]


def _partitioned_run(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["synth"].update(n_speakers=4, utts_per_speaker=4)
    cfg["synth"].pop("audio")
    cfg["tasks"] = [{"trait": "gender", "kind": "classification", "scheme": "T02"}]
    cfg["train"]["epochs"] = 2
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    assert run("partition", cfg_path) == 0
    return outdir, cfg_path


@pytest.mark.parametrize("doc, message", [
    ({}, "expected 'train' and 'eval' lists of utt_ids"),
    ({"train": 5, "eval": []}, "expected 'train' and 'eval' lists of utt_ids"),
    ([1], "expected a mapping, got list"),
], ids=["empty", "train not a list", "a list"])
def test_malformed_split_file_fails_its_task_naming_the_file(tmp_path, doc, message):
    outdir, cfg_path = _partitioned_run(tmp_path)
    split = outdir / "splits" / "T02.json"
    split.write_text(json.dumps(doc))
    assert run("probe", cfg_path) == 1
    (failure,) = json.loads((outdir / "failures.json").read_text())["failures"]
    assert failure["status"] == "failed"
    assert failure["error"] == f"{split}: {message}"


@pytest.mark.parametrize("fname", ["probe_report.json", "distance_summary.json",
                                   "sweep_eer.json"])
def test_report_rejects_a_sub_report_that_is_not_an_object(tmp_path, fname):
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / fname).write_text("[1]\n")
    assert run("report", write_config(tmp_path, pipeline_config(outdir))) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert error == f"{outdir / fname}: expected a mapping, got list"
    assert not (outdir / "report.json").exists()


@pytest.mark.parametrize("doc", [{"tasks": {"x": 1}}, {"tasks": [1]}, {"tasks": None}, {}],
                         ids=["tasks a mapping", "a task not an object", "tasks null",
                              "no tasks"])
def test_report_rejects_a_probe_report_without_a_task_list(tmp_path, doc):
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "probe_report.json").write_text(json.dumps(doc))
    assert run("report", write_config(tmp_path, pipeline_config(outdir))) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert error == f"{outdir / 'probe_report.json'}: 'tasks' must be a list of task objects"
    assert not (outdir / "report.json").exists()


@pytest.mark.parametrize("audio, key", [
    ({"sr": 8000, "freq_base": 3000.0, "freq_scale": 1000.0}, "synth.audio.freq_scale"),
    ({"sr": 8000, "freq_base": 4000.0, "freq_scale": 0.0}, "synth.audio.freq_base"),
    ({"freq_base": 100.0, "freq_scale": -40.0}, "synth.audio.freq_scale"),
], ids=["above Nyquist", "base at Nyquist", "below zero"])
def test_tone_frequency_range_fails_before_any_file(tmp_path, audio, key):
    cfg = pipeline_config(tmp_path / "out")
    cfg["synth"]["audio"].update(audio)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    error = json.loads((tmp_path / "out" / "failures.json").read_text())["failures"][0]["error"]
    assert error.startswith(f"config key {key!r}: frequency ")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "out", "out/failures.json", "run.json"]


@pytest.mark.parametrize("freq_trait, systems", [
    ("gender", None), ("f0_maen", None),
    ("f0_mean", {"cm": {"seed": 3}}),
    ("f0_mean", {"cm": {"planted": [{"trait": "gender", "kind": "cluster"}]}}),
], ids=["cluster trait", "typo", "system at another seed", "system plants another trait"])
def test_freq_trait_must_be_a_planted_linear_subspace_trait(tmp_path, freq_trait, systems):
    """The tones follow the freq_trait's values at synth's seed; some system
    must plant that trait as linear_subspace at that seed."""
    cfg = pipeline_config(tmp_path / "out")
    cfg["synth"]["audio"]["freq_trait"] = freq_trait
    cfg["synth"]["systems"] = systems
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    error = json.loads((tmp_path / "out" / "failures.json").read_text())["failures"][0]["error"]
    assert error == (f"config key 'synth.audio.freq_trait': {freq_trait!r} "
                     "is not a planted linear_subspace trait")
    assert not list(tmp_path.rglob("*.wav"))
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "out", "out/failures.json", "run.json"]


def test_freq_trait_may_be_planted_by_one_system(tmp_path):
    cfg = pipeline_config(tmp_path / "out")
    cfg["synth"].update(n_speakers=2, utts_per_speaker=4, planted=[],
                        systems={"asv": None, "cm": {"planted": [
                            {"trait": "f0_mean", "kind": "linear_subspace"}]}})
    cfg["embeddings"] = {"asv": "emb/asv.emb", "cm": "emb/cm.emb"}
    assert main(["synth", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(list(tmp_path.rglob("*.wav"))) == 8


@pytest.mark.parametrize("command", ["report", "synth"])
@pytest.mark.parametrize("names, key", [
    ({"embeddings": {1: "emb/a.emb", "cm": "emb/cm.emb"}}, "embeddings.1"),
    ({"synth": {"systems": {1: None, "cm": None}}}, "synth.systems.1"),
], ids=["embeddings", "synth.systems"])
def test_a_name_that_is_not_a_string_fails_before_any_file(tmp_path, command, names, key):
    """YAML can name a system by a number; the check rejects it, where
    report's fingerprint and synth's sorted systems would raise TypeError."""
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg.update({section: {**cfg[section], **value} for section, value in names.items()})
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    assert main([command, "--config", str(cfg_path)]) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert error == f"config key {key!r} must be named by a string"
    assert sorted(p.name for p in outdir.iterdir()) == ["failures.json"]


def test_two_names_of_one_rate_fail_the_check(tmp_path):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["sweep"] = {"rates": [0.9, 1.0],
                    "score_files": {"1": "a.txt", "1.0": "b.txt", "0.9": "c.txt"}}
    message = "config key 'sweep.score_files.1.0' repeats the rate of 'sweep.score_files.1'"
    with pytest.raises(ValueError) as info:
        check_config(resolve_config(cfg))
    assert str(info.value) == message
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert error == message
    assert sorted(p.name for p in outdir.iterdir()) == ["failures.json"]


def test_rates_named_by_numbers_and_strings_fail_the_check(tmp_path):
    """YAML reads `1.0:` as a number and `'0.9':` as a string; report's fingerprint
    cannot sort the two, so the check rejects the mix, naming the mapping."""
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["sweep"] = {"rates": [0.9, 1.0], "score_files": {1.0: "a.txt", "0.9": "b.txt"}}
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    assert main(["report", "--config", str(cfg_path)]) == 1
    error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
    assert error == "config key 'sweep.score_files' names its rates by both numbers and strings"
    assert sorted(p.name for p in outdir.iterdir()) == ["failures.json"]


@pytest.mark.parametrize("sweep, message", [
    ({"rates": [0.9, 1.1], "score_dir": "scores"},
     "config key 'sweep.rates': baseline rate 1.0 must be included"),
    ({"rates": [0.9, 1.0], "score_files": {"1.0": "a.txt", "1.1": "b.txt"}},
     "config key 'sweep.score_files' has no file for rate 0.9"),
    ({"rates": [0.9, 1.0]}, "config key 'sweep' needs score_files or score_dir"),
], ids=["no-baseline", "rate-without-file", "no-score-source"])
def test_a_sweep_that_cannot_run_fails_every_command(tmp_path, sweep, message):
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    cfg["sweep"] = sweep
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("partition", "sweep"):
        assert main([command, "--config", str(cfg_path)]) == 1
        error = json.loads((outdir / "failures.json").read_text())["failures"][0]["error"]
        assert error == message
    assert sorted(p.name for p in outdir.iterdir()) == ["failures.json"]


def test_tone_frequency_spread_needs_a_freq_trait(tmp_path):
    cfg = pipeline_config(tmp_path / "out")
    cfg["synth"]["audio"].update(sr=8000, freq_base=3000.0, freq_scale=1000.0, freq_trait=None)
    check_config(resolve_config(cfg))  # every tone is freq_base


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
    """Nor numpy, nor any module a command runs: main imports that after the config check."""
    import embprobe
    src = str(Path(embprobe.__file__).resolve().parents[1])
    code = ("import sys, embprobe.cli; print(sorted(m for m in sys.modules if m in "
            "('yaml', 'concurrent.futures', 'numpy') or m.partition('.')[0] == 'embprobe'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    loaded = ["embprobe", "embprobe.cli", "embprobe.config", "embprobe.fileio"]
    assert out.stdout.strip() == repr(loaded)


def test_library_import_leaves_blas_threads_unset():
    import embprobe
    src = str(Path(embprobe.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in embprobe.BLAS_THREAD_VARS}
    code = ("import os, embprobe, embprobe.cli; "
            "print([v for v in embprobe.BLAS_THREAD_VARS if v in os.environ])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(env, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_pin_blas_threads_keeps_user_values(monkeypatch):
    from embprobe import BLAS_THREAD_VARS, pin_blas_threads
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    pin_blas_threads()
    assert {var: os.environ[var] for var in BLAS_THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}


ENTRY_POINTS = {
    # what the `embprobe` console script runs
    "console": ("import os, sys, embprobe; assert 'numpy' not in sys.modules; "
                "status = embprobe.console_main(); "
                "print(status, os.environ['OPENBLAS_NUM_THREADS'])"),
    # `python -m embprobe.cli`
    "module": ("import os, runpy, sys\n"
               "try:\n"
               "    runpy.run_module('embprobe.cli', run_name='__main__')\n"
               "except SystemExit as exc:\n"
               "    print(exc.code, os.environ['OPENBLAS_NUM_THREADS'])"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_command_line_entries_pin_blas_and_run(tmp_path, entry):
    """Both command-line entries default BLAS to one thread before numpy is
    imported, keep a count the user set, and run the command."""
    import embprobe
    src = str(Path(embprobe.__file__).resolve().parents[1])
    cfg = pipeline_config(tmp_path / "out")
    cfg["synth"].update(n_speakers=2, utts_per_speaker=4)
    cfg["synth"].pop("audio")
    cfg_path = write_config(tmp_path, cfg)
    base = {k: v for k, v in os.environ.items() if k not in embprobe.BLAS_THREAD_VARS}
    for user, expected in ((None, "1"), ("2", "2")):
        env = dict(base, PYTHONPATH=src)
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        out = subprocess.run([sys.executable, "-c", ENTRY_POINTS[entry], "synth",
                              "--config", cfg_path],
                             capture_output=True, text=True, check=True, env=env, timeout=120)
        assert out.stdout.split() == ["0", expected]
    assert (tmp_path / "out" / "emb" / "cm.emb").exists()


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A JSON config and the corpus, splits and traits that every command reads."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = pipeline_config(tmp / "out")
    cfg["synth"].update(n_speakers=6, utts_per_speaker=4, dim=8)
    cfg["synth"]["audio"]["duration_s"] = 0.25
    cfg["synth"]["scores"].update(n_bonafide=10, n_spoof=10)
    cfg.update(partition={"train_fraction": 0.75}, train={"epochs": 2, "hidden_dim": 8},
               metrics={"n_boot": 100, "n_perm": 100}, tasks=[cfg["tasks"][0], cfg["tasks"][2]])
    cfg["distance"]["chunk_seconds"] = 0.25
    cfg_path = tmp / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    for cmd in ("synth", "partition", "traits"):
        assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
    return cfg_path


@pytest.mark.parametrize("command", ["synth", "partition", "traits", "probe", "distance",
                                     "perturb", "sweep", "report"])
def test_each_command_imports_only_its_own_modules(tiny_corpus, command):
    """Run as `python -m embprobe.cli` runs it, a command loads the library modules it
    drives and no other; `report` loads no numpy, and no command loads yaml for a
    JSON config."""
    import embprobe
    src = str(Path(embprobe.__file__).resolve().parents[1])
    code = ("import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('embprobe.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, *sorted(m for m in sys.modules if m in ('numpy', 'yaml')\n"
            "                            or m.partition('.')[0] == 'embprobe'))")
    out = subprocess.run([sys.executable, "-c", code, command, "--config", str(tiny_corpus)],
                         capture_output=True, text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    status, *loaded = out.stdout.split()
    assert status == "0", out.stderr
    assert "yaml" not in loaded
    assert ("embprobe.synth" in loaded) == (command == "synth")
    if command == "report":
        assert loaded == ["embprobe", "embprobe.config", "embprobe.fileio"]
    if command in ("partition", "traits", "perturb", "sweep"):
        assert not {"embprobe.probe_net", "embprobe.distance_analysis"} & set(loaded)


def test_probe_outputs_independent_of_jobs_and_blas_threads(tmp_path):
    """probe_report.json and every .prb file are byte-identical with one or two
    task workers, and with BLAS at one thread, at two, or unset (which the
    command-line entry pins to one)."""
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
        for blas in ("1", "2", None):
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


def test_distance_outputs_independent_of_blas_threads(tmp_path):
    """The encoder_spectral records and the distance summary are byte-identical
    with BLAS at one thread, at two, or unset (which the command-line entry
    pins to one)."""
    import embprobe
    outdir = tmp_path / "out"
    cfg = pipeline_config(outdir)
    # 1 s chunks are 98 x 257 spectrograms: a dot product of 25k entries,
    # long enough for BLAS to split over threads when it may
    cfg["synth"].update(n_speakers=4, utts_per_speaker=6)
    cfg["distance"]["kinds"] = ["encoder_spectral"]
    cfg["tasks"] = []
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    src = str(Path(embprobe.__file__).resolve().parents[1])
    outputs = set()
    for blas in ("1", "2", None):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        subprocess.run([sys.executable, "-m", "embprobe.cli", "distance", "--config", cfg_path],
                       check=True, env=env, timeout=300)
        outputs.add(tuple((outdir / name).read_bytes() for name in (
            "distance_records_encoder_spectral.csv", "distance_summary.json")))
    assert len(outputs) == 1
