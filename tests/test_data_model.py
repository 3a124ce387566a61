import numpy as np
import pytest

from embprobe.data_model import (EmbeddingTable, Manifest, PartitionScheme,
                                 TraitTask, assemble, build_label_space,
                                 load_embeddings, load_manifest, partition,
                                 trait_label, write_embeddings, write_manifest)

from conftest import make_row, toy_manifest


# --- manifest loading and validation ---

def test_load_manifest_csv_identity(tmp_path):
    text = (
        "utt_id,speaker_id,gender,age,accent,is_bonafide,attack_id,attack_type,transcript,audio_path\n"
        "U1,S1,female,25,english,true,,,hello there,\n"
        "U2,S1,female,25,english,false,A07,TTS,,\n"
        "U3,S2,male,30,welsh,true,,,,audio/U3.wav\n"
    )
    path = tmp_path / "m.csv"
    path.write_text(text)
    m = load_manifest(path)
    assert len(m) == 3
    assert [r.utt_id for r in m.rows] == ["U1", "U2", "U3"]  # order preserved
    assert m.rows[0].transcript == "hello there"
    assert m.rows[1].attack_id == "A07"
    assert m.rows[2].audio_path == "audio/U3.wav"
    assert m.rows[0].attack_id is None


def test_bonafide_attack_conflict(tmp_path):
    text = (
        "utt_id,speaker_id,gender,age,accent,is_bonafide,attack_id,attack_type,transcript,audio_path\n"
        "U1,S1,female,25,english,true,A07,,,\n"
    )
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bonafide/attack conflict"):
        load_manifest(path)


def test_duplicate_utt_id():
    with pytest.raises(ValueError, match="duplicate utt_id"):
        Manifest(rows=(make_row("U1"), make_row("U1")))


def test_spoof_needs_attack_id():
    with pytest.raises(ValueError, match="missing attack_id"):
        Manifest(rows=(make_row("U1", bonafide=False),))


def test_csv_parse_error_has_line_number(tmp_path):
    text = (
        "utt_id,speaker_id,gender,age,accent,is_bonafide,attack_id,attack_type,transcript,audio_path\n"
        "U1,S1,female,notanage,english,true,,,,\n"
    )
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="line 2"):
        load_manifest(path)


def test_manifest_csv_roundtrip_bytes(tmp_path, mixed_manifest):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_manifest(mixed_manifest, p1)
    write_manifest(load_manifest(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_jsonl_roundtrip_bytes(tmp_path, mixed_manifest):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_manifest(mixed_manifest, p1)
    m = load_manifest(p1)
    assert m == mixed_manifest
    write_manifest(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_csv_quoting(tmp_path):
    m = Manifest(rows=(make_row("U1", transcript='say "hi", now'),))
    path = tmp_path / "q.csv"
    write_manifest(m, path)
    assert load_manifest(path).rows[0].transcript == 'say "hi", now'


# --- label spaces ---

def test_speaker_space_107():
    rows = tuple(make_row(f"U{i}", speaker=f"LA_{i:04d}") for i in range(107))
    space = build_label_space(Manifest(rows=rows), "speaker_id")
    assert space.size == 107


def test_age_space_15_classes():
    ages = [18, 19, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 33, 36, 38]
    rows = tuple(make_row(f"U{i}", speaker=f"S{i}", age=ages[i % 15]) for i in range(30))
    space = build_label_space(Manifest(rows=rows), "age")
    assert space.size == 15


def test_gender_space_fixed_pair():
    m = Manifest(rows=(make_row("U1", gender="male"),))
    assert build_label_space(m, "gender").classes == ("female", "male")


def test_attack_type_space(mixed_manifest):
    space = build_label_space(mixed_manifest, "attack_type")
    assert space.classes == ("TTS", "VC", "bonafide")


def test_attack_id_space_bonafide_last(mixed_manifest):
    space = build_label_space(mixed_manifest, "attack_id")
    assert space.classes[-1] == "bonafide"
    assert list(space.classes[:-1]) == sorted(space.classes[:-1])


def test_attack_trait_absent():
    m = Manifest(rows=(make_row("U1"), make_row("U2", speaker="S2")))
    with pytest.raises(ValueError, match="absent"):
        build_label_space(m, "attack_id")


def test_label_space_order_insensitive(mixed_manifest):
    reversed_m = Manifest(rows=tuple(reversed(mixed_manifest.rows)))
    for trait in ("speaker_id", "age", "gender", "accent", "attack_id", "attack_type"):
        assert build_label_space(mixed_manifest, trait) == build_label_space(reversed_m, trait)


def test_trait_label_bonafide_class(mixed_manifest):
    bona = mixed_manifest.rows[0]
    assert trait_label(bona, "attack_id") == "bonafide"
    assert trait_label(bona, "attack_type") == "bonafide"


# --- embedding tables ---

def test_emb1_roundtrip_bytes(tmp_path, rng):
    entries = {f"U{i}": rng.normal(size=192) for i in range(5)}
    table = EmbeddingTable(dim=192, entries=entries)
    p1 = tmp_path / "a.emb"
    p2 = tmp_path / "b.emb"
    write_embeddings(table, p1)
    loaded = load_embeddings(p1)
    assert loaded.dim == 192
    assert len(loaded) == 5
    write_embeddings(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emb1_truncated(tmp_path, rng):
    table = EmbeddingTable(dim=8, entries={"U1": rng.normal(size=8)})
    path = tmp_path / "a.emb"
    write_embeddings(table, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_embeddings(path)


def test_emb_csv_nan_rejected(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("utt_id,v0,v1\nU1,1.0,NaN\n")
    with pytest.raises(ValueError, match="non-finite component"):
        load_embeddings(path)


def test_emb_csv_dim_mismatch(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("utt_id,v0,v1\nU1,1.0,2.0\nU2,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="dim mismatch"):
        load_embeddings(path)


def test_empty_table_rejected():
    with pytest.raises(ValueError, match="empty table"):
        EmbeddingTable(dim=4, entries={})


def test_emb_csv_roundtrip_bytes(tmp_path, rng):
    table = EmbeddingTable(dim=3, entries={"U1": rng.normal(size=3), "U2": rng.normal(size=3)})
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_embeddings(table, p1)
    write_embeddings(load_embeddings(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _bad_utf8(tmp_path, mixed_manifest, rng, name):
    """A file of the reader's format with one byte of a utt_id set to 0xff."""
    path = tmp_path / name
    if name.startswith("manifest"):
        write_manifest(mixed_manifest, path)
    else:
        write_embeddings(EmbeddingTable(dim=3, entries={"U1": rng.normal(size=3)}), path)
    data = path.read_bytes()
    at = data.rindex(b"U1" if name.startswith("emb") else mixed_manifest.rows[-1].utt_id.encode())
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    return path


@pytest.mark.parametrize("name, message", [
    ("manifest.csv", "not UTF-8 text"),
    ("manifest.jsonl", "not UTF-8 text"),
    ("emb.emb", "utt_id at byte 14 is not UTF-8"),
    ("emb.csv", "not UTF-8 text"),
])
def test_reader_invalid_utf8_names_path(tmp_path, mixed_manifest, rng, name, message):
    path = _bad_utf8(tmp_path, mixed_manifest, rng, name)
    load = load_manifest if name.startswith("manifest") else load_embeddings
    with pytest.raises(ValueError, match=message) as info:
        load(path)
    assert str(path) in str(info.value)


# --- partitioning ---

def _speaker_manifest(n_speakers, utts_each):
    rows = []
    for s in range(n_speakers):
        for u in range(utts_each):
            rows.append(make_row(f"S{s:03d}_U{u}", speaker=f"S{s:03d}",
                                 gender="female" if s % 2 == 0 else "male"))
    return Manifest(rows=tuple(rows))


def test_t02_disjoint_speakers():
    m = _speaker_manifest(10, 5)
    train, evals = partition(m, "T02", 0.9, seed=4)
    spk = lambda ids: {u.split("_")[0] for u in ids}
    assert spk(train) & spk(evals) == set()
    assert len(spk(evals)) == 1
    assert len(spk(train)) == 9
    assert spk(train) | spk(evals) == {f"S{s:03d}" for s in range(10)}


def test_t01_per_speaker_stratification():
    m = _speaker_manifest(6, 10)
    train, evals = partition(m, "T01", 0.9, seed=1)
    for s in range(6):
        speaker = f"S{s:03d}"
        n_train = sum(1 for u in train if u.startswith(speaker))
        n_eval = sum(1 for u in evals if u.startswith(speaker))
        assert (n_train, n_eval) == (9, 1)


def test_t01_single_utterance_speaker_goes_to_train():
    rows = (make_row("A_U0", speaker="A"),) + tuple(
        make_row(f"B_U{i}", speaker="B") for i in range(4))
    train, evals = partition(Manifest(rows=rows), "T01", 0.9, seed=0)
    assert "A_U0" in train


def test_partition_deterministic(mixed_manifest):
    for scheme in PartitionScheme:
        a = partition(mixed_manifest, scheme, 0.8, seed=42)
        b = partition(mixed_manifest, scheme, 0.8, seed=42)
        assert a == b


def test_partition_row_order_insensitive(mixed_manifest):
    shuffled = Manifest(rows=tuple(reversed(mixed_manifest.rows)))
    for scheme in PartitionScheme:
        assert partition(mixed_manifest, scheme, 0.8, seed=7) == \
            partition(shuffled, scheme, 0.8, seed=7)


def test_t03_class_coverage(mixed_manifest):
    train, evals = partition(mixed_manifest, "T03", 0.8, seed=3)
    rows = mixed_manifest.row_map()
    for ids in (train, evals):
        classes = {trait_label(rows[u], "attack_id") for u in ids}
        assert classes == {"A07", "A08", "bonafide"}


def test_t03_infeasible_small_class():
    rows = tuple(make_row(f"U{i}", speaker="S1") for i in range(4))
    rows += (make_row("U9", speaker="S1", bonafide=False, attack_id="A07", attack_type="TTS"),)
    with pytest.raises(ValueError, match="T03 infeasible"):
        partition(Manifest(rows=rows), "T03", 0.9, seed=0)


def test_t02_infeasible_one_speaker():
    m = _speaker_manifest(1, 5)
    with pytest.raises(ValueError, match="T02 infeasible"):
        partition(m, "T02", 0.9, seed=0)


def test_partition_fraction_validated(mixed_manifest):
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="train_fraction"):
            partition(mixed_manifest, "T01", bad, seed=0)


def test_partition_splits_are_exhaustive(mixed_manifest):
    bona = {r.utt_id for r in mixed_manifest.bonafide()}
    for scheme in ("T01", "T02"):
        train, evals = partition(mixed_manifest, scheme, 0.8, seed=5)
        assert set(train) | set(evals) == bona
        assert set(train) & set(evals) == set()
    train, evals = partition(mixed_manifest, "T03", 0.8, seed=5)
    assert set(train) | set(evals) == {r.utt_id for r in mixed_manifest.rows}


# --- assembly ---

def _table_for(manifest, dim, rng):
    return EmbeddingTable(dim=dim, entries={r.utt_id: rng.normal(size=dim)
                                            for r in manifest.rows})


def test_assemble_aligned(mixed_manifest, rng):
    table = _table_for(mixed_manifest, 16, rng)
    task = TraitTask.classification(mixed_manifest, "gender")
    ids = [r.utt_id for r in mixed_manifest.rows]
    ds = assemble(mixed_manifest, table, task, ids, "train")
    assert len(ds) == len(ids)
    assert ds.X.shape == (len(ids), 16)
    assert set(np.unique(ds.y)) <= {0, 1}
    for i, utt in enumerate(ids):
        assert np.array_equal(ds.X[i], table.entries[utt])


def test_assemble_missing_embedding(mixed_manifest, rng):
    table = _table_for(mixed_manifest, 8, rng)
    del table.entries["S000_B0"]
    task = TraitTask.classification(mixed_manifest, "gender")
    with pytest.raises(ValueError, match="S000_B0"):
        assemble(mixed_manifest, table, task, [r.utt_id for r in mixed_manifest.rows])


def test_assemble_missing_regression_value(mixed_manifest, rng):
    table = _table_for(mixed_manifest, 8, rng)
    task = TraitTask.regression("f0_mean", {"S000_B0": 120.0})
    with pytest.raises(ValueError, match="missing regression value"):
        assemble(mixed_manifest, table, task, ["S000_B0", "S000_B1"])


def test_assemble_unit_norm(mixed_manifest, rng):
    table = _table_for(mixed_manifest, 8, rng)
    task = TraitTask.classification(mixed_manifest, "gender")
    ds = assemble(mixed_manifest, table, task, ["S000_B0"], "eval", unit_norm=True)
    assert np.isclose(np.linalg.norm(ds.X[0]), 1.0)
