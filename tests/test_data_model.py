import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from embprobe.data_model import (GENDERS, MANIFEST_COLUMNS, EmbeddingTable, Manifest,
                                 ManifestRow, PartitionScheme, TraitTask, assemble,
                                 build_label_space, load_embeddings, load_manifest,
                                 partition, trait_label, write_embeddings,
                                 write_manifest)

from conftest import damaged, make_row, toy_manifest


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


def test_manifest_csv_cr_in_a_field_reads_back(tmp_path):
    m = Manifest(rows=(make_row("U\r1", transcript="one\rtwo", accent="a\r\nb"),))
    path = tmp_path / "cr.csv"
    write_manifest(m, path)
    assert load_manifest(path) == m


JSONL_ROW = {"utt_id": "U1", "speaker_id": "S1", "gender": "female", "age": 25,
             "accent": "english", "is_bonafide": True}


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize("rows, message", [
    ([{}, {}], "duplicate utt_id 'U1'"),
    ([{"gender": "other"}], "row 1 (U1): gender must be one of"),
    ([{"attack_id": "A07"}], "row 1 (U1): bonafide/attack conflict"),
], ids=["duplicate", "gender", "conflict"])
def test_manifest_validation_errors_name_the_file(tmp_path, suffix, rows, message):
    path = tmp_path / f"m{suffix}"
    rows = [{**JSONL_ROW, **row} for row in rows]
    if suffix == ".csv":
        path.write_text(",".join(MANIFEST_COLUMNS) + "\n" + "".join(
            ",".join(str(row.get(key, "")) for key in MANIFEST_COLUMNS) + "\n"
            for row in rows))
    else:
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ValueError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("fields, expected", [
    ({"is_bonafide": "false", "attack_id": 7}, {"is_bonafide": False, "attack_id": "7"}),
    ({"is_bonafide": 0, "attack_id": "A07", "attack_type": None},
     {"is_bonafide": False, "attack_id": "A07", "attack_type": None}),
    ({"age": "31", "transcript": ""}, {"age": 31, "transcript": None}),
])
def test_manifest_jsonl_fields_parse_as_their_csv_text(tmp_path, fields, expected):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({**JSONL_ROW, **fields}) + "\n")
    row = load_manifest(path).rows[0]
    assert {key: getattr(row, key) for key in expected} == expected


@pytest.mark.parametrize("key, value, message", [
    ("age", "null", "line 1: missing field 'age'"),
    ("age", '"x"', "line 1: bad age 'x'"),
    ("age", "25.5", "line 1: bad age '25.5'"),
    ("is_bonafide", '"maybe"', "line 1: bad boolean 'maybe'"),
    ("accent", '["english"]', "line 1: field 'accent' must be a string"),
    ("age", "9" * 5000, "line 1: bad JSON"),  # past int's default digit limit
], ids=lambda v: v[:12])
def test_manifest_jsonl_bad_field_names_the_file(tmp_path, key, value, message):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({**JSONL_ROW, key: "@"}).replace('"@"', value) + "\n")
    with pytest.raises(ValueError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("name", ["manifest.csv", "emb.csv"])
def test_csv_reader_field_over_csv_limit_names_the_file(tmp_path, mixed_manifest, rng, name):
    path = tmp_path / name
    if name.startswith("manifest"):
        write_manifest(mixed_manifest, path)
    else:
        write_embeddings(EmbeddingTable(ids=("U1",), matrix=rng.normal(size=(1, 3))), path)
    with path.open("a") as fh:
        fh.write('"' + "x" * 140_000 + "\n")  # an unclosed quote
    with pytest.raises(ValueError, match="field larger than field limit") as info:
        (load_manifest if name.startswith("manifest") else load_embeddings)(path)
    assert str(info.value).startswith(f"{path}: line ")


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
    table = EmbeddingTable(ids=tuple(f"U{i}" for i in range(5)), matrix=rng.normal(size=(5, 192)))
    p1 = tmp_path / "a.emb"
    p2 = tmp_path / "b.emb"
    write_embeddings(table, p1)
    loaded = load_embeddings(p1)
    assert loaded.dim == 192
    assert len(loaded) == 5
    write_embeddings(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emb1_truncated(tmp_path, rng):
    table = EmbeddingTable(ids=("U1",), matrix=rng.normal(size=(1, 8)))
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
        EmbeddingTable(ids=(), matrix=np.zeros((0, 4)))


def test_emb_csv_roundtrip_bytes(tmp_path, rng):
    table = EmbeddingTable(ids=("U1", "U2"), matrix=rng.normal(size=(2, 3)))
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
        write_embeddings(EmbeddingTable(ids=("U1",), matrix=rng.normal(size=(1, 3))), path)
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
    return EmbeddingTable(ids=tuple(r.utt_id for r in manifest.rows),
                          matrix=rng.normal(size=(len(manifest.rows), dim)))


def test_assemble_aligned(mixed_manifest, rng):
    table = _table_for(mixed_manifest, 16, rng)
    task = TraitTask.classification(mixed_manifest, "gender")
    ids = [r.utt_id for r in mixed_manifest.rows]
    ds = assemble(mixed_manifest, table, task, ids, "train")
    assert len(ds) == len(ids)
    assert ds.X.shape == (len(ids), 16)
    assert set(np.unique(ds.y)) <= {0, 1}
    for i, utt in enumerate(ids):
        assert np.array_equal(ds.X[i], table.row(utt))


def test_assemble_missing_embedding(mixed_manifest, rng):
    table = _table_for(mixed_manifest, 8, rng)
    keep = [i for i, utt in enumerate(table.ids) if utt != "S000_B0"]
    table = EmbeddingTable(ids=[table.ids[i] for i in keep], matrix=table.matrix[keep])
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


# --- manifest readers under random manifests and damage ---

# any text, separators, quotes, line breaks and non-ASCII made likely
TEXT = st.text(st.sampled_from(',"\r\n é') | st.characters(blacklist_categories=("Cs",)),
               max_size=8)


@st.composite
def _manifests(draw, text=TEXT):
    # an empty optional is written as absent, so a file cannot hold "" apart from None
    optional = st.none() | text.filter(bool)
    rows = []
    for utt in draw(st.lists(text, min_size=1, max_size=4, unique=True)):
        bonafide = draw(st.booleans())
        rows.append(ManifestRow(
            utt_id=utt, speaker_id=draw(text), gender=draw(st.sampled_from(GENDERS)),
            age=draw(st.integers(-10**6, 10**6)), accent=draw(text), is_bonafide=bonafide,
            attack_id=None if bonafide else draw(text.filter(bool)),
            attack_type=None if bonafide else draw(optional),
            transcript=draw(optional), audio_path=draw(optional)))
    return Manifest(rows=tuple(rows))


@settings(max_examples=200, deadline=None)
@given(suffix=st.sampled_from([".csv", ".jsonl"]), manifest=_manifests())
def test_manifest_write_read_write_is_byte_stable(suffix, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / f"a{suffix}", Path(tmp) / f"b{suffix}"
        write_manifest(manifest, first)
        loaded = load_manifest(first)
        write_manifest(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded == manifest


def _reference_manifest_csv(manifest) -> bytes:
    """write_manifest's CSV branch as it was, on csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MANIFEST_COLUMNS)
    for row in manifest.rows:
        writer.writerow([
            row.utt_id, row.speaker_id, row.gender, str(row.age), row.accent,
            "true" if row.is_bonafide else "false",
            row.attack_id or "", row.attack_type or "",
            row.transcript or "", row.audio_path or "",
        ])
    return buf.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(manifest=_manifests(TEXT.map(lambda text: text.replace("\r", ""))))
def test_manifest_csv_bytes_match_csv_writer_without_cr(manifest):
    """Only a field holding CR, which csv.writer left unquoted, is written anew."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_manifest(manifest, path)
        assert path.read_bytes() == _reference_manifest_csv(manifest)


@settings(max_examples=300, deadline=None)
@given(suffix=st.sampled_from([".csv", ".jsonl"]), manifest=_manifests(), data=st.data())
def test_manifest_truncation_or_byte_flip_loads_or_names_path(suffix, manifest, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"mutated{suffix}"
        write_manifest(manifest, path)
        path.write_bytes(damaged(path.read_bytes(), data))
        try:
            loaded = load_manifest(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert all(isinstance(row.age, int) and isinstance(row.is_bonafide, bool)
                       and all(isinstance(getattr(row, key), str | None)
                               for key in MANIFEST_COLUMNS if key not in ("age", "is_bonafide"))
                       for row in loaded.rows)


# --- EMB1 and embedding-CSV readers under random tables and damage ---

@st.composite
def _tables(draw, fmt):
    """Valid tables: unique ids of any text (non-ASCII, separators, quotes and
    line breaks included), dims from 1 up, finite values EMB1 or CSV store."""
    ids = draw(st.lists(st.text(max_size=8), min_size=1, max_size=5, unique=True))
    dim = draw(st.integers(1, 6))
    matrix = draw(hnp.arrays(np.float64, (len(ids), dim), elements=st.floats(
        allow_nan=False, allow_infinity=False, width=32 if fmt == "emb" else 64)))
    return ids, matrix


@settings(max_examples=200, deadline=None)
@given(fmt=st.sampled_from(["emb", "csv"]), data=st.data())
def test_emb_write_read_write_is_byte_stable(fmt, data):
    ids, matrix = data.draw(_tables(fmt))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / f"a.{fmt}", Path(tmp) / f"b.{fmt}"
        write_embeddings(EmbeddingTable(ids=tuple(ids), matrix=matrix), first)
        loaded = load_embeddings(first)
        write_embeddings(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.ids == tuple(ids)
    assert np.array_equal(loaded.matrix, matrix)


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(["emb", "csv"]), data=st.data())
def test_emb_truncation_or_byte_flip_loads_or_names_path(fmt, data):
    ids, matrix = data.draw(_tables(fmt))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"mutated.{fmt}"
        write_embeddings(EmbeddingTable(ids=tuple(ids), matrix=matrix), path)
        path.write_bytes(damaged(path.read_bytes(), data))
        try:
            table = load_embeddings(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert table.matrix.dtype == np.float64
            assert table.matrix.shape == (len(table.ids), table.dim)
            assert np.all(np.isfinite(table.matrix))


# --- assemble against the dict-based version it replaced ---

def _reference_assemble(manifest, entries, dim, task, utt_ids, split="train",
                        unit_norm=False):
    """assemble as it was when a table was a dim and a utt_id -> vector dict."""
    if split not in ("train", "eval"):
        raise ValueError(f"split must be 'train' or 'eval', got {split!r}")
    rows = manifest.row_map()
    utt_ids = list(utt_ids)
    X = np.empty((len(utt_ids), dim), dtype=np.float64)
    targets = []
    for i, utt in enumerate(utt_ids):
        row = rows.get(utt)
        if row is None:
            raise ValueError(f"utt_id {utt!r} not present in manifest")
        vec = entries.get(utt)
        if vec is None:
            raise ValueError(f"missing embedding for utt_id {utt!r}")
        if unit_norm:
            norm = np.linalg.norm(vec)
            if norm == 0.0:
                raise ValueError(f"{utt}: zero embedding cannot be unit-normalized")
            vec = vec / norm
        X[i] = vec
        if task.kind == "classification":
            label = trait_label(row, task.name)
            if label is None:
                raise ValueError(f"{utt}: no label for trait {task.name!r}")
            targets.append(task.label_space.index_of(label))
        else:
            value = task.values.get(utt)
            if value is None:
                raise ValueError(f"missing regression value for utt_id {utt!r}")
            targets.append(float(value))
    dtype = np.int64 if task.kind == "classification" else np.float64
    return X, np.asarray(targets, dtype=dtype)


def _both_assembles(manifest, table, task, utt_ids, unit_norm):
    entries = {utt: vec.copy() for utt, vec in zip(table.ids, table.matrix)}
    expected = _reference_assemble(manifest, entries, table.dim, task, utt_ids, "train",
                                   unit_norm)
    return assemble(manifest, table, task, utt_ids, "train", unit_norm), expected


@pytest.mark.parametrize("unit_norm", [False, True])
@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_assemble_matches_dict_reference(kind, unit_norm, mixed_manifest, rng):
    table = _table_for(mixed_manifest, 192, rng)
    ids = [r.utt_id for r in mixed_manifest.rows][::-1]  # not the table's row order
    if kind == "classification":
        task = TraitTask.classification(mixed_manifest, "attack_id")
    else:
        task = TraitTask.regression("f0_mean", {utt: float(v) for utt, v
                                                in zip(ids, rng.normal(150.0, 20.0, len(ids)))})
    ds, (X, y) = _both_assembles(mixed_manifest, table, task, ids, unit_norm)
    assert ds.X.dtype == X.dtype and ds.y.dtype == y.dtype
    assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)  # bit for bit


def test_assemble_errors_match_dict_reference(mixed_manifest, rng):
    ids = [r.utt_id for r in mixed_manifest.rows]
    table = _table_for(mixed_manifest, 192, rng)
    gender = TraitTask.classification(mixed_manifest, "gender")
    missing = EmbeddingTable(ids=table.ids[:3] + table.ids[4:],
                             matrix=np.delete(table.matrix, 3, axis=0))
    zero = EmbeddingTable(ids=table.ids, matrix=table.matrix.copy())
    zero.matrix[5] = 0.0
    some_values = TraitTask.regression("f0_mean", {utt: 1.0 for utt in ids[:7]})
    for tab, task, unit_norm, message in [
            (missing, gender, False, "missing embedding for utt_id"),
            (zero, gender, True, "zero embedding cannot be unit-normalized"),
            (table, some_values, False, "missing regression value for utt_id")]:
        with pytest.raises(ValueError, match=message) as new:
            assemble(mixed_manifest, tab, task, ids, "train", unit_norm)
        entries = {utt: vec.copy() for utt, vec in zip(tab.ids, tab.matrix)}
        with pytest.raises(ValueError) as old:
            _reference_assemble(mixed_manifest, entries, tab.dim, task, ids, "train", unit_norm)
        assert str(new.value) == str(old.value)


def test_table_checks_name_the_first_bad_id():
    with pytest.raises(ValueError, match="duplicate utt_id 'B'"):
        EmbeddingTable(ids=("A", "B", "C", "B"), matrix=np.zeros((4, 2)))
    bad = np.ones((3, 2))
    bad[1, 1] = np.nan
    bad[2, 0] = np.inf
    with pytest.raises(ValueError, match="^B: non-finite component$"):
        EmbeddingTable(ids=("A", "B", "C"), matrix=bad)
    with pytest.raises(ValueError, match=r"matrix has shape \(2, 2\), expected \(3, dim\)"):
        EmbeddingTable(ids=("A", "B", "C"), matrix=np.ones((2, 2)))
    with pytest.raises(ValueError, match="dim must be positive"):
        EmbeddingTable(ids=("A",), matrix=np.ones((1, 0)))
    table = EmbeddingTable(ids=["A", "B"], matrix=[[1, 2], [3, 4]])
    assert table.ids == ("A", "B") and table.dim == 2 and table.matrix.dtype == np.float64
    assert table.row("B").tolist() == [3.0, 4.0] and table.row("Z") is None
