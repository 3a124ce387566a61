import dataclasses
import math
import struct
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embprobe.data_model import Manifest
from embprobe.distance_analysis import (PairedDistanceRecord,
                                        bonafide_spoof_pairing,
                                        cosine_distance, cosine_similarity,
                                        histogram_overlap, itakura_saito,
                                        read_frames, summarize_by_gender,
                                        write_distance_records, write_frames)
from embprobe.rng import make_rng

from conftest import damaged, make_row


# --- itakura-saito ---

def test_is_zero_at_equality(rng):
    P = np.exp(rng.normal(size=(10, 8)))
    assert itakura_saito(P, P) == 0.0


def test_is_hand_cases():
    # two frames, one bin
    P = np.array([[2.0], [2.0]])
    Q = np.array([[1.0], [1.0]])
    expected = 2.0 - math.log(2.0) - 1.0
    assert abs(itakura_saito(P, Q) - expected) < 1e-12
    assert abs(itakura_saito(P, Q) - 0.306853) < 1e-6
    swapped = 0.5 - math.log(0.5) - 1.0
    assert abs(itakura_saito(Q, P) - swapped) < 1e-12
    assert abs(itakura_saito(Q, P) - 0.193147) < 1e-6


def test_is_asymmetric():
    P = np.array([[2.0, 3.0]])
    Q = np.array([[1.0, 1.0]])
    assert itakura_saito(P, Q) != itakura_saito(Q, P)


def test_is_nonnegative_random(rng):
    for _ in range(200):
        P = np.exp(rng.normal(size=(4, 6)))
        Q = np.exp(rng.normal(size=(4, 6)))
        assert itakura_saito(P, Q) >= 0.0


def test_is_scale_ratio_invariant(rng):
    P = np.exp(rng.normal(size=(5, 4)))
    Q = np.exp(rng.normal(size=(5, 4)))
    assert np.isclose(itakura_saito(3.7 * P, 3.7 * Q), itakura_saito(P, Q))


def test_is_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        itakura_saito(np.ones((2, 3)), np.ones((2, 4)))


def test_is_nonpositive_entry():
    with pytest.raises(ValueError, match="non-positive"):
        itakura_saito(np.array([[1.0, 0.0]]), np.ones((1, 2)))


# --- cosine ---

def test_cosine_cases():
    v = np.array([0.3, -1.2, 4.0])
    assert abs(cosine_similarity(v, v) - 1.0) < 1e-12
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert abs(cosine_similarity([1.0, 1.0], [1.0, 0.0]) - 0.707107) < 1e-6


def test_cosine_scale_invariant(rng):
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    assert np.isclose(cosine_similarity(a, b), cosine_similarity(2.5 * a, 0.1 * b))


def test_cosine_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_cosine_clamped(rng):
    a = rng.normal(size=4)
    assert cosine_similarity(a, -a) == -1.0


# --- pairing ---

def _pair_manifest():
    rows = [
        make_row("F_B0", speaker="F1", gender="female"),
        make_row("F_S0", speaker="F1", gender="female", bonafide=False,
                 attack_id="A07", attack_type="TTS"),
        make_row("F_S1", speaker="F1", gender="female", bonafide=False,
                 attack_id="A08", attack_type="VC"),
        make_row("F_S2", speaker="F1", gender="female", bonafide=False,
                 attack_id="A07", attack_type="TTS"),
        make_row("M_B0", speaker="M1", gender="male"),
        make_row("M_S0", speaker="M1", gender="male", bonafide=False,
                 attack_id="A07", attack_type="TTS"),
        make_row("L_B0", speaker="LONE", gender="male"),  # no spoofs: skipped
    ]
    return Manifest(rows=tuple(rows))


def test_pairing_counts_and_mean(rng):
    manifest = _pair_manifest()
    reprs = {r.utt_id: rng.normal(size=6) for r in manifest.rows}
    records, skipped = bonafide_spoof_pairing(manifest, reprs, "embedding")
    assert skipped == 1
    assert len(records) == 2  # F_B0 averages 3 distances, M_B0 averages 1
    rec = {r.bonafide_utt: r for r in records}
    expected = np.mean([cosine_distance(reprs["F_B0"], reprs[s])
                        for s in ("F_S0", "F_S1", "F_S2")])
    assert np.isclose(rec["F_B0"].mean_distance, expected)
    assert rec["M_B0"].gender == "male"


def test_pairing_identical_spoofs_zero_distance():
    manifest = _pair_manifest()
    vec = np.array([1.0, 2.0, 3.0])
    reprs = {r.utt_id: vec for r in manifest.rows}
    records, _ = bonafide_spoof_pairing(manifest, reprs, "embedding")
    for rec in records:
        assert rec.mean_distance == 0.0


def test_pairing_spectral_uses_itakura_saito():
    manifest = _pair_manifest()
    base = np.full((4, 3), 2.0)
    reprs = {r.utt_id: (base if r.is_bonafide else base * math.e) for r in manifest.rows}
    records, _ = bonafide_spoof_pairing(manifest, reprs, "encoder_spectral")
    # per bin: 1/e - ln(1/e) - 1 = 1/e, times 3 bins
    expected = 3.0 * (1.0 / math.e)
    for rec in records:
        assert abs(rec.mean_distance - expected) < 1e-12


def test_pairing_missing_representation():
    manifest = _pair_manifest()
    with pytest.raises(ValueError, match="missing representation"):
        bonafide_spoof_pairing(manifest, {}, "embedding")


def test_pairing_planted_gender_offset(rng):
    # male spoof embeddings pushed farther than female: male mean exceeds female
    rows = []
    reprs = {}
    for s in range(8):
        gender = "female" if s % 2 == 0 else "male"
        spk = f"P{s}"
        base = rng.normal(size=12)
        base /= np.linalg.norm(base)
        rows.append(make_row(f"{spk}_B", speaker=spk, gender=gender))
        reprs[f"{spk}_B"] = base
        shift = 0.2 if gender == "female" else 1.5
        for u in range(3):
            utt = f"{spk}_S{u}"
            rows.append(make_row(utt, speaker=spk, gender=gender, bonafide=False,
                                 attack_id="A07", attack_type="TTS"))
            reprs[utt] = base + shift * rng.normal(size=12)
    records, _ = bonafide_spoof_pairing(Manifest(rows=tuple(rows)), reprs, "embedding")
    female, male = summarize_by_gender(records)
    assert male.mean > female.mean


def _reference_itakura_saito(P, Q):
    """The out-of-place formula of the first version."""
    ratio = P / Q
    return float(np.sum(ratio - np.log(ratio) - 1.0) / P.shape[0])


def test_is_bit_identical_to_reference():
    from embprobe.synth import gen_tone
    from embprobe.trait_extract import power_spectrogram

    tones = [power_spectrogram(gen_tone(f, 0.5, sr=16000, amplitude=0.5)).frames
             for f in (150.0, 230.0)]
    rng = make_rng(6, "is-ref")
    noise = [np.exp(rng.normal(size=(48, 257))) for _ in range(2)]
    for P, Q in (tones, noise, (tones[0], noise[0][:tones[0].shape[0]])):
        assert itakura_saito(P, Q) == _reference_itakura_saito(P, Q)
        assert itakura_saito(Q, P) == _reference_itakura_saito(Q, P)


def _reference_pairing(manifest, reprs, kind):
    """Per-bonafide loop over the whole corpus, as in the first version."""
    dist = cosine_distance if kind == "embedding" else itakura_saito
    records = []
    for row in manifest.rows:
        spoofs = [s.utt_id for s in manifest.rows
                  if not s.is_bonafide and s.speaker_id == row.speaker_id]
        if row.is_bonafide and spoofs:
            records.append(PairedDistanceRecord(
                row.utt_id, float(np.mean([dist(reprs[row.utt_id], reprs[s]) for s in spoofs])),
                row.speaker_id, row.gender, kind))
    return records


def _assert_matches_reference(records, reference, kind, abs_tol=0.0):
    """Embedding records equal the per-pair reference exactly. Spectral ones
    agree to 1e-12 relative (or `abs_tol`): the pairing sums Itakura-Saito by
    algebra, in another order than the per-pair formula."""
    if kind == "embedding":
        assert records == reference
        return
    assert [dataclasses.replace(r, mean_distance=0.0) for r in records] == [
        dataclasses.replace(r, mean_distance=0.0) for r in reference]
    for rec, ref in zip(records, reference):
        assert math.isclose(rec.mean_distance, ref.mean_distance, rel_tol=1e-12, abs_tol=abs_tol)


def _interleaved_manifest():
    # rows of A, B and C alternate; C has no spoofs, D has no bonafide rows
    speakers = {"A": "female", "B": "male", "C": "male", "D": "female"}
    layout = ["A_B0", "B_B0", "A_S0", "C_B0", "B_S0", "A_B1", "D_S0", "B_B1",
              "A_S1", "B_S1", "C_B1", "A_B2", "B_S2", "A_S2", "B_B2", "D_S1"]
    rows = []
    for utt in layout:
        spk, role = utt.split("_")
        bonafide = role.startswith("B")
        rows.append(make_row(utt, speaker=spk, gender=speakers[spk], bonafide=bonafide,
                             attack_id=None if bonafide else "A07",
                             attack_type=None if bonafide else "TTS"))
    return Manifest(rows=tuple(rows))


@pytest.mark.parametrize("kind", ["embedding", "encoder_spectral"])
def test_pairing_loader_matches_dict_and_reference(tmp_path, rng, kind):
    manifest = _interleaved_manifest()
    shape = (6,) if kind == "embedding" else (5, 9)
    reprs = {r.utt_id: np.exp(rng.normal(size=shape)) for r in manifest.rows}
    from_dict, skipped = bonafide_spoof_pairing(manifest, reprs, kind)
    from_loader, skipped_loader = bonafide_spoof_pairing(manifest, reprs.__getitem__, kind)
    assert skipped == skipped_loader == 2  # C_B0, C_B1
    assert [r.bonafide_utt for r in from_dict] == [
        "A_B0", "B_B0", "A_B1", "B_B1", "A_B2", "B_B2"]  # manifest order
    assert from_dict == from_loader
    _assert_matches_reference(from_dict, _reference_pairing(manifest, reprs, kind), kind)
    write_distance_records(from_dict, tmp_path / "dict.csv")
    write_distance_records(from_loader, tmp_path / "loader.csv")
    assert (tmp_path / "dict.csv").read_bytes() == (tmp_path / "loader.csv").read_bytes()
    if kind == "embedding":
        write_distance_records(_reference_pairing(manifest, reprs, kind), tmp_path / "ref.csv")
        assert (tmp_path / "dict.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class _SpyLoader:
    """Hands out fresh copies and tracks which of them are still alive."""

    def __init__(self, manifest, reprs):
        self.rows = manifest.row_map()
        self.n_bona = {}
        for row in manifest.rows:
            self.n_bona[row.speaker_id] = self.n_bona.get(row.speaker_id, 0) + row.is_bonafide
        self.reprs = reprs
        self.requests: list[str] = []
        self.finished: set[str] = set()
        self.alive: set[str] = set()
        self.peak = 0

    def __call__(self, utt):
        speaker = self.rows[utt].speaker_id
        assert speaker not in self.finished, f"{utt}: speaker {speaker} already done"
        if self.requests and self.rows[self.requests[-1]].speaker_id != speaker:
            self.finished.add(self.rows[self.requests[-1]].speaker_id)
        assert all(self.rows[u].speaker_id == speaker for u in self.alive), self.alive
        assert len(self.alive) <= self.n_bona[speaker], (utt, self.alive)
        self.requests.append(utt)
        value = self.reprs[utt].copy()
        self.alive.add(utt)
        weakref.finalize(value, self.alive.discard, utt)
        self.peak = max(self.peak, len(self.alive))
        return value


@pytest.mark.parametrize("kind", ["embedding", "encoder_spectral"])
def test_pairing_streams_one_speaker_at_a_time(rng, kind):
    manifest = _interleaved_manifest()
    shape = (6,) if kind == "embedding" else (5, 9)
    reprs = {r.utt_id: np.exp(rng.normal(size=shape)) for r in manifest.rows}
    spy = _SpyLoader(manifest, reprs)
    records, _ = bonafide_spoof_pairing(manifest, spy, kind)
    assert sorted(spy.requests) == sorted(r.utt_id for r in manifest.rows)  # each once
    assert [spy.rows[u].speaker_id for u in spy.requests] == list("AAAAAABBBBBBCCDD")
    # one speaker's bonafide set plus one spoof: A and B hold 3 + 1
    assert spy.peak == 4
    assert not spy.alive
    _assert_matches_reference(records, _reference_pairing(manifest, reprs, kind), kind)


@st.composite
def _paired_corpora(draw):
    """Speakers with 0-3 bonafide and 0-3 spoofed rows in a drawn order, and
    one log-spectrum per row: frames of one shape, from 1 x 1 up, with log
    entries spanning the range of a floored power spectrogram."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 6)))
    rows, logs = [], {}
    for s in range(draw(st.integers(1, 3))):
        spk, gender = f"P{s}", ("female", "male")[s % 2]
        for role, count in (("B", draw(st.integers(0, 3))), ("S", draw(st.integers(0, 3)))):
            for u in range(count):
                utt = f"{spk}_{role}{u}"
                rows.append(make_row(utt, speaker=spk, gender=gender, bonafide=role == "B",
                                     attack_id=None if role == "B" else "A07",
                                     attack_type=None if role == "B" else "TTS"))
                logs[utt] = draw(arrays(np.float64, shape,
                                        elements=st.floats(-25.0, 25.0)))
    return Manifest(rows=tuple(draw(st.permutations(rows)))), logs


@settings(max_examples=200, deadline=None)
@given(corpus=_paired_corpora())
def test_pairing_matches_reference_on_random_corpora(corpus):
    manifest, logs = corpus
    spectra = {utt: np.exp(log) for utt, log in logs.items()}
    records, _ = bonafide_spoof_pairing(manifest, spectra, "encoder_spectral")
    # where P is close to Q the distance is a small difference of sums of
    # order N and sum |ln P|, so its rounding is absolute, about one ulp per entry
    _assert_matches_reference(records, _reference_pairing(manifest, spectra, "encoder_spectral"),
                              "encoder_spectral", abs_tol=1e-12)
    vectors = {utt: log.reshape(-1) for utt, log in logs.items()}  # signed; may be zero
    try:
        reference = _reference_pairing(manifest, vectors, "embedding")
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            bonafide_spoof_pairing(manifest, vectors, "embedding")
    else:
        assert bonafide_spoof_pairing(manifest, vectors, "embedding")[0] == reference


def test_pairing_unpaired_rows_are_loaded_but_may_be_missing():
    manifest = _pair_manifest()
    requested = []

    def loader(utt):
        requested.append(utt)
        return None if utt == "L_B0" else np.ones(3)

    records, skipped = bonafide_spoof_pairing(manifest, loader, "embedding")
    assert skipped == 1 and len(records) == 2
    assert sorted(requested) == sorted(r.utt_id for r in manifest.rows)

    def broken(utt):
        if utt == "L_B0":
            raise ValueError("L_B0.wav: not a RIFF/WAVE file")
        return np.ones(3)

    with pytest.raises(ValueError, match="L_B0.wav"):
        bonafide_spoof_pairing(manifest, broken, "embedding")


def test_pairing_errors_name_both_utterances():
    manifest = _pair_manifest()
    reprs = {r.utt_id: np.ones((4, 3)) for r in manifest.rows}
    reprs["F_S1"] = np.ones((5, 3))
    with pytest.raises(ValueError, match=r"bonafide 'F_B0' vs spoof 'F_S1': shape mismatch"):
        bonafide_spoof_pairing(manifest, reprs, "encoder_spectral")
    reprs["F_S1"] = np.zeros((4, 3))
    with pytest.raises(ValueError,
                       match=r"bonafide 'F_B0' \(F_B0\.frm\) vs spoof 'F_S1' \(F_S1\.frm\): "
                             r"non-positive"):
        bonafide_spoof_pairing(manifest, reprs, "encoder_spectral",
                               source=lambda utt: f"{utt}.frm")


# --- summaries ---

def _records(gender, values):
    return [PairedDistanceRecord(f"{gender}{i}", v, f"SPK{gender}{i}", gender, "embedding")
            for i, v in enumerate(values)]


def test_summary_identical_sets_full_overlap(rng):
    vals = rng.normal(size=40).tolist()
    female, male = summarize_by_gender(_records("female", vals) + _records("male", vals))
    assert female.overlap_with_peer == 1.0
    assert male.overlap_with_peer == 1.0
    assert female.count == male.count == 40


def test_summary_disjoint_supports_zero_overlap(rng):
    f_vals = rng.uniform(0.0, 1.0, 30).tolist()
    m_vals = rng.uniform(10.0, 11.0, 30).tolist()
    female, male = summarize_by_gender(_records("female", f_vals) + _records("male", m_vals))
    assert female.overlap_with_peer == 0.0


def test_summary_deciles_nondecreasing(rng):
    recs = _records("female", rng.normal(size=25).tolist()) + \
        _records("male", rng.normal(size=25).tolist())
    female, male = summarize_by_gender(recs)
    for summary in (female, male):
        assert len(summary.deciles) == 10
        assert list(summary.deciles) == sorted(summary.deciles)


def test_summary_missing_gender(rng):
    with pytest.raises(ValueError, match="male"):
        summarize_by_gender(_records("female", [1.0, 2.0]))


def test_overlap_symmetric_and_bounded(rng):
    a = rng.normal(0.0, 1.0, 50)
    b = rng.normal(0.5, 1.2, 60)
    ab = histogram_overlap(a, b)
    ba = histogram_overlap(b, a)
    assert ab == ba
    assert 0.0 <= ab <= 1.0


# --- FRM1 format ---

def test_frm1_roundtrip_bytes(tmp_path, rng):
    frames = np.exp(rng.normal(size=(12, 7)))
    p1 = tmp_path / "a.frm"
    p2 = tmp_path / "b.frm"
    write_frames(frames, p1)
    back = read_frames(p1)
    assert back.shape == (12, 7)
    write_frames(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_frm1_truncated(tmp_path, rng):
    path = tmp_path / "t.frm"
    write_frames(np.ones((4, 4)), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match="truncated"):
        read_frames(path)


@pytest.mark.parametrize("n, b", [(0, 4), (4, 0)], ids=["no frames", "no bins"])
def test_frm1_empty_matrix_names_path(tmp_path, n, b):
    path = tmp_path / "e.frm"
    path.write_bytes(b"FRM1" + struct.pack("<II", n, b))
    with pytest.raises(ValueError) as info:
        read_frames(path)
    assert str(info.value) == f"{path}: empty frame matrix ({n} frames x {b} bins)"


# f32 values, so that FRM1 stores each exactly
FRAME_MATRICES = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(st.floats(min_value=0.0, allow_infinity=False, width=32),
                           min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda values: np.array(values).reshape(shape)))


@settings(max_examples=200, deadline=None)
@given(frames=FRAME_MATRICES)
def test_frm1_write_read_write_is_byte_stable(frames):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.frm", Path(tmp) / "b.frm"
        write_frames(frames, first)
        loaded = read_frames(first)
        write_frames(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(loaded, frames)


@settings(max_examples=300, deadline=None)
@given(frames=FRAME_MATRICES, data=st.data())
def test_frm1_truncation_or_byte_flip_loads_or_names_path(frames, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.frm"
        write_frames(frames, path)
        path.write_bytes(damaged(path.read_bytes(), data))
        try:
            loaded = read_frames(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert loaded.ndim == 2 and min(loaded.shape) >= 1
            assert np.all(np.isfinite(loaded))


def test_distance_records_csv(tmp_path):
    recs = _records("female", [0.5, 1.5])
    path = tmp_path / "d.csv"
    write_distance_records(recs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bonafide_utt,speaker_id,gender,representation,mean_distance"
    assert len(lines) == 3
