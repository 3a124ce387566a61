import csv
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embprobe.perturbation import speed_perturb
from embprobe.rng import make_rng
from embprobe.synth import gen_tone
from embprobe.trait_extract import (TraitValues, UnvoicedAudioError, Waveform,
                                    chunk_fixed, duration, extract_traits,
                                    f0_mean, power_spectrogram, read_trait_csv,
                                    read_wav, snr_estimate, speaking_rate,
                                    write_trait_csv, write_wav)

from conftest import damaged


# --- wav io ---

def test_wav_roundtrip(tmp_path):
    w = gen_tone(220.0, 0.25)
    path = tmp_path / "t.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert len(back.samples) == len(w.samples)
    assert np.max(np.abs(back.samples - w.samples)) < 1.0 / 32768.0
    # a second write of the re-read audio is byte-identical
    path2 = tmp_path / "t2.wav"
    write_wav(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_wav_duration_16k(tmp_path):
    w = Waveform(np.zeros(16000), 16000)
    path = tmp_path / "z.wav"
    write_wav(path, w)
    assert duration(read_wav(path)) == 1.0


def _wav_bytes(audio_format=1, channels=1, sr=16000, bits=16, payload=b"\x00\x00" * 64):
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, sr,
                                    sr * channels * bits // 8, channels * bits // 8, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


@pytest.mark.parametrize("wav, message", [
    (_wav_bytes(sr=0), "sample_rate must be positive"),
    (_wav_bytes(payload=b""), "waveform must be a non-empty 1-D signal"),
], ids=["sample rate 0", "empty data chunk"])
def test_wav_waveform_checks_name_the_file(tmp_path, wav, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(wav)
    with pytest.raises(ValueError) as info:
        read_wav(path)
    assert str(info.value) == f"{path}: {message}"


# int16 sample values and a positive rate, which 16-bit PCM stores exactly
WAVEFORMS = st.builds(
    lambda values, sr: Waveform(np.array(values) / 32768.0, sr),
    st.lists(st.integers(-32768, 32767), min_size=1, max_size=64), st.integers(1, 48000))


@settings(max_examples=200, deadline=None)
@given(wav=WAVEFORMS)
def test_wav_write_read_write_is_byte_stable(wav):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.wav", Path(tmp) / "b.wav"
        write_wav(first, wav)
        loaded = read_wav(first)
        write_wav(second, loaded)
        assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(loaded.samples, wav.samples)
    assert loaded.sample_rate == wav.sample_rate


@settings(max_examples=300, deadline=None)
@given(wav=WAVEFORMS, data=st.data())
def test_wav_truncation_or_byte_flip_loads_or_names_path(wav, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.wav"
        write_wav(path, wav)
        path.write_bytes(damaged(path.read_bytes(), data))
        try:
            loaded = read_wav(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert loaded.samples.size >= 1 and loaded.sample_rate > 0
            assert np.all(np.abs(loaded.samples) <= 1.0)


def test_wav_float_format_rejected(tmp_path):
    path = tmp_path / "f.wav"
    path.write_bytes(_wav_bytes(audio_format=3, bits=32))
    with pytest.raises(ValueError, match="unsupported encoding"):
        read_wav(path)


def test_wav_24bit_rejected(tmp_path):
    path = tmp_path / "b24.wav"
    path.write_bytes(_wav_bytes(bits=24, payload=b"\x00" * 96))
    with pytest.raises(ValueError, match="unsupported encoding"):
        read_wav(path)


def test_wav_truncated_chunk(tmp_path):
    data = _wav_bytes()
    path = tmp_path / "trunc.wav"
    path.write_bytes(data[:-10])
    with pytest.raises(ValueError, match="truncated chunk"):
        read_wav(path)


def test_wav_stereo_downmix(tmp_path):
    left = (np.arange(32, dtype=np.int16) * 100)
    right = np.zeros(32, dtype=np.int16)
    inter = np.empty(64, dtype="<i2")
    inter[0::2] = left
    inter[1::2] = right
    path = tmp_path / "st.wav"
    path.write_bytes(_wav_bytes(channels=2, payload=inter.tobytes()))
    w = read_wav(path)
    assert len(w.samples) == 32
    assert np.allclose(w.samples, left / 2.0 / 32768.0)


# --- duration ---

def test_duration_cases():
    assert duration(Waveform(np.zeros(64000), 16000)) == 4.0
    assert duration(Waveform(np.zeros(1), 16000)) == 6.25e-5


def test_duration_additive():
    a = gen_tone(100.0, 0.3)
    b = gen_tone(100.0, 0.7)
    joined = Waveform(np.concatenate([a.samples, b.samples]), 16000)
    assert np.isclose(duration(joined), duration(a) + duration(b))


# --- f0 ---

def test_f0_pure_tone_220():
    assert abs(f0_mean(gen_tone(220.0, 1.0)) - 220.0) < 1.0


def test_f0_white_noise_unvoiced():
    unvoiced = 0
    for trial in range(100):
        noise = make_rng(42, "noise", trial).normal(0.0, 0.1, 16000)
        try:
            f0_mean(Waveform(noise, 16000))
        except UnvoicedAudioError:
            unvoiced += 1
    assert unvoiced >= 95


def test_f0_out_of_band_tone():
    with pytest.raises(UnvoicedAudioError, match="unvoiced audio"):
        f0_mean(gen_tone(100.0, 1.0), floor_hz=75.0, ceiling_hz=90.0)


def test_f0_silence_unvoiced():
    with pytest.raises(UnvoicedAudioError):
        f0_mean(Waveform(np.zeros(16000), 16000))


def test_f0_band_validation():
    w = gen_tone(200.0, 0.5)
    with pytest.raises(ValueError, match="floor_hz"):
        f0_mean(w, floor_hz=500.0, ceiling_hz=100.0)
    with pytest.raises(ValueError, match="frame too short"):
        f0_mean(w, floor_hz=20.0, ceiling_hz=600.0)  # 40 ms < 2 periods at 20 Hz


def _reference_f0_mean(w, floor_hz=75.0, ceiling_hz=600.0, frame_len=0.040, hop=0.010,
                       voicing_threshold=0.45, oversample=8):
    """The earlier f0_mean, kept as the reference: the full zero-padded
    inverse FFT of length nfft*oversample per frame, and the first fine-grid
    peak at or above the threshold."""
    sr = w.sample_rate
    if floor_hz <= 0 or floor_hz >= ceiling_hz:
        raise ValueError("need 0 < floor_hz < ceiling_hz")
    if ceiling_hz >= sr / 2:
        raise ValueError("ceiling_hz must be below Nyquist")
    n = int(round(frame_len * sr))
    hopn = max(1, int(round(hop * sr)))
    if n < int(math.ceil(2.0 * sr / floor_hz)):
        raise ValueError("frame too short: need at least two periods at floor_hz")
    x = w.samples
    if len(x) < n:
        raise UnvoicedAudioError("unvoiced audio")
    n_frames = 1 + (len(x) - n) // hopn
    frames = x[np.arange(n)[None, :] + hopn * np.arange(n_frames)[:, None]]
    frames = frames - frames.mean(axis=1, keepdims=True)
    nfft = 1 << int(2 * n - 1).bit_length()
    spec = np.fft.rfft(frames, nfft, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    fine = np.fft.irfft(power, nfft * oversample, axis=1)
    r0 = fine[:, 0]

    j_min = max(oversample, int(math.ceil(sr / ceiling_hz * oversample)))
    j_max = min(int(math.floor(sr / floor_hz * oversample)), (n - 1) * oversample)
    if j_min + 1 >= j_max:
        raise ValueError("empty lag search band")
    lags = np.arange(j_min - 1, j_max + 2) / oversample
    correction = n / (n - lags)

    voiced = []
    for k in range(frames.shape[0]):
        if r0[k] <= 0.0:  # silent frame
            continue
        seg = fine[k, j_min - 1:j_max + 2] / r0[k] * correction
        inner = seg[1:-1]
        peaks = np.flatnonzero((inner > seg[:-2]) & (inner > seg[2:]))
        chosen = -1
        for p in peaks:  # first peak at/above threshold, in lag order
            if inner[p] >= voicing_threshold:
                chosen = int(p)
                break
        if chosen < 0:
            continue
        a, b, c = seg[chosen], seg[chosen + 1], seg[chosen + 2]
        denom = a - 2.0 * b + c
        shift = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
        lag = (j_min + chosen + shift) / oversample
        voiced.append(sr / lag)
    if not voiced:
        raise UnvoicedAudioError("unvoiced audio")
    return float(np.mean(voiced))


# On a single clear peak both pick the same lag; only rounding differs.
F0_REFERENCE_TOL_HZ = 1e-9


@pytest.mark.parametrize("dur", [0.25, 0.3, 1.0, 4.0])
def test_f0_matches_reference_on_pure_tones(dur):
    freqs = np.linspace(76.0, 590.0, 12 if dur == 4.0 else 40)
    for freq in freqs:
        w = gen_tone(float(freq), dur)
        assert abs(f0_mean(w) - _reference_f0_mean(w)) <= F0_REFERENCE_TOL_HZ, freq


def test_f0_matches_reference_on_speed_perturbed_tones():
    for freq in (110.0, 200.0, 330.0):
        base = gen_tone(freq, 0.5)
        for rate in (0.8, 0.9, 1.1, 1.2):
            w = speed_perturb(base, rate)
            assert abs(f0_mean(w) - _reference_f0_mean(w)) <= F0_REFERENCE_TOL_HZ, (freq, rate)


def test_f0_matches_reference_with_nondefault_parameters():
    w = gen_tone(180.0, 0.3)
    for kwargs in ({"oversample": 1}, {"oversample": 3}, {"oversample": 16},
                   {"floor_hz": 100.0, "ceiling_hz": 400.0}, {"frame_len": 0.03, "hop": 0.005},
                   {"voicing_threshold": 0.9}):
        assert abs(f0_mean(w, **kwargs) - _reference_f0_mean(w, **kwargs)) <= 1e-9, kwargs


def test_f0_voiced_silent_voiced_skips_silent_frames():
    tone = gen_tone(150.0, 0.3).samples
    w = Waveform(np.concatenate([tone, np.zeros(8000), gen_tone(240.0, 0.3).samples]), 16000)
    est = f0_mean(w)
    assert abs(est - _reference_f0_mean(w)) <= F0_REFERENCE_TOL_HZ
    # the silent middle adds no frames: the mean stays between the two tones
    assert 150.0 < est < 240.0


def test_f0_silence_and_short_audio_unvoiced_like_reference():
    for w in (Waveform(np.zeros(16000), 16000), Waveform(np.full(8000, 0.25), 16000),
              gen_tone(200.0, 0.03)):
        with pytest.raises(UnvoicedAudioError, match="unvoiced audio"):
            _reference_f0_mean(w)
        with pytest.raises(UnvoicedAudioError, match="unvoiced audio"):
            f0_mean(w)


@pytest.mark.parametrize("kwargs", [
    {"floor_hz": 500.0, "ceiling_hz": 100.0},
    {"floor_hz": 0.0},
    {"ceiling_hz": 8000.0},
    {"floor_hz": 20.0},
    {"floor_hz": 599.0, "ceiling_hz": 600.0},
])
def test_f0_invalid_parameters_raise_as_reference(kwargs):
    w = gen_tone(200.0, 0.5)
    with pytest.raises(ValueError) as expected:
        _reference_f0_mean(w, **kwargs)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        f0_mean(w, **kwargs)


def test_f0_band_without_integer_lag_is_empty():
    # 16000/100.5 .. 16000/100.2 = 159.2 .. 159.7 samples: no whole lag inside
    with pytest.raises(ValueError, match="empty lag search band"):
        f0_mean(gen_tone(100.3, 0.5), floor_hz=100.2, ceiling_hz=100.5)
    with pytest.raises(ValueError, match="oversample"):
        f0_mean(gen_tone(200.0, 0.5), oversample=0)


# --- speaking rate ---

def test_speaking_rate_cases():
    assert speaking_rate("the quick brown fox", 2.0) == 2.0
    assert speaking_rate("", 3.0) == 0.0
    assert speaking_rate(" ".join(["word"] * 10), 5.0) == 2.0


def test_speaking_rate_ignores_punctuation_tokens():
    assert speaking_rate("hello - world !!", 1.0) == 2.0


def test_speaking_rate_scales_with_duration():
    assert speaking_rate("a b c d", 1.0) == 2.0 * speaking_rate("a b c d", 2.0)


def test_speaking_rate_needs_positive_duration():
    with pytest.raises(ValueError, match="positive"):
        speaking_rate("a b", 0.0)


# --- snr ---

def test_snr_clean_vs_noisy():
    tone = gen_tone(200.0, 0.5).samples
    sig = np.concatenate([tone, np.zeros_like(tone)])  # half signal, half silence
    clean = Waveform(sig, 16000)
    noise = make_rng(3, "snr").normal(0.0, 0.05, sig.size)
    noisy = Waveform(sig + noise, 16000)
    assert snr_estimate(clean) > snr_estimate(noisy)


def test_snr_silence_finite():
    val = snr_estimate(Waveform(np.zeros(16000), 16000))
    assert math.isfinite(val)


def test_snr_uniform_energy_near_zero_db():
    # constant-envelope tone: quietest and loudest frames carry similar power
    val = snr_estimate(gen_tone(200.0, 1.0))
    assert abs(val) < 3.0


def test_snr_too_short():
    with pytest.raises(ValueError, match="too short"):
        snr_estimate(Waveform(np.zeros(500), 16000))


# --- spectrogram ---

def test_spectrogram_parseval():
    w = Waveform(make_rng(4, "spec").normal(0.0, 0.2, 8000), 16000)
    sf = power_spectrogram(w, frame_len=0.025, hop=0.010, fft_size=512)
    # independent oracle: windowed time-domain energy per frame
    n = 400
    hop = 160
    win = np.hanning(n)
    for i in range(sf.frames.shape[0]):
        frame = w.samples[i * hop:i * hop + n] * win
        energy = float(np.sum(frame ** 2))
        assert abs(sf.frames[i].sum() - energy) / energy < 1e-6


def test_spectrogram_zero_signal_floored():
    sf = power_spectrogram(Waveform(np.zeros(16000), 16000))
    assert np.all(sf.frames == 1e-10)


def test_spectrogram_frame_count_4s():
    w = Waveform(np.zeros(64000), 16000)
    sf = power_spectrogram(w, frame_len=0.025, hop=0.010, fft_size=512)
    assert sf.frames.shape[0] == 398  # floor((64000-400)/160)+1


def _reference_power_spectrogram(x, sr, frame_len=0.025, hop=0.010, fft_size=512):
    """The fancy-indexed framing and out-of-place power of the first version."""
    n = int(round(frame_len * sr))
    hopn = max(1, int(round(hop * sr)))
    n_frames = 1 + (len(x) - n) // hopn
    idx = np.arange(n)[None, :] + hopn * np.arange(n_frames)[:, None]
    spec = np.fft.rfft(x[idx] * np.hanning(n), fft_size, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    scale = np.full(power.shape[1], 2.0 / fft_size)
    scale[0] = 1.0 / fft_size
    if fft_size % 2 == 0:
        scale[-1] = 1.0 / fft_size
    power *= scale
    return np.maximum(power, 1e-10)


@pytest.mark.parametrize("kwargs", [{}, {"frame_len": 0.02, "hop": 0.007, "fft_size": 511}])
def test_spectrogram_bit_identical_to_reference(kwargs):
    tone = gen_tone(180.0, 0.6, sr=16000, amplitude=0.5).samples
    noise = make_rng(5, "spec-ref").normal(0.0, 0.3, 9999)
    for x in (tone, noise):
        got = power_spectrogram(Waveform(x, 16000), **kwargs).frames
        want = _reference_power_spectrogram(x, 16000, **kwargs)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_spectrogram_validations():
    w = Waveform(np.zeros(100), 16000)
    with pytest.raises(ValueError, match="shorter than one frame"):
        power_spectrogram(w)
    with pytest.raises(ValueError, match="fft_size"):
        power_spectrogram(Waveform(np.zeros(16000), 16000), fft_size=128)


# --- chunking ---

def test_chunk_truncates():
    w = gen_tone(100.0, 6.0)
    out = chunk_fixed(w, 4.0)
    assert len(out.samples) == 64000
    assert np.array_equal(out.samples, w.samples[:64000])


def test_chunk_tiles_cyclically():
    w = gen_tone(100.0, 3.0)
    out = chunk_fixed(w, 4.0)
    assert len(out.samples) == 64000
    assert np.array_equal(out.samples[:48000], w.samples)
    assert np.array_equal(out.samples[48000:], w.samples[:16000])


def test_chunk_identity():
    w = gen_tone(100.0, 4.0)
    assert chunk_fixed(w, 4.0) is w


# --- trait csv ---

def test_trait_csv_roundtrip(tmp_path):
    values = {
        "U1": TraitValues(duration=1.5, f0_mean=210.25, speaking_rate=2.0, snr=31.5),
        "U2": TraitValues(duration=0.75),
        "U3": TraitValues(),
    }
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trait_csv(values, p1)
    back = read_trait_csv(p1)
    assert back == values
    write_trait_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("row, message", [
    ("U1,nan,2.0,1.5,30.0", "line 2: column f0_mean: non-finite value 'nan'"),
    ("U1,210.0,inf,1.5,30.0", "line 2: column speaking_rate: non-finite value 'inf'"),
    ("U1,210.0,2.0,-1.5,30.0", "line 2: column duration: negative value '-1.5'"),
    ("U1,210.0,2.0,1.5,abc", "line 2: column snr: bad number 'abc'"),
])
def test_trait_csv_bad_number_names_path_line_and_column(tmp_path, row, message):
    path = tmp_path / "traits.csv"
    path.write_text("utt_id,f0_mean,speaking_rate,duration,snr\n" + row + "\n")
    with pytest.raises(ValueError) as info:
        read_trait_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_trait_csv_negative_snr_loads(tmp_path):
    path = tmp_path / "traits.csv"
    path.write_text("utt_id,f0_mean,speaking_rate,duration,snr\nU1,,,1.5,-3.0\n")
    assert read_trait_csv(path) == {"U1": TraitValues(duration=1.5, snr=-3.0)}


def test_trait_csv_invalid_utf8_names_path(tmp_path):
    path = tmp_path / "traits.csv"
    path.write_bytes(b"utt_id,f0_mean,speaking_rate,duration,snr\nU\xff1,,,1.5,\n")
    with pytest.raises(ValueError, match="not UTF-8") as info:
        read_trait_csv(path)
    assert str(path) in str(info.value)


def test_trait_csv_cr_in_utt_id_reads_back(tmp_path):
    values = {"U\r1": TraitValues(duration=1.0), "U\r\n2": TraitValues(snr=-2.5)}
    path = tmp_path / "traits.csv"
    write_trait_csv(values, path)
    assert read_trait_csv(path) == values


def test_trait_csv_field_over_csv_limit_names_the_file(tmp_path):
    path = tmp_path / "traits.csv"
    path.write_text("utt_id,f0_mean,speaking_rate,duration,snr\n\"" + "x" * 140_000 + "\n")
    with pytest.raises(ValueError, match="line 2: field larger than field limit") as info:
        read_trait_csv(path)
    assert str(info.value).startswith(f"{path}: ")


def test_trait_csv_field_count_names_the_count(tmp_path):
    path = tmp_path / "traits.csv"
    path.write_text("utt_id,f0_mean,speaking_rate,duration,snr\nU1,1.0\n")
    with pytest.raises(ValueError) as info:
        read_trait_csv(path)
    assert str(info.value) == f"{path}: line 2: expected 5 fields, got 2"


TEXT = st.text(st.sampled_from(',"\r\n é') | st.characters(blacklist_categories=("Cs",)),
               max_size=8)
VALUE = st.none() | st.floats(min_value=0.0, allow_infinity=False)
TRAIT_TABLES = st.dictionaries(TEXT, st.builds(
    TraitValues, duration=VALUE, f0_mean=VALUE, speaking_rate=VALUE,
    snr=st.none() | st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(values=TRAIT_TABLES)
def test_trait_csv_write_read_write_is_byte_stable(values):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_trait_csv(values, first)
        loaded = read_trait_csv(first)
        write_trait_csv(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded == values


def _reference_trait_csv(values) -> bytes:
    """write_trait_csv as it was, on csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("utt_id", "f0_mean", "speaking_rate", "duration", "snr"))
    for utt, tv in values.items():
        writer.writerow([utt, *("" if v is None else repr(float(v))
                                for v in (tv.f0_mean, tv.speaking_rate, tv.duration, tv.snr))])
    return buf.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(values=TRAIT_TABLES)
def test_trait_csv_bytes_match_csv_writer_without_cr(values):
    """Only a utt_id holding CR, which csv.writer left unquoted, is written anew."""
    values = {utt.replace("\r", ""): tv for utt, tv in values.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trait_csv(values, path)
        assert path.read_bytes() == _reference_trait_csv(values)


@settings(max_examples=300, deadline=None)
@given(values=TRAIT_TABLES, data=st.data())
def test_trait_csv_truncation_or_byte_flip_loads_or_names_path(values, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.csv"
        write_trait_csv(values, path)
        path.write_bytes(damaged(path.read_bytes(), data))
        try:
            loaded = read_trait_csv(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            for tv in loaded.values():
                for column in ("duration", "f0_mean", "speaking_rate", "snr"):
                    value = getattr(tv, column)
                    assert value is None or (math.isfinite(value)
                                             and (value >= 0 or column == "snr"))


def test_extract_traits_records_failures():
    w = Waveform(make_rng(5, "fail").normal(0.0, 0.1, 16000), 16000)
    values, failures = extract_traits(w, None)
    assert values.duration == 1.0
    assert values.f0_mean is None
    assert failures["f0_mean"] == "unvoiced audio"
    assert failures["speaking_rate"] == "no transcript"


def test_extract_traits_full():
    w = gen_tone(220.0, 1.0)
    values, failures = extract_traits(w, "three little words")
    assert abs(values.f0_mean - 220.0) < 1.0
    assert values.speaking_rate == 3.0
    assert "f0_mean" not in failures

