import math
import struct

import numpy as np
import pytest

from embprobe.perturbation import speed_perturb
from embprobe.rng import make_rng
from embprobe.synth import gen_tone
from embprobe.trait_extract import (TraitValues, UnvoicedAudioError, Waveform,
                                    chunk_fixed, duration, extract_traits,
                                    f0_mean, power_spectrogram, read_trait_csv,
                                    read_wav, snr_estimate, speaking_rate,
                                    write_trait_csv, write_wav)


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

