"""Acoustic trait measurement from raw audio.

Mean F0 (autocorrelation pitch), speaking rate (words per second), duration,
a percentile-energy SNR estimate, and power spectrograms for the spectral
distance analysis. All extractors are deterministic.
"""
from __future__ import annotations

import csv
import functools
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_write_bytes, atomic_write_text, read_utf8_text

POWER_FLOOR = 1e-10


class UnvoicedAudioError(ValueError):
    """Raised when no voiced frames are found."""


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("waveform must be a non-empty 1-D signal")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass
class SpectralFrames:
    """Non-negative frame-level power values (N frames x B bins)."""

    frames: np.ndarray
    frame_shift: float
    frame_length: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError("frames must be a non-empty 2-D array")


@dataclass
class TraitValues:
    duration: float | None = None
    f0_mean: float | None = None
    speaking_rate: float | None = None
    snr: float | None = None


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM RIFF/WAVE file; stereo is downmixed by averaging.

    Samples are scaled by 1/32768 into [-1, 1).
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) != size:
            raise ValueError(f"{path}: truncated chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if size < 16:
                raise ValueError(f"{path}: malformed fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            raw = body
        pos += 8 + size + (size % 2)
    if fmt is None or raw is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise ValueError(
            f"{path}: unsupported encoding (need 16-bit PCM, got format={audio_format}, bits={bits})")
    if channels not in (1, 2):
        raise ValueError(f"{path}: unsupported channel count {channels}")
    if len(raw) % (2 * channels) != 0:
        raise ValueError(f"{path}: truncated chunk b'data'")
    x = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    return Waveform(samples=x / 32768.0, sample_rate=int(sample_rate))


def write_wav(path, w: Waveform) -> None:
    """Write mono 16-bit PCM; samples are clamped to the int16 range."""
    x = np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype("<i2")
    raw = x.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, w.sample_rate,
                                    w.sample_rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(raw))
    atomic_write_bytes(path, header + raw)


def duration(w: Waveform) -> float:
    """Length in seconds."""
    return len(w.samples) / w.sample_rate


def _frame_signal(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Read-only view of the frames of `x` that fit whole, one per row."""
    return np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]


@functools.lru_cache(maxsize=4)
def _f0_phase_tables(nfft: int, oversample: int) -> tuple[np.ndarray, ...]:
    """Read-only tables for evaluating the oversampled autocorrelation.

    `cos_lag[m], sin_lag[m]` are cos and sin of 2*pi*m/nfft, the phase that
    moves spectrum bin k to integer lag l at m = k*l mod nfft. `cos_fine[d, k]`
    (d = 0..oversample) and `sin_fine[d - 1, k]` (d = 1..oversample) are
    c_k * cos and c_k * sin of 2*pi*k*d/(nfft*oversample), weighted as the
    inverse FFT of length nfft*oversample weighs the bins: c_0 = 1, c_k = 2
    for the others, and the Nyquist bin k = nfft/2 is interior (2) once the
    spectrum is zero-padded, oversample > 1, and the edge (1) otherwise.
    """
    phase = 2.0 * np.pi * np.arange(nfft) / nfft
    k = np.arange(nfft // 2 + 1)
    d = np.arange(oversample + 1)[:, None]
    fine = 2.0 * np.pi * (d * k) / (nfft * oversample)
    weight = np.full(k.size, 2.0)
    weight[0] = 1.0
    if oversample == 1:
        weight[-1] = 1.0
    tables = (np.cos(phase), np.sin(phase), weight * np.cos(fine), weight * np.sin(fine[1:]))
    for table in tables:
        table.setflags(write=False)
    return tables


def _frame_power(frames: np.ndarray, nfft: int) -> np.ndarray:
    """Power spectrum of each mean-removed frame, zero-padded to nfft, as a
    complex array with zero imaginary part: the inverse FFT takes it as is,
    where a real input costs it a converted copy."""
    spec = np.fft.rfft(frames - frames.mean(axis=1, keepdims=True), nfft, axis=1)
    power = np.square(spec.real, out=spec.real)
    power += np.square(spec.imag, out=spec.imag)
    spec.imag = 0.0
    return spec


def _integer_lag_acf(power: np.ndarray, lags: np.ndarray,
                     oversample: int) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation of each frame at lag 0 and at the contiguous `lags`,
    as the inverse FFT of length nfft*oversample gives them: with
    oversample > 1 that FFT counts the zero-padded spectrum's Nyquist bin
    twice, this one once, so the missing half is added back."""
    nfft = 2 * (power.shape[1] - 1)
    acf = np.fft.irfft(power, nfft, axis=1)
    nyquist = power[:, -1, None].real / nfft * (oversample > 1)
    seg = acf[:, lags[0]:lags[-1] + 1] + nyquist * np.where(lags % 2, -1.0, 1.0)
    return acf[:, 0] + nyquist[:, 0], seg


def _fine_lag_acf(power: np.ndarray, lag: np.ndarray, oversample: int) -> np.ndarray:
    """Unnormalized autocorrelation of each row of `power` at the fine lags
    lag + d/oversample, d = -oversample..oversample (one column each).

    It is the direct DFT sum_k c_k P_k cos(theta_k + phi_kd) with
    theta_k = 2 pi k lag / nfft and phi_kd = 2 pi k d / (nfft oversample):
    cos(theta) cos(phi) is even in d and sin(theta) sin(phi) odd, so 2 *
    oversample + 1 columns cost oversample + 1 and oversample sums. einsum
    runs its own loops, never a BLAS product that spreads over threads.
    """
    nfft = 2 * (power.shape[1] - 1)
    cos_lag, sin_lag, cos_fine, sin_fine = _f0_phase_tables(nfft, oversample)
    phase = np.multiply.outer(lag, np.arange(power.shape[1]))
    phase &= nfft - 1  # mod nfft, a power of 2
    shifted = cos_lag[phase]
    shifted *= power
    even = np.einsum("fk,dk->fd", shifted, cos_fine)  # d = 0..oversample
    shifted = sin_lag[phase]
    shifted *= power
    odd = np.einsum("fk,dk->fd", shifted, sin_fine)  # d = 1..oversample
    return np.concatenate([(even[:, 1:] + odd)[:, ::-1], even[:, :1],
                           even[:, 1:] - odd], axis=1)


def f0_mean(w: Waveform, floor_hz: float = 75.0, ceiling_hz: float = 600.0,
            frame_len: float = 0.040, hop: float = 0.010,
            voicing_threshold: float = 0.45, oversample: int = 8) -> float:
    """Mean F0 over voiced frames, via normalized autocorrelation.

    Per frame, the mean-removed signal's autocorrelation is normalized at
    lag zero and compensated for the shrinking overlap at larger lags
    (boxcar-window correction N/(N-tau)), so a pure tone peaks at ~1 at its
    period regardless of where it sits in the search band. The pitch peak is
    the first strict local maximum at or above the voicing threshold on the
    integer lags of the band; frames without one are unvoiced and excluded
    from the average. Around that peak only, the autocorrelation is
    evaluated on a lag grid `oversample` times finer (the values a
    zero-padded inverse FFT of length nfft*oversample would give), and its
    maximum there is refined parabolically.

    Parameters
    ----------
    floor_hz, ceiling_hz : search band; the chosen integer lag is a local
        maximum inside [1/ceiling, 1/floor] seconds of lag, and the refined
        lag lies within one sample of it.
    voicing_threshold : minimum normalized autocorrelation for voicing.

    Raises
    ------
    UnvoicedAudioError
        If no frame is voiced.
    """
    sr = w.sample_rate
    if floor_hz <= 0 or floor_hz >= ceiling_hz:
        raise ValueError("need 0 < floor_hz < ceiling_hz")
    if ceiling_hz >= sr / 2:
        raise ValueError("ceiling_hz must be below Nyquist")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    n = int(round(frame_len * sr))
    hopn = max(1, int(round(hop * sr)))
    if n < int(math.ceil(2.0 * sr / floor_hz)):
        raise ValueError("frame too short: need at least two periods at floor_hz")
    x = w.samples
    if len(x) < n:
        raise UnvoicedAudioError("unvoiced audio")
    j_min = max(oversample, int(math.ceil(sr / ceiling_hz * oversample)))
    j_max = min(int(math.floor(sr / floor_hz * oversample)), (n - 1) * oversample)
    l_min = -(-j_min // oversample)
    l_max = j_max // oversample
    if j_min + 1 >= j_max or l_min > l_max:
        raise ValueError("empty lag search band")
    nfft = 1 << int(2 * n - 1).bit_length()
    spec = _frame_power(_frame_signal(x, n, hopn), nfft)

    # the pitch peak, on the integer lags of the band and one either side
    lags = np.arange(l_min - 1, l_max + 2)
    r0, seg = _integer_lag_acf(spec, lags, oversample)
    loud = np.flatnonzero(r0 > 0.0)  # silent frames are skipped
    seg = seg[loud]
    seg *= (n / (n - lags)) / r0[loud, None]
    inner = seg[:, 1:-1]
    peak = (inner > seg[:, :-2]) & (inner > seg[:, 2:]) & (inner >= voicing_threshold)
    voiced = peak.any(axis=1)
    if not voiced.any():
        raise UnvoicedAudioError("unvoiced audio")
    rows = loud[voiced]
    lag = l_min + np.argmax(peak[voiced], axis=1)  # the first such peak

    # the fine grid around it; the spectrum is freed for its temporaries
    power = spec.real[rows]
    del spec
    fine = _fine_lag_acf(power, lag, oversample)
    fine_lags = lag[:, None] + np.arange(-oversample, oversample + 1) / oversample
    fine *= (n / (n - fine_lags)) / (nfft * r0[rows, None])
    # The ends lie below the integer peak, so the fine maximum is interior;
    # the clip only guards against rounding on a flat-topped peak.
    m = np.clip(np.argmax(fine, axis=1), 1, 2 * oversample - 1)
    idx = np.arange(len(m))
    a, b, c = fine[idx, m - 1], fine[idx, m], fine[idx, m + 1]
    denom = a - 2.0 * b + c
    flat = denom == 0.0
    shift = 0.5 * (a - c) / np.where(flat, 1.0, denom)
    shift[flat] = 0.0
    fine_lag = (lag * oversample + (m - oversample) + shift) / oversample
    return float(np.mean(sr / fine_lag))


def speaking_rate(transcript: str | None, dur: float) -> float:
    """Words per second; punctuation-only tokens do not count as words."""
    if dur <= 0:
        raise ValueError("duration must be positive")
    words = [tok for tok in (transcript or "").split()
             if any(ch.isalnum() for ch in tok)]
    return len(words) / dur


def snr_estimate(w: Waveform, frame_len: float = 0.025, hop: float = 0.010) -> float:
    """SNR in dB from frame energies: noise power is the mean over the
    quietest 10% of frames (floored at 1e-10), signal power the mean over
    the loudest 50%."""
    sr = w.sample_rate
    n = int(round(frame_len * sr))
    hopn = max(1, int(round(hop * sr)))
    if len(w.samples) < n:
        raise ValueError("audio too short for SNR estimation")
    frames = _frame_signal(w.samples, n, hopn)
    if frames.shape[0] < 10:
        raise ValueError("audio too short for SNR estimation (need >= 10 frames)")
    power = np.sort(np.mean(frames ** 2, axis=1))
    k_noise = max(1, int(round(0.1 * power.size)))
    k_sig = max(1, int(round(0.5 * power.size)))
    noise = max(float(np.mean(power[:k_noise])), POWER_FLOOR)
    signal = max(float(np.mean(power[-k_sig:])), POWER_FLOOR)
    return 10.0 * math.log10(signal / noise)


def power_spectrogram(w: Waveform, frame_len: float = 0.025, hop: float = 0.010,
                      fft_size: int = 512) -> SpectralFrames:
    """Hann-windowed magnitude-squared spectrum per frame, floored at 1e-10.

    Scaled so the bin sum of each frame equals the windowed time-domain
    energy of that frame (one-sided spectrum with interior bins doubled).
    """
    sr = w.sample_rate
    n = int(round(frame_len * sr))
    hopn = max(1, int(round(hop * sr)))
    if fft_size < n:
        raise ValueError(f"fft_size {fft_size} smaller than the {n}-sample frame")
    if len(w.samples) < n:
        raise ValueError("audio shorter than one frame")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, n)[::hopn] * np.hanning(n)
    spec = np.fft.rfft(frames, fft_size, axis=1)
    power = np.square(spec.real)
    power += np.square(spec.imag, out=spec.imag)
    scale = np.full(power.shape[1], 2.0 / fft_size)
    scale[0] = 1.0 / fft_size
    if fft_size % 2 == 0:
        scale[-1] = 1.0 / fft_size
    power *= scale
    np.maximum(power, POWER_FLOOR, out=power)
    return SpectralFrames(frames=power, frame_shift=hopn / sr, frame_length=n / sr)


def chunk_fixed(w: Waveform, seconds: float) -> Waveform:
    """Truncate to `seconds`, or tile the waveform cyclically if shorter."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    target = int(round(seconds * w.sample_rate))
    if target == len(w.samples):
        return w
    if target < len(w.samples):
        return Waveform(samples=w.samples[:target].copy(), sample_rate=w.sample_rate)
    return Waveform(samples=np.resize(w.samples, target), sample_rate=w.sample_rate)


def extract_traits(w: Waveform, transcript: str | None = None,
                   **f0_kwargs) -> tuple[TraitValues, dict[str, str]]:
    """All four traits for one utterance; per-trait failures are recorded by
    reason instead of aborting."""
    failures: dict[str, str] = {}
    dur = duration(w)
    values = TraitValues(duration=dur)
    try:
        values.f0_mean = f0_mean(w, **f0_kwargs)
    except ValueError as exc:
        failures["f0_mean"] = str(exc)
    if transcript is None:
        failures["speaking_rate"] = "no transcript"
    else:
        values.speaking_rate = speaking_rate(transcript, dur)
    try:
        values.snr = snr_estimate(w)
    except ValueError as exc:
        failures["snr"] = str(exc)
    return values, failures


TRAIT_CSV_COLUMNS = ("utt_id", "f0_mean", "speaking_rate", "duration", "snr")


def write_trait_csv(values: dict[str, TraitValues], path) -> None:
    """CSV `utt_id,f0_mean,speaking_rate,duration,snr`; empty cell = absent."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRAIT_CSV_COLUMNS)
    for utt, tv in values.items():
        writer.writerow([
            utt,
            "" if tv.f0_mean is None else repr(float(tv.f0_mean)),
            "" if tv.speaking_rate is None else repr(float(tv.speaking_rate)),
            "" if tv.duration is None else repr(float(tv.duration)),
            "" if tv.snr is None else repr(float(tv.snr)),
        ])
    atomic_write_text(path, buf.getvalue())


def _trait_cell(cell: str, where: str, column: str) -> float | None:
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{where}: column {column}: bad number {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: column {column}: non-finite value {cell!r}")
    if value < 0 and column != "snr":  # only an SNR in dB can be negative
        raise ValueError(f"{where}: column {column}: negative value {cell!r}")
    return value


def read_trait_csv(path) -> dict[str, TraitValues]:
    path = Path(path)
    out: dict[str, TraitValues] = {}
    reader = csv.reader(io.StringIO(read_utf8_text(path), newline=""))
    header = next(reader, None)
    if header != list(TRAIT_CSV_COLUMNS):
        raise ValueError(f"{path}: line 1: bad header {header!r}")
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        where = f"{path}: line {lineno}"
        if len(rec) != len(TRAIT_CSV_COLUMNS):
            raise ValueError(f"{where}: expected {len(TRAIT_CSV_COLUMNS)} fields")
        out[rec[0]] = TraitValues(**{column: _trait_cell(cell, where, column)
                                     for column, cell in zip(TRAIT_CSV_COLUMNS[1:], rec[1:])})
    if not out:
        raise ValueError(f"{path}: empty trait file")
    return out
