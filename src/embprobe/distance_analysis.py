"""Bonafide-vs-spoof distance analysis, aggregated per speaker and compared
across genders.

Spectral representations are compared with the Itakura-Saito distance,
embeddings with cosine distance (1 - cosine similarity). Gender-wise
distribution "convergence" is operationalized as a histogram overlap
coefficient.
"""
from __future__ import annotations

import csv
import io
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import Manifest
from .fileio import atomic_write_bytes, atomic_write_text
from .trait_extract import SpectralFrames

FRM_MAGIC = b"FRM1"
REPRESENTATION_KINDS = ("encoder_spectral", "embedding")


@dataclass(frozen=True)
class PairedDistanceRecord:
    bonafide_utt: str
    mean_distance: float
    speaker_id: str
    gender: str
    representation: str


@dataclass(frozen=True)
class DistributionSummary:
    group: str
    count: int
    mean: float
    std: float
    deciles: tuple[float, ...]  # 10th..100th percentiles
    overlap_with_peer: float


def _as_frames(value) -> np.ndarray:
    if isinstance(value, SpectralFrames):
        value = value.frames
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def itakura_saito(P, Q) -> float:
    """Itakura-Saito distance sum(P/Q - ln(P/Q) - 1) over all frames and bins,
    normalized by the frame count. Asymmetric; zero iff P == Q."""
    P = _as_frames(P)
    Q = _as_frames(Q)
    if P.shape != Q.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {Q.shape}")
    if np.any(P <= 0.0) or np.any(Q <= 0.0):
        raise ValueError("non-positive spectral entry")
    ratio = P / Q
    ratio -= np.log(ratio)
    ratio -= 1.0
    return float(np.sum(ratio) / P.shape[0])


def cosine_similarity(a, b) -> float:
    """a.b / (|a||b|), clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def cosine_distance(a, b) -> float:
    return 1.0 - cosine_similarity(a, b)


def _present(value, utt: str):
    if value is None:
        raise ValueError(f"missing representation for utt_id {utt!r}")
    return value


def _pair_speaker(load, distance, bonas, spoofs, name) -> list[list[float]]:
    """Distances from each bonafide row to every spoof row, in spoof order.

    Holds the bonafide representations and one spoof at a time; all of them
    are released when this returns.
    """
    held = [_present(load(b.utt_id), b.utt_id) for b in bonas]
    dists: list[list[float]] = [[] for _ in bonas]
    for s in spoofs:
        spoof = _present(load(s.utt_id), s.utt_id)
        for b, bona, out in zip(bonas, held, dists):
            try:
                out.append(distance(bona, spoof))
            except ValueError as exc:
                raise ValueError(f"bonafide {name(b.utt_id)} vs spoof "
                                 f"{name(s.utt_id)}: {exc}") from None
        del spoof  # before the next spoof is loaded
    return dists


def bonafide_spoof_pairing(manifest: Manifest, reprs, kind: str, source=None,
                           ) -> tuple[list[PairedDistanceRecord], int]:
    """Mean distance from each bonafide utterance to every spoofed utterance
    of the same speaker.

    `reprs` maps utt_id to a representation: a mapping, or a loader called
    with the utt_id. The manifest is walked one speaker at a time and every
    row's representation is requested exactly once, so peak memory is one
    speaker's bonafide representations plus one spoof. A row that is not
    paired (its speaker lacks bonafide or spoofed material) is still loaded,
    so a loader's errors surface, but may be missing (None). `source`
    optionally maps a utt_id to the file it came from, quoted in pairing
    errors.

    Returns (records, skipped) in manifest order, where skipped counts
    bonafide utterances whose speaker has no spoofed material. The spectral
    kind expects equal-shape frame matrices (fixed-length chunks); the
    embedding kind uses 1 - cosine.
    """
    if kind not in REPRESENTATION_KINDS:
        raise ValueError(f"unknown representation kind {kind!r}")
    load = reprs.get if isinstance(reprs, Mapping) else reprs
    distance = cosine_distance if kind == "embedding" else itakura_saito

    def name(utt: str) -> str:
        return f"{utt!r}" if source is None else f"{utt!r} ({source(utt)})"

    by_speaker: dict[str, tuple[list, list]] = {}
    for row in manifest.rows:
        by_speaker.setdefault(row.speaker_id, ([], []))[0 if row.is_bonafide else 1].append(row)

    means: dict[str, float] = {}
    skipped = 0
    for bonas, spoofs in by_speaker.values():
        if not bonas or not spoofs:
            for row in bonas + spoofs:
                load(row.utt_id)
            skipped += len(bonas)
            continue
        for b, dists in zip(bonas, _pair_speaker(load, distance, bonas, spoofs, name)):
            means[b.utt_id] = float(np.mean(dists))

    records = [PairedDistanceRecord(
        bonafide_utt=row.utt_id, mean_distance=means[row.utt_id],
        speaker_id=row.speaker_id, gender=row.gender, representation=kind)
        for row in manifest.rows if row.utt_id in means]
    return records, skipped


def histogram_overlap(a, b, bins: int = 50) -> float:
    """Overlap coefficient sum(min(h_a, h_b)) of normalized histograms over
    the shared value range."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty group")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return 1.0
    ha, _ = np.histogram(a, bins=bins, range=(lo, hi))
    hb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    return float(np.minimum(ha / a.size, hb / b.size).sum())


def summarize_by_gender(records, bins: int = 50,
                        ) -> tuple[DistributionSummary, DistributionSummary]:
    """(female, male) distribution summaries of mean distances."""
    groups: dict[str, list[float]] = {"female": [], "male": []}
    for rec in records:
        groups[rec.gender].append(rec.mean_distance)
    for gender, vals in groups.items():
        if not vals:
            raise ValueError(f"no records for gender {gender!r}")
    female = np.asarray(groups["female"])
    male = np.asarray(groups["male"])
    overlap = histogram_overlap(female, male, bins=bins)

    def summary(label: str, vals: np.ndarray) -> DistributionSummary:
        return DistributionSummary(
            group=label, count=int(vals.size), mean=float(vals.mean()),
            std=float(vals.std()),
            deciles=tuple(float(v) for v in np.percentile(vals, np.arange(10, 101, 10))),
            overlap_with_peer=overlap)

    return summary("female", female), summary("male", male)


def write_frames(frames, path) -> None:
    """FRM1: magic, u32 frame count, u32 bins, then N x B f32 LE row-major."""
    arr = _as_frames(frames)
    buf = FRM_MAGIC + struct.pack("<II", arr.shape[0], arr.shape[1])
    atomic_write_bytes(path, buf + np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_frames(path) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != FRM_MAGIC:
        raise ValueError(f"{path}: bad magic (not an FRM1 file)")
    n, b = struct.unpack_from("<II", data, 4)
    expected = 12 + 4 * n * b
    if len(data) != expected:
        raise ValueError(f"{path}: truncated file (expected {expected} bytes, got {len(data)})")
    arr = np.frombuffer(data, dtype="<f4", count=n * b, offset=12)
    arr = arr.astype(np.float64).reshape(n, b)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite value")
    return arr


DISTANCE_CSV_COLUMNS = ("bonafide_utt", "speaker_id", "gender", "representation", "mean_distance")


def write_distance_records(records, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DISTANCE_CSV_COLUMNS)
    for rec in records:
        writer.writerow([rec.bonafide_utt, rec.speaker_id, rec.gender,
                         rec.representation, repr(float(rec.mean_distance))])
    atomic_write_text(path, buf.getvalue())
