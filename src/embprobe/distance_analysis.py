"""Bonafide-vs-spoof distance analysis, aggregated per speaker and compared
across genders.

Spectral representations are compared with the Itakura-Saito distance,
embeddings with cosine distance (1 - cosine similarity). Gender-wise
distribution "convergence" is operationalized as a histogram overlap
coefficient.
"""
from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .charts import histogram_overlay
from .config import check_bins, resolve_path
from .data_model import Manifest, load_embeddings, load_manifest
from .fileio import atomic_write_bytes, reading, write_csv, write_json
from .trait_extract import SpectralFrames, chunk_fixed, power_spectrogram, read_wav

FRM_MAGIC = b"FRM1"


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


def _with_log_sum(P) -> tuple[np.ndarray, float | None]:
    """A frame matrix and its sum of logs, None if an entry is not positive."""
    P = _as_frames(P)
    return P, (None if np.any(P <= 0.0) else float(np.sum(np.log(P))))


def _reciprocal_with_log_sum(Q) -> tuple[np.ndarray, float | None]:
    """1/Q and the sum of ln Q; Q itself, and None, if an entry is not positive."""
    Q, log_sum = _with_log_sum(Q)
    return (Q, None) if log_sum is None else (1.0 / Q, log_sum)


def _itakura_saito_by_algebra(bona, spoof) -> float:
    """`itakura_saito(P, Q)` from `_with_log_sum(P)` and
    `_reciprocal_with_log_sum(Q)`: sum(P/Q - ln(P/Q) - 1) is
    sum(P * (1/Q)) - sum ln P + sum ln Q - N, clamped at 0 against rounding."""
    (P, log_p), (inv_q, log_q) = bona, spoof
    if P.shape != inv_q.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {inv_q.shape}")
    if log_p is None or log_q is None:
        raise ValueError("non-positive spectral entry")
    # einsum, not a BLAS dot, whose sum would depend on the thread count
    ratio_sum = np.einsum("ij,ij->", P, inv_q)
    return max(float((ratio_sum - P.size + (log_q - log_p)) / P.shape[0]), 0.0)


def _present(value, utt: str):
    if value is None:
        raise ValueError(f"missing representation for utt_id {utt!r}")
    return value


def _pair_speaker(load, kernel, bonas, spoofs, name) -> list[list[float]]:
    """Distances from each bonafide row to every spoof row, in spoof order.

    Holds the prepared bonafide representations and one prepared spoof at a
    time; all of them are released when this returns.
    """
    bonafide, spoof_of, distance = kernel
    held = [bonafide(_present(load(b.utt_id), b.utt_id)) for b in bonas]
    dists: list[list[float]] = [[] for _ in bonas]
    for s in spoofs:
        spoof = spoof_of(_present(load(s.utt_id), s.utt_id))
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
    kind expects equal-shape frame matrices (fixed-length chunks) and gives
    `itakura_saito` by algebra, to rounding; the embedding kind uses
    `cosine_distance`.
    """
    # kind -> (prepare a bonafide, prepare a spoof, distance of a prepared pair),
    # each representation prepared once; looked up per call, so that a wrapped
    # `cosine_distance` is the one called
    kernels = {"encoder_spectral": (_with_log_sum, _reciprocal_with_log_sum,
                                    _itakura_saito_by_algebra),
               "embedding": (lambda v: v, lambda v: v, cosine_distance)}
    if kind not in kernels:
        raise ValueError(f"unknown representation kind {kind!r}")
    kernel = kernels[kind]
    load = reprs.get if isinstance(reprs, Mapping) else reprs

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
        for b, dists in zip(bonas, _pair_speaker(load, kernel, bonas, spoofs, name)):
            means[b.utt_id] = float(np.mean(dists))

    records = [PairedDistanceRecord(
        bonafide_utt=row.utt_id, mean_distance=means[row.utt_id],
        speaker_id=row.speaker_id, gender=row.gender, representation=kind)
        for row in manifest.rows if row.utt_id in means]
    return records, skipped


def histogram_overlap(a, b, bins: int = 50) -> float:
    """Overlap coefficient sum(min(h_a, h_b)) of normalized histograms over
    the shared value range."""
    check_bins(bins)
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
    with reading(path):
        data = Path(path).read_bytes()
        if data[:4] != FRM_MAGIC:
            raise ValueError("bad magic (not an FRM1 file)")
        n, b = struct.unpack_from("<II", data, 4)
        if n == 0 or b == 0:
            raise ValueError(f"empty frame matrix ({n} frames x {b} bins)")
        expected = 12 + 4 * n * b
        if len(data) != expected:
            raise ValueError(f"truncated file (expected {expected} bytes, got {len(data)})")
        arr = np.frombuffer(data, dtype="<f4", count=n * b, offset=12)
        arr = arr.astype(np.float64).reshape(n, b)
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite value")
        return arr


DISTANCE_CSV_COLUMNS = ("bonafide_utt", "speaker_id", "gender", "representation", "mean_distance")


def write_distance_records(records, path) -> None:
    write_csv(path, [DISTANCE_CSV_COLUMNS, *(
        [rec.bonafide_utt, rec.speaker_id, rec.gender, rec.representation,
         repr(float(rec.mean_distance))] for rec in records)])


def cmd_distance(resolved: dict, cfg: dict) -> list[dict]:
    """The `distance` command: records and a chart per kind, and distance_summary.json."""
    dcfg = cfg["distance"]
    manifest_path = resolve_path(cfg, cfg["manifest"])
    manifest = load_manifest(manifest_path)
    rows = manifest.row_map()
    paired: dict[str, tuple] = {}
    for kind in dcfg["kinds"]:
        source = None  # utt_id -> the file a pairing error names
        if kind == "embedding":
            system = dcfg["system"]
            if system not in cfg["embeddings"]:
                raise ValueError(f"distance system {system!r} has no embeddings path")
            load = load_embeddings(resolve_path(cfg, cfg["embeddings"][system])).row
        else:
            features_dir = dcfg["features_dir"]

            def frm_path(utt: str) -> Path:
                return resolve_path(cfg, f"{features_dir}/{utt}.frm")

            def load(utt: str) -> np.ndarray:
                if features_dir:
                    return read_frames(frm_path(utt))
                if rows[utt].audio_path:
                    wav = read_wav(manifest_path.parent / rows[utt].audio_path)
                    return power_spectrogram(chunk_fixed(wav, dcfg["chunk_seconds"])).frames
                raise ValueError(f"{utt}: no frame features or audio for encoder_spectral")

            source = frm_path if features_dir else None
        # one speaker's representations at a time, each read exactly once
        paired[kind] = bonafide_spoof_pairing(manifest, load, kind, source=source)
    # every kind is paired before the first file is written
    summary: dict[str, dict] = {}
    for kind, (records, skipped) in paired.items():
        write_distance_records(records, resolve_path(cfg, f"distance_records_{kind}.csv"))
        female, male = summarize_by_gender(records, bins=dcfg["bins"])
        summary[kind] = {"female": asdict(female), "male": asdict(male), "skipped": skipped}
        histogram_overlay(
            resolve_path(cfg, f"charts/distance_{kind}.svg"),
            f"Bonafide-spoof distance by gender ({kind})",
            {"female": [r.mean_distance for r in records if r.gender == "female"],
             "male": [r.mean_distance for r in records if r.gender == "male"]},
            bins=dcfg["bins"], xlabel="mean distance")
    write_json(resolve_path(cfg, "distance_summary.json"), summary)
    return []
