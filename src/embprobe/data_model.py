"""Manifests, embedding tables, label spaces, and dataset partitioning."""
from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .fileio import atomic_write_bytes, atomic_write_text, read_utf8_text
from .rng import make_rng

GENDERS = ("female", "male")
BONAFIDE_CLASS = "bonafide"
META_TRAITS = ("speaker_id", "age", "gender", "accent", "attack_id", "attack_type")
ATTACK_TRAITS = ("attack_id", "attack_type")

MANIFEST_COLUMNS = (
    "utt_id", "speaker_id", "gender", "age", "accent",
    "is_bonafide", "attack_id", "attack_type", "transcript", "audio_path",
)

EMB_MAGIC = b"EMB1"


@dataclass(frozen=True)
class ManifestRow:
    utt_id: str
    speaker_id: str
    gender: str
    age: int
    accent: str
    is_bonafide: bool
    attack_id: str | None = None
    attack_type: str | None = None
    transcript: str | None = None
    audio_path: str | None = None


@dataclass(frozen=True)
class Manifest:
    """Validated per-utterance metadata; utt_ids unique, attack fields consistent."""

    rows: tuple[ManifestRow, ...]

    def __post_init__(self):
        seen = set()
        for i, row in enumerate(self.rows):
            where = f"row {i + 1} ({row.utt_id})"
            if row.utt_id in seen:
                raise ValueError(f"duplicate utt_id {row.utt_id!r}")
            seen.add(row.utt_id)
            if row.gender not in GENDERS:
                raise ValueError(f"{where}: gender must be one of {GENDERS}, got {row.gender!r}")
            if row.is_bonafide and (row.attack_id is not None or row.attack_type is not None):
                raise ValueError(f"{where}: bonafide/attack conflict")
            if not row.is_bonafide and row.attack_id is None:
                raise ValueError(f"{where}: spoofed row missing attack_id")

    def __len__(self) -> int:
        return len(self.rows)

    def row_map(self) -> dict[str, ManifestRow]:
        return {row.utt_id: row for row in self.rows}

    def bonafide(self) -> tuple[ManifestRow, ...]:
        return tuple(row for row in self.rows if row.is_bonafide)

    def speakers(self) -> tuple[str, ...]:
        return tuple(sorted({row.speaker_id for row in self.rows}))


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"{where}: bad boolean {text!r}")


def _read_manifest_csv(path: Path) -> list[ManifestRow]:
    rows = []
    reader = csv.reader(io.StringIO(read_utf8_text(path), newline=""))
    header = next(reader, None)
    if header != list(MANIFEST_COLUMNS):
        raise ValueError(f"{path}: line 1: bad header {header!r}")
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        where = f"{path}: line {lineno}"
        if len(rec) != len(MANIFEST_COLUMNS):
            raise ValueError(f"{where}: expected {len(MANIFEST_COLUMNS)} fields, got {len(rec)}")
        try:
            age = int(rec[3])
        except ValueError:
            raise ValueError(f"{where}: bad age {rec[3]!r}") from None
        rows.append(ManifestRow(
            utt_id=rec[0], speaker_id=rec[1], gender=rec[2], age=age, accent=rec[4],
            is_bonafide=_parse_bool(rec[5], where),
            attack_id=rec[6] or None, attack_type=rec[7] or None,
            transcript=rec[8] or None, audio_path=rec[9] or None,
        ))
    return rows


def _read_manifest_jsonl(path: Path) -> list[ManifestRow]:
    rows = []
    # newline=None splits lines the way a file opened in text mode does
    for lineno, line in enumerate(io.StringIO(read_utf8_text(path), newline=None), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: bad JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: expected an object")
        try:
            rows.append(ManifestRow(
                utt_id=str(obj["utt_id"]), speaker_id=str(obj["speaker_id"]),
                gender=str(obj["gender"]), age=int(obj["age"]), accent=str(obj["accent"]),
                is_bonafide=bool(obj["is_bonafide"]),
                attack_id=obj.get("attack_id"), attack_type=obj.get("attack_type"),
                transcript=obj.get("transcript"), audio_path=obj.get("audio_path"),
            ))
        except KeyError as exc:
            raise ValueError(f"{where}: missing field {exc.args[0]!r}") from None
    return rows


def load_manifest(path, fmt: str | None = None) -> Manifest:
    """Load and validate a manifest from CSV or JSONL.

    fmt defaults to the file suffix (.jsonl for JSON lines, CSV otherwise).
    """
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".ndjson") else "csv"
    if fmt == "csv":
        rows = _read_manifest_csv(path)
    elif fmt == "jsonl":
        rows = _read_manifest_jsonl(path)
    else:
        raise ValueError(f"unknown manifest format {fmt!r}")
    if not rows:
        raise ValueError(f"{path}: empty manifest")
    return Manifest(rows=tuple(rows))


def write_manifest(manifest: Manifest, path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".ndjson") else "csv"
    if fmt == "csv":
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
        atomic_write_text(path, buf.getvalue())
    elif fmt == "jsonl":
        lines = []
        for row in manifest.rows:
            obj = {
                "utt_id": row.utt_id, "speaker_id": row.speaker_id, "gender": row.gender,
                "age": row.age, "accent": row.accent, "is_bonafide": row.is_bonafide,
            }
            for key in ("attack_id", "attack_type", "transcript", "audio_path"):
                value = getattr(row, key)
                if value is not None:
                    obj[key] = value
            lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        atomic_write_text(path, "\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown manifest format {fmt!r}")


@dataclass
class EmbeddingTable:
    """Fixed-dimension real vectors keyed by utterance id."""

    dim: int
    entries: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty table")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for utt, vec in self.entries.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != self.dim:
                raise ValueError(f"{utt}: dim mismatch (expected {self.dim}, got shape {arr.shape})")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{utt}: non-finite component")
            self.entries[utt] = arr

    def __len__(self) -> int:
        return len(self.entries)


def _read_emb_binary(path: Path) -> EmbeddingTable:
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != EMB_MAGIC:
        raise ValueError(f"{path}: bad magic (not an EMB1 file)")
    dim, count = struct.unpack_from("<II", data, 4)
    pos = 12
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        if pos + 2 > len(data):
            raise ValueError(f"{path}: truncated file")
        (nlen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + nlen + 4 * dim > len(data):
            raise ValueError(f"{path}: truncated file")
        try:
            utt = data[pos:pos + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: utt_id at byte {pos} is not UTF-8 ({exc.reason})") from None
        pos += nlen
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=pos).astype(np.float64)
        pos += 4 * dim
        if utt in entries:
            raise ValueError(f"{path}: duplicate utt_id {utt!r}")
        entries[utt] = vec
    if pos != len(data):
        raise ValueError(f"{path}: trailing bytes after {count} records")
    return EmbeddingTable(dim=int(dim), entries=entries)


def _read_emb_csv(path: Path) -> EmbeddingTable:
    entries: dict[str, np.ndarray] = {}
    dim = None
    reader = csv.reader(io.StringIO(read_utf8_text(path), newline=""))
    for lineno, rec in enumerate(reader, start=1):
        if not rec:
            continue
        if lineno == 1 and rec[0] == "utt_id":
            dim = len(rec) - 1
            continue
        where = f"{path}: line {lineno}"
        if dim is None:
            dim = len(rec) - 1
        if len(rec) - 1 != dim:
            raise ValueError(f"{where}: dim mismatch across rows")
        try:
            vec = np.array([float(v) for v in rec[1:]], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{where}: bad float value") from None
        if rec[0] in entries:
            raise ValueError(f"{where}: duplicate utt_id {rec[0]!r}")
        entries[rec[0]] = vec
    if not entries:
        raise ValueError(f"{path}: empty table")
    return EmbeddingTable(dim=int(dim), entries=entries)


def load_embeddings(path, fmt: str | None = None) -> EmbeddingTable:
    """Load an embedding table ("binary" EMB1 or "csv")."""
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix == ".csv" else "binary"
    if fmt == "binary":
        return _read_emb_binary(path)
    if fmt == "csv":
        return _read_emb_csv(path)
    raise ValueError(f"unknown embedding format {fmt!r}")


def write_embeddings(table: EmbeddingTable, path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix == ".csv" else "binary"
    if fmt == "binary":
        buf = bytearray()
        buf += EMB_MAGIC
        buf += struct.pack("<II", table.dim, len(table.entries))
        for utt, vec in table.entries.items():
            raw = utt.encode("utf-8")
            buf += struct.pack("<H", len(raw)) + raw
            buf += np.ascontiguousarray(vec, dtype="<f4").tobytes()
        atomic_write_bytes(path, bytes(buf))
    elif fmt == "csv":
        lines = ["utt_id," + ",".join(f"v{i}" for i in range(table.dim))]
        for utt, vec in table.entries.items():
            lines.append(utt + "," + ",".join(repr(float(v)) for v in vec))
        atomic_write_text(path, "\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown embedding format {fmt!r}")


@dataclass(frozen=True)
class LabelSpace:
    """Ordered class names for one trait, with a 0-based index."""

    trait_name: str
    classes: tuple[str, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("empty label space")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate classes in label space")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.classes)})

    @property
    def size(self) -> int:
        return len(self.classes)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown class {name!r} for trait {self.trait_name!r}") from None


def trait_label(row: ManifestRow, trait: str) -> str | None:
    """Class name of a manifest row for a meta trait (bonafide rows fold into
    a dedicated class for attack traits)."""
    if trait in ATTACK_TRAITS:
        if row.is_bonafide:
            return BONAFIDE_CLASS
        return getattr(row, trait)
    if trait == "age":
        return str(row.age)
    if trait in ("speaker_id", "gender", "accent"):
        return getattr(row, trait)
    raise ValueError(f"unknown meta trait {trait!r}")


def build_label_space(manifest: Manifest, trait: str) -> LabelSpace:
    """Label space over observed values, lexicographically sorted.

    For attack traits the bonafide class is appended last; gender is always
    the fixed (female, male) pair.
    """
    if not manifest.rows:
        raise ValueError("empty manifest")
    if trait == "gender":
        return LabelSpace("gender", GENDERS)
    if trait in ATTACK_TRAITS:
        observed = sorted({
            getattr(row, trait) for row in manifest.rows
            if not row.is_bonafide and getattr(row, trait) is not None
        })
        if not observed:
            raise ValueError(f"trait {trait!r} absent from manifest")
        classes = tuple(observed)
        if any(row.is_bonafide for row in manifest.rows):
            classes = classes + (BONAFIDE_CLASS,)
        return LabelSpace(trait, classes)
    labels = sorted({trait_label(row, trait) for row in manifest.rows})
    return LabelSpace(trait, tuple(labels))


class PartitionScheme(str, Enum):
    T01 = "T01"
    T02 = "T02"
    T03 = "T03"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _eval_count(n: int, train_fraction: float) -> int:
    # per-stratum held-out size: at least 1, at most n-1
    return min(n - 1, max(1, _round_half_up((1.0 - train_fraction) * n)))


def partition(manifest: Manifest, scheme, train_fraction: float = 0.9,
              seed: int = 0) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a manifest into (train, eval) utt_id tuples.

    T01: bonafide only, utterance split stratified per speaker.
    T02: bonafide only, split by speaker id (disjoint speaker sets).
    T03: all rows, utterance split stratified per attack class incl. bonafide.
    Deterministic given (manifest, scheme, train_fraction, seed).
    """
    scheme = PartitionScheme(scheme)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = make_rng(seed, "partition", scheme.value)
    train: list[str] = []
    evals: list[str] = []

    if scheme is PartitionScheme.T01:
        groups: dict[str, list[str]] = {}
        for row in manifest.bonafide():
            groups.setdefault(row.speaker_id, []).append(row.utt_id)
        if not groups:
            raise ValueError("no bonafide rows for T01")
        for speaker in sorted(groups):
            utts = sorted(groups[speaker])
            if len(utts) < 2:
                train.extend(utts)
                continue
            order = rng.permutation(len(utts))
            k = _eval_count(len(utts), train_fraction)
            evals.extend(utts[i] for i in order[:k])
            train.extend(utts[i] for i in order[k:])
    elif scheme is PartitionScheme.T02:
        groups = {}
        for row in manifest.bonafide():
            groups.setdefault(row.speaker_id, []).append(row.utt_id)
        speakers = sorted(groups)
        if len(speakers) < 2:
            raise ValueError("T02 infeasible: fewer than 2 bonafide speakers")
        order = rng.permutation(len(speakers))
        k = _eval_count(len(speakers), train_fraction)
        eval_speakers = {speakers[i] for i in order[:k]}
        for speaker in speakers:
            dest = evals if speaker in eval_speakers else train
            dest.extend(sorted(groups[speaker]))
    else:
        groups = {}
        for row in manifest.rows:
            groups.setdefault(trait_label(row, "attack_id"), []).append(row.utt_id)
        for cls in sorted(groups):
            utts = sorted(groups[cls])
            if len(utts) < 2:
                raise ValueError(f"T03 infeasible: class {cls!r} has {len(utts)} utterance(s)")
            order = rng.permutation(len(utts))
            k = _eval_count(len(utts), train_fraction)
            evals.extend(utts[i] for i in order[:k])
            train.extend(utts[i] for i in order[k:])

    return tuple(sorted(train)), tuple(sorted(evals))


@dataclass(frozen=True)
class TraitTask:
    """A named prediction target: classification over a label space, or
    regression against per-utterance scalar values."""

    name: str
    kind: str
    label_space: LabelSpace | None = None
    values: dict[str, float] | None = None

    def __post_init__(self):
        if self.kind not in ("classification", "regression"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "classification" and self.label_space is None:
            raise ValueError("classification task needs a label space")
        if self.kind == "regression" and self.values is None:
            raise ValueError("regression task needs target values")

    @classmethod
    def classification(cls, manifest: Manifest, trait: str) -> "TraitTask":
        return cls(name=trait, kind="classification",
                   label_space=build_label_space(manifest, trait))

    @classmethod
    def regression(cls, name: str, values: dict[str, float]) -> "TraitTask":
        return cls(name=name, kind="regression", values=dict(values))


@dataclass
class ProbingDataset:
    """Aligned (embedding, target) pairs for one split."""

    utt_ids: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    kind: str
    split: str

    def __len__(self) -> int:
        return len(self.utt_ids)


def assemble(manifest: Manifest, table: EmbeddingTable, task: TraitTask,
             utt_ids, split: str = "train", unit_norm: bool = False) -> ProbingDataset:
    """Join manifest metadata and embeddings into a probing dataset.

    Missing embeddings or missing regression values are hard errors naming
    the offending utt_id; silent drops would bias downstream metrics.
    """
    if split not in ("train", "eval"):
        raise ValueError(f"split must be 'train' or 'eval', got {split!r}")
    rows = manifest.row_map()
    utt_ids = list(utt_ids)
    X = np.empty((len(utt_ids), table.dim), dtype=np.float64)
    targets: list = []
    for i, utt in enumerate(utt_ids):
        row = rows.get(utt)
        if row is None:
            raise ValueError(f"utt_id {utt!r} not present in manifest")
        vec = table.entries.get(utt)
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
    return ProbingDataset(utt_ids=tuple(utt_ids), X=X,
                          y=np.asarray(targets, dtype=dtype),
                          kind=task.kind, split=split)
