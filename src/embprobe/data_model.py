"""Manifests, embedding tables, label spaces, and dataset partitioning."""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (ATTACK_TRAITS, META_TRAITS, PartitionScheme,  # noqa: F401
                     check_train_fraction, resolve_path)
from .fileio import (atomic_write_bytes, atomic_write_text, read_csv, read_json, read_jsonl,
                     reading, write_csv, write_json)
from .rng import make_rng

GENDERS = ("female", "male")
BONAFIDE_CLASS = "bonafide"

MANIFEST_COLUMNS = (
    "utt_id", "speaker_id", "gender", "age", "accent",
    "is_bonafide", "attack_id", "attack_type", "transcript", "audio_path",
)
MANIFEST_REQUIRED = MANIFEST_COLUMNS[:6]  # the other four are optional
MANIFEST_JSONL_SUFFIXES = (".jsonl", ".ndjson")  # any other suffix is CSV
EMB_CSV_SUFFIX = ".csv"  # any other suffix is EMB1

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


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"{where}: bad boolean {text!r}")


def _manifest_row(fields: list[str], where: str) -> ManifestRow:
    # one row from its MANIFEST_COLUMNS cells as text; empty = absent optional
    try:
        age = int(fields[3])
    except ValueError:
        raise ValueError(f"{where}: bad age {fields[3]!r}") from None
    return ManifestRow(
        utt_id=fields[0], speaker_id=fields[1], gender=fields[2], age=age, accent=fields[4],
        is_bonafide=_parse_bool(fields[5], where),
        attack_id=fields[6] or None, attack_type=fields[7] or None,
        transcript=fields[8] or None, audio_path=fields[9] or None,
    )


def _json_cell(obj: dict, key: str, where: str) -> str:
    # a JSONL field as the text its CSV cell holds: null or absent is empty,
    # a number or boolean its JSON text
    value = obj.get(key)
    if value is None and key in MANIFEST_REQUIRED:
        raise ValueError(f"{where}: missing field {key!r}")
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, bool | int | float):
        return json.dumps(value)
    raise ValueError(f"{where}: field {key!r} must be a string, a number or a boolean")


def load_manifest(path) -> Manifest:
    """Load and validate a manifest: JSON lines for a .jsonl or .ndjson suffix, CSV otherwise."""
    path = Path(path)
    with reading(path):
        if path.suffix in MANIFEST_JSONL_SUFFIXES:
            rows = [_manifest_row([_json_cell(obj, key, where) for key in MANIFEST_COLUMNS], where)
                    for where, obj in read_jsonl(path)]
        else:
            rows = [_manifest_row(rec, where) for where, rec in read_csv(path, MANIFEST_COLUMNS)]
        if not rows:
            raise ValueError("empty manifest")
        return Manifest(rows=tuple(rows))


def write_manifest(manifest: Manifest, path) -> None:
    """Write CSV, or JSON lines for a .jsonl or .ndjson suffix; an empty or
    absent optional is an empty cell, or an omitted key."""
    path = Path(path)
    if path.suffix not in MANIFEST_JSONL_SUFFIXES:
        write_csv(path, [MANIFEST_COLUMNS, *([
            row.utt_id, row.speaker_id, row.gender, str(row.age), row.accent,
            "true" if row.is_bonafide else "false",
            row.attack_id or "", row.attack_type or "",
            row.transcript or "", row.audio_path or "",
        ] for row in manifest.rows)])
        return
    lines = [json.dumps({key: value for key, value in vars(row).items()
                         if value or key in MANIFEST_REQUIRED},
                        sort_keys=True, separators=(",", ":")) for row in manifest.rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass
class EmbeddingTable:
    """Fixed-dimension real vectors, one row of `matrix` (float64, n x dim)
    per utterance id in `ids`; `index` maps each id to its row."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.ids = ids = tuple(self.ids)
        self.matrix = matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if not ids:
            raise ValueError("empty table")
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError(f"matrix has shape {matrix.shape}, expected ({len(ids)}, dim)")
        if matrix.shape[1] < 1:
            raise ValueError("dim must be positive")
        self.index = {}
        for i, utt in enumerate(ids):
            if self.index.setdefault(utt, i) != i:
                raise ValueError(f"duplicate utt_id {utt!r}")
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise ValueError(f"{ids[int(np.argmin(finite))]}: non-finite component")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def row(self, utt: str) -> np.ndarray | None:
        """The vector of `utt` (a view of its matrix row), or None."""
        i = self.index.get(utt)
        return None if i is None else self.matrix[i]


def _read_emb_binary(path: Path) -> tuple[list[str], np.ndarray]:
    data = path.read_bytes()
    if data[:4] != EMB_MAGIC:
        raise ValueError("bad magic (not an EMB1 file)")
    dim, count = struct.unpack_from("<II", data, 4)
    pos = 12
    ids: list[str] = []
    vectors: list[bytes] = []
    for _ in range(count):  # a short read raises struct.error: truncated file
        (nlen,) = struct.unpack_from("<H", data, pos)
        utt, vector = struct.unpack_from(f"<{nlen}s{4 * dim}s", data, pos + 2)
        try:
            ids.append(utt.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"utt_id at byte {pos + 2} is not UTF-8 ({exc.reason})") from None
        vectors.append(vector)
        pos += 2 + nlen + 4 * dim
    if pos != len(data):
        raise ValueError(f"trailing bytes after {count} records")
    return ids, np.frombuffer(b"".join(vectors), dtype="<f4").reshape(count, dim)


def _read_emb_csv(path: Path) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    rows: list[list[float]] = []
    dim = None
    for where, rec in read_csv(path):
        if dim is None:  # the first record sets dim, and may be the header
            dim = len(rec) - 1
            if rec[0] == "utt_id":
                continue
        if len(rec) - 1 != dim:
            raise ValueError(f"{where}: dim mismatch across rows")
        try:
            rows.append([float(v) for v in rec[1:]])
        except ValueError:
            raise ValueError(f"{where}: bad float value") from None
        ids.append(rec[0])
    return ids, np.array(rows, dtype=np.float64)


def load_embeddings(path) -> EmbeddingTable:
    """Load an embedding table: CSV for a .csv suffix, EMB1 otherwise."""
    path = Path(path)
    with reading(path):
        ids, matrix = (_read_emb_csv if path.suffix == EMB_CSV_SUFFIX else _read_emb_binary)(path)
        return EmbeddingTable(ids=tuple(ids), matrix=matrix)


def write_embeddings(table: EmbeddingTable, path) -> None:
    """Write CSV (header `utt_id,v0,...`) for a .csv suffix, EMB1 otherwise."""
    path = Path(path)
    if path.suffix == EMB_CSV_SUFFIX:
        write_csv(path, [("utt_id", *(f"v{i}" for i in range(table.dim))),
                         *((utt, *map(repr, vec))
                           for utt, vec in zip(table.ids, table.matrix.tolist()))])
        return
    buf = bytearray()
    buf += EMB_MAGIC
    buf += struct.pack("<II", table.dim, len(table))
    for utt, vec in zip(table.ids, table.matrix.astype("<f4")):
        raw = utt.encode("utf-8")
        buf += struct.pack("<H", len(raw)) + raw + vec.tobytes()
    atomic_write_bytes(path, bytes(buf))


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


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _eval_count(n: int, train_fraction: float) -> int:
    # per-stratum held-out size: at least 1, at most n-1
    return min(n - 1, max(1, _round_half_up((1.0 - train_fraction) * n)))


def _utts_by(rows, key) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row.utt_id)
    return groups


def _stratified_split(groups: dict[str, list[str]], train_fraction: float,
                      rng) -> tuple[list[str], list[str]]:
    # per group in sorted order: a permutation of its sorted utterances, the
    # first _eval_count held out; a single-utterance group goes to train
    train: list[str] = []
    evals: list[str] = []
    for key in sorted(groups):
        utts = sorted(groups[key])
        if len(utts) < 2:
            train.extend(utts)
            continue
        order = rng.permutation(len(utts))
        k = _eval_count(len(utts), train_fraction)
        evals.extend(utts[i] for i in order[:k])
        train.extend(utts[i] for i in order[k:])
    return train, evals


def partition(manifest: Manifest, scheme, train_fraction: float = 0.9,
              seed: int = 0) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a manifest into (train, eval) utt_id tuples.

    T01: bonafide only, utterance split stratified per speaker.
    T02: bonafide only, split by speaker id (disjoint speaker sets).
    T03: all rows, utterance split stratified per attack class incl. bonafide.
    Deterministic given (manifest, scheme, train_fraction, seed).
    """
    scheme = PartitionScheme(scheme)
    check_train_fraction(train_fraction)
    rng = make_rng(seed, "partition", scheme.value)

    if scheme is PartitionScheme.T03:
        groups = _utts_by(manifest.rows, lambda row: trait_label(row, "attack_id"))
        for cls in sorted(groups):
            if len(groups[cls]) < 2:
                raise ValueError(f"T03 infeasible: class {cls!r} has "
                                 f"{len(groups[cls])} utterance(s)")
        train, evals = _stratified_split(groups, train_fraction, rng)
    else:
        groups = _utts_by(manifest.bonafide(), lambda row: row.speaker_id)
        if scheme is PartitionScheme.T01:
            if not groups:
                raise ValueError("no bonafide rows for T01")
            train, evals = _stratified_split(groups, train_fraction, rng)
        else:
            speakers = sorted(groups)
            if len(speakers) < 2:
                raise ValueError("T02 infeasible: fewer than 2 bonafide speakers")
            order = rng.permutation(len(speakers))
            eval_speakers = {speakers[i]
                             for i in order[:_eval_count(len(speakers), train_fraction)]}
            train = [u for s in speakers if s not in eval_speakers for u in groups[s]]
            evals = [u for s in speakers if s in eval_speakers for u in groups[s]]

    return tuple(sorted(train)), tuple(sorted(evals))


def cmd_partition(resolved: dict, cfg: dict) -> list[dict]:
    """The `partition` command: splits/<scheme>.json per listed or task scheme."""
    manifest = load_manifest(resolve_path(cfg, cfg["manifest"]))
    fraction, seed = cfg["partition"]["train_fraction"], cfg["seed"]
    schemes = cfg["partition"]["schemes"] or sorted({t["scheme"] for t in cfg["tasks"]})
    for scheme in schemes:
        train_ids, eval_ids = partition(manifest, scheme, fraction, seed)
        write_json(resolve_path(cfg, f"splits/{scheme}.json"), {
            "scheme": scheme, "train_fraction": fraction, "seed": seed,
            "train": list(train_ids), "eval": list(eval_ids),
        })
    return []


def load_split(cfg: dict, scheme: str) -> tuple[list[str], list[str]]:
    """The (train, eval) utt_ids that `partition` wrote for `scheme`."""
    path = resolve_path(cfg, f"splits/{scheme}.json")
    if not path.exists():
        raise ValueError(f"split file missing for scheme {scheme}: run `partition` first")
    with reading(path):
        doc = read_json(path)
        if not all(isinstance(doc.get(key), list) and all(isinstance(u, str) for u in doc[key])
                   for key in ("train", "eval")):
            raise ValueError("expected 'train' and 'eval' lists of utt_ids")
        return doc["train"], doc["eval"]


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
    positions: list[int] = []
    norms: list[float] = []
    targets: list = []
    for utt in utt_ids:
        row = rows.get(utt)
        if row is None:
            raise ValueError(f"utt_id {utt!r} not present in manifest")
        i = table.index.get(utt)
        if i is None:
            raise ValueError(f"missing embedding for utt_id {utt!r}")
        positions.append(i)
        if unit_norm:
            norm = np.linalg.norm(table.matrix[i])
            if norm == 0.0:
                raise ValueError(f"{utt}: zero embedding cannot be unit-normalized")
            norms.append(norm)
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
    X = table.matrix[positions]
    if unit_norm:
        X /= np.asarray(norms)[:, None]  # the same division by each row's norm as row / norm
    dtype = np.int64 if task.kind == "classification" else np.float64
    return ProbingDataset(utt_ids=tuple(utt_ids), X=X,
                          y=np.asarray(targets, dtype=dtype),
                          kind=task.kind, split=split)
