"""Output checks and the determinism digest of one pipeline iteration.

Every check reads the artifacts from disk with the standard library and
numpy only (plus the program's published report schema), so a wrong
artifact cannot pass because the program's own reader accepts it.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
import wave
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

ACCURACY_FLOOR = {"gender": 0.9, "attack_id": 0.9}
R2_FLOOR = {"f0_mean": 0.9}
F0_TOLERANCE = 0.01
F0_SAMPLES_PER_RATE = 2
# Byte-stable artifacts: reports, CSVs, SVGs, probes and perturbed WAVs.
DIGEST_SUFFIXES = (".json", ".csv", ".svg", ".prb")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _read_wav(path: Path) -> tuple[np.ndarray, int]:
    with wave.open(str(path), "rb") as fh:
        if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
            raise ValueError(f"{path}: not mono 16-bit PCM")
        raw = fh.readframes(fh.getnframes())
        return np.frombuffer(raw, dtype="<i2").astype(np.float64), fh.getframerate()


def tone_frequency(samples: np.ndarray, sr: int) -> float:
    """Frequency of a pure tone: Hann-windowed, zero-padded FFT peak refined
    by a parabola through the log magnitudes around it."""
    x = samples - samples.mean()
    nfft = 1 << max(18, (8 * len(x) - 1).bit_length())
    mag = np.log(np.abs(np.fft.rfft(x * np.hanning(len(x)), nfft)) + 1e-300)
    k = int(np.argmax(mag[1:-1])) + 1
    a, b, c = mag[k - 1:k + 2]
    denom = a - 2.0 * b + c
    shift = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
    return (k + shift) * sr / nfft


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _checked(name: str, fn) -> Check:
    # a corrupt artifact may raise anything while it is read; that is a failed
    # check, not a crash of the benchmark
    try:
        ok, detail = fn()
    except Exception as exc:  # noqa: BLE001
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, bool(ok), detail)


def _task_checks(report: dict, cfg: dict) -> list[Check]:
    records = {(r.get("system"), r.get("trait"), r.get("scheme")): r
               for r in report.get("tasks") or []}
    checks = []
    for system in sorted(cfg["embeddings"]):
        for task in cfg["tasks"]:
            key = (system, task["trait"], task["scheme"])

            def check(key=key, trait=task["trait"]):
                rec = records.get(key)
                if rec is None or rec["status"] != "ok":
                    return False, f"status {None if rec is None else rec['status']}"
                m = rec["metrics"]
                if trait in ACCURACY_FLOOR:
                    return m["accuracy"] >= ACCURACY_FLOOR[trait], f"accuracy {m['accuracy']}"
                if trait in R2_FLOOR:
                    return m["r_squared"] >= R2_FLOOR[trait], f"r_squared {m['r_squared']}"
                return True, ""
            checks.append(_checked("task:" + "/".join(key), check))
    return checks


def _trait_row_checks(out: Path, cfg: dict, rows: list[dict]) -> list[Check]:
    values = {r["utt_id"]: r for r in _csv_rows(out / cfg["traits_csv"])}
    errors = json.loads((out / "traits_errors.json").read_text(encoding="utf-8"))
    checks = []
    for row in rows:
        utt = row["utt_id"]
        got = values.get(utt)
        missing = [c for c in ("f0_mean", "speaking_rate", "duration", "snr")
                   if got is None or not got[c]]
        ok = not missing and utt not in errors
        checks.append(Check(f"trait_row:{utt}", ok,
                            "" if ok else f"missing {missing}, errors {errors.get(utt)}"))
    return checks


def _distance_check(out: Path, report: dict, rows: list[dict], kind: str) -> Check:
    def check():
        n_bona = sum(r["is_bonafide"] == "true" for r in rows)
        n_rec = len(_csv_rows(out / f"distance_records_{kind}.csv"))
        skipped = report["distance"][kind]["skipped"]
        return n_rec == n_bona and skipped == 0, f"{n_rec} records, {n_bona} bonafide, " \
                                                 f"{skipped} skipped"
    return _checked(f"distance:{kind}", check)


def _perturb_checks(out: Path, cfg: dict, rows: list[dict], seed: int) -> list[Check]:
    pcfg = cfg["perturb"]
    base = out / Path(cfg["manifest"]).parent
    sources = [r for r in rows if r["audio_path"]]
    checks = []
    for rate in pcfg["rates"]:
        folder = out / pcfg["audio_outdir"] / f"r{rate:g}"

        def lengths(rate=rate, folder=folder):
            bad = []
            for r in sources:
                with wave.open(str(base / r["audio_path"]), "rb") as fh:
                    n_src = fh.getnframes()
                with wave.open(str(folder / f"{r['utt_id']}.wav"), "rb") as fh:
                    n_out = fh.getnframes()
                if n_out != max(1, round(n_src / rate)):
                    bad.append(r["utt_id"])
            return not bad, f"{len(bad)} of {len(sources)} with wrong length {bad[:3]}"

        def pitch(rate=rate, folder=folder):
            picks = random.Random(f"{seed}/{rate!r}").sample(
                sources, min(F0_SAMPLES_PER_RATE, len(sources)))
            worst = 0.0
            for r in picks:
                f_src = tone_frequency(*_read_wav(base / r["audio_path"]))
                f_out = tone_frequency(*_read_wav(folder / f"{r['utt_id']}.wav"))
                worst = max(worst, abs(f_out / (f_src * rate) - 1.0))
            return worst <= F0_TOLERANCE, f"worst relative F0 error {worst:.5f}"

        checks.append(_checked(f"perturb_length:r{rate:g}", lengths))
        checks.append(_checked(f"perturb_f0:r{rate:g}", pitch))
    return checks


def _sweep_check(report: dict) -> Check:
    def check():
        eers = {float(k): v["eer"] for k, v in report["sweep"].items()}
        base = eers.pop(1.0)
        return all(base < e for e in eers.values()), f"eer {base} at 1.0, others {eers}"
    return _checked("sweep:eer_lowest_at_1", check)


def check_outputs(out: Path, cfg: dict, seed: int, schema: dict) -> list[Check]:
    """Every output check of one finished pipeline in `out`.

    Probe tasks and trait rows are one check each, so they count as
    operations of their own.
    """
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = _csv_rows(out / cfg["manifest"])
    except (OSError, ValueError) as exc:
        return [Check("report_and_manifest", False, str(exc))]

    def schema_check():
        jsonschema.validate(report, schema)
        return True, ""

    checks = [_checked("report_schema", schema_check)]
    checks += _task_checks(report, cfg)
    try:
        checks += _trait_row_checks(out, cfg, rows)
    except (OSError, ValueError, KeyError) as exc:
        checks.append(Check("trait_rows", False, str(exc)))
    for kind in cfg["distance"]["kinds"]:
        checks.append(_distance_check(out, report, rows, kind))
    checks += _perturb_checks(out, cfg, rows, seed)
    checks.append(_sweep_check(report))
    return checks


def digest(out: Path, cfg: dict) -> str:
    """sha256 over the byte-stable artifacts in `out`, keyed by relative path."""
    perturbed = out / cfg["perturb"]["audio_outdir"]
    files = [p for p in out.rglob("*") if p.is_file() and p.name != "failures.json"
             and (p.suffix in DIGEST_SUFFIXES
                  or (p.suffix == ".wav" and perturbed in p.parents))]
    h = hashlib.sha256()
    for path in sorted(files, key=lambda p: p.relative_to(out).as_posix()):
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
