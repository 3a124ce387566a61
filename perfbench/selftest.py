"""Self-test of the benchmark harness, on a tiny corpus per workload.

    python3 perfbench/selftest.py [workload ...]

For each workload, an untraced and a traced run with a one-second window
must pass every output check and emit exactly the metrics BENCHMARK.json
names, each with its unit. Then every kind of output check must trip on a
deliberately corrupted artifact, and the digest must move with one byte.
Exits 0 when everything held.
"""
from __future__ import annotations

import json
import sys
import wave
from pathlib import Path

import numpy as np

import run
from checks import _read_wav, check_outputs, digest, tone_frequency
from workloads import SHAPES, config

BENCHMARK = run.ROOT / "BENCHMARK.json"


def _rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _write_wav(path: Path, samples: np.ndarray, sr: int) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sr)
        fh.writeframes(np.clip(np.rint(samples), -32768, 32767).astype("<i2").tobytes())


def _drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _blank_first_f0(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[1] = ""
    lines[1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def _corruptions(out: Path, cfg: dict):
    """(expected failing check, files touched, corruption) triples."""
    rate = cfg["perturb"]["rates"][-1]
    folder = out / cfg["perturb"]["audio_outdir"] / f"r{rate:g}"
    wavs = sorted(folder.glob("*.wav"))
    first = wavs[0]

    def truncate():
        x, sr = _read_wav(first)
        _write_wav(first, x[:-1], sr)

    def detune():
        for path in wavs:
            x, sr = _read_wav(path)
            f = 1.05 * tone_frequency(x, sr)
            _write_wav(path, 16000.0 * np.sin(2 * np.pi * f * np.arange(len(x)) / sr), sr)

    def first_task(doc):
        doc["tasks"][0]["metrics"]["accuracy"] = 0.5

    system = sorted(cfg["embeddings"])[0]
    task = cfg["tasks"][0]
    report = out / "report.json"
    kind = cfg["distance"]["kinds"][-1]
    first_utt = (out / cfg["traits_csv"]).read_text(encoding="utf-8").splitlines()[1]
    return [
        ("report_schema", [report],
         lambda: _rewrite_json(report, lambda d: d.update(version=2))),
        (f"task:{system}/{task['trait']}/{task['scheme']}", [report],
         lambda: _rewrite_json(report, first_task)),
        (f"trait_row:{first_utt.split(',')[0]}", [out / cfg["traits_csv"]],
         lambda: _blank_first_f0(out / cfg["traits_csv"])),
        (f"distance:{kind}", [out / f"distance_records_{kind}.csv"],
         lambda: _drop_last_line(out / f"distance_records_{kind}.csv")),
        (f"perturb_length:r{rate:g}", [first], truncate),
        (f"perturb_f0:r{rate:g}", wavs, detune),
        ("sweep:eer_lowest_at_1", [report],
         lambda: _rewrite_json(report, lambda d: d["sweep"]["1"].update(eer=0.99))),
    ]


def check_workload(workload: str, expected: dict) -> list[str]:
    problems = []
    work = run.WORK / "selftest" / workload
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, details = run.run(workload, 7, 1.0, trace, work, tiny=True)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{workload} trace={int(trace)}: {details['failed_checks']}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected[section]:
            problems.append(f"{workload} trace={int(trace)}: metrics differ from "
                            f"BENCHMARK.json {section}: "
                            f"{sorted(set(got.items()) ^ set(expected[section].items()))}")

    cfg = config(workload, 7, tiny=True)
    session = run.Session(work / "corrupt", cfg)
    session.prepare()
    d = session.next_dir()
    for command in run.TIMED:
        session.run_child(d, command)
    out = d / "out"
    from embprobe.cli import REPORT_SCHEMA

    def failing():
        return {c.name for c in check_outputs(out, cfg, 7, REPORT_SCHEMA) if not c.ok}

    if failing() or not all(c.ok for c in session.checks):
        problems.append(f"{workload}: clean corpus fails {failing()}")
    for name, files, corrupt in _corruptions(out, cfg):
        saved = {p: p.read_bytes() for p in files}
        corrupt()
        if name not in failing():
            problems.append(f"{workload}: corrupting for {name} did not trip it")
        for p, data in saved.items():
            p.write_bytes(data)

    before = digest(out, cfg)
    svg = sorted(out.rglob("*.svg"))[0]
    svg.write_bytes(svg.read_bytes() + b" ")
    if digest(out, cfg) == before:
        problems.append(f"{workload}: digest ignores {svg.name}")
    store = work / "corrupt" / "digests.json"
    run.remember_digest(store, cfg, before)
    if run.remember_digest(store, cfg, digest(out, cfg)).ok:
        problems.append(f"{workload}: a digest differing from an earlier run passes")
    (out / "failures.json").write_text("{}", encoding="utf-8")
    if session.command_ok(d, "report", True):
        problems.append(f"{workload}: a leftover failures.json passes")
    return problems


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(SHAPES)
    sys.path.insert(0, str(run.SRC))
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    expected = {section: {m["name"]: m["unit"] for m in bench[section]}
                for section in ("end_to_end", "per_layer")}
    problems = []
    for workload in names:
        found = check_workload(workload, expected)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
