"""embprobe benchmark: the README pipeline, timed from outside.

    python3 perfbench/run.py --workload probe-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package need not be installed: every
command runs as `python -m embprobe.cli <cmd> --config run.json` with
PYTHONPATH pointing at `src/`.

The loop is closed with one client: one child process per command, one
command at a time, and no concurrency beyond the program's own BLAS threads,
which are left unpinned as users leave them. Set-up generates corpora of the
seed with `embprobe synth`, SETUP_REPEATS up front and more on demand, one
per iteration; `setup_s` is the median synth wall. Each measured iteration
runs partition through report on its own fresh corpus; iterations continue
while the next one is expected to end within `--seconds`. CPU time and peak
RSS come from each child's own rusage (`os.wait4`). Every metric is the
median over iterations; `focus_s` is the wall of the command the workload
stresses (workloads.FOCUS).

With `--trace 1` the commands run in-process through `embprobe.cli.main`,
alternating an untraced and a traced iteration; the traced one reports the
per-layer metrics of tracer.py, and the difference of the two walls is the
tracing overhead.

Every iteration's outputs are checked (checks.py) and digested; digests of
one seed must agree, also with earlier runs of the same source and config in
this checkout (`.perfbench/digests.json`). The last line of standard output is the result JSON;
the line before it holds the per-iteration details, the digest and the
environment record.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import Check, check_outputs, digest
from workloads import FOCUS, config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

TIMED = ("partition", "traits", "probe", "distance", "perturb", "sweep", "report")
SETUP_REPEATS = 3
CONFIG_NAME = "run.json"

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("pipeline_cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("focus_s", "s"))


@dataclass(frozen=True)
class CommandRun:
    command: str
    wall: float
    cpu: float
    rss_mb: float
    ok: bool


class Session:
    """One benchmark run: its corpora, its command runs and its checks."""

    def __init__(self, work: Path, cfg: dict):
        self.work = work
        self.cfg = cfg
        self.setup_walls: list[float] = []
        self.prepared: list[Path] = []
        self.used: list[Path] = []
        self.checks: list[Check] = []  # output checks and commands

    def command_ok(self, d: Path, command: str, ok: bool, detail: str = "") -> bool:
        ok = ok and not (d / "out" / "failures.json").exists()
        self.checks.append(Check(f"command:{d.name}/{command}", ok, detail))
        return ok

    def run_child(self, d: Path, command: str) -> CommandRun:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        with open(d / f"{command}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "embprobe.cli", command, "--config", CONFIG_NAME],
                cwd=d, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.command_ok(d, command, proc.returncode == 0,
                              f"exit {proc.returncode}, see {d / f'{command}.log'}")
        return CommandRun(command, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, ok)

    def run_inprocess(self, d: Path, command: str, tracer=None) -> bool:
        from embprobe import cli
        before = Path.cwd()
        os.chdir(d)
        try:
            with tracer.command_span(command) if tracer else contextlib.nullcontext():
                code = cli.main([command, "--config", CONFIG_NAME])
            detail = f"exit {code}"
        except Exception:  # noqa: BLE001  (a crash is a failed command, recorded)
            code, detail = -1, traceback.format_exc()
            print(detail, file=sys.stderr)
        finally:
            os.chdir(before)
        return self.command_ok(d, command, code == 0, detail)

    def prepare(self) -> None:
        """Generate one corpus with `embprobe synth`; set-up must not fail."""
        d = self.work / f"it{len(self.prepared) + len(self.used)}"
        d.mkdir(parents=True)
        (d / CONFIG_NAME).write_text(json.dumps(self.cfg, indent=1), encoding="utf-8")
        run = self.run_child(d, "synth")
        if not run.ok:
            raise RuntimeError(f"set-up failed: synth in {d}, see {d / 'synth.log'}")
        self.setup_walls.append(run.wall)
        self.prepared.append(d)

    def next_dir(self) -> Path:
        if not self.prepared:
            self.prepare()
        d = self.prepared.pop(0)
        self.used.append(d)
        return d


def _median(values) -> float:
    return float(statistics.median(values))


def measure(session: Session, seconds: float, focus: str) -> tuple[dict, list]:
    """Untraced iterations of the timed commands, one child process each."""
    iterations = []
    deadline = time.perf_counter() + seconds
    while True:
        d = session.next_dir()
        start = time.perf_counter()
        iterations.append([session.run_child(d, c) for c in TIMED])
        if 2 * time.perf_counter() - start > deadline:
            break
    metrics = {
        "setup_s": _median(session.setup_walls),
        "pipeline_s": _median(sum(r.wall for r in it) for it in iterations),
        "pipeline_cpu_s": _median(sum(r.cpu for r in it) for it in iterations),
        "peak_rss_mb": _median(max(r.rss_mb for r in it) for it in iterations),
        "focus_s": _median(r.wall for it in iterations for r in it if r.command == focus),
    }
    samples = [{r.command: {"wall_s": r.wall, "cpu_s": r.cpu, "rss_mb": r.rss_mb}
                for r in it} for it in iterations]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, samples


def measure_traced(session: Session, seconds: float, workload: str) -> tuple[dict, list]:
    """In-process iterations, alternating untraced and traced ones."""
    from tracer import Tracer, layer_metrics, write_spans
    walls = {False: [], True: []}
    tracers = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for traced in (False, True) if len(tracers) % 2 == 0 else (True, False):
            d = session.next_dir()
            tracer = Tracer(workload) if traced else None
            if tracer:
                tracer.install()
            t = time.perf_counter()
            try:
                for c in TIMED:
                    session.run_inprocess(d, c, tracer)
            finally:
                walls[traced].append(time.perf_counter() - t)
                if tracer:
                    tracer.uninstall()
                    tracers.append(tracer)
        if 2 * time.perf_counter() - start > deadline:
            break
    write_spans(session.work / "spans.jsonl", tracers)
    per_tracer = [t.aggregate() for t in tracers]
    names = set().union(*per_tracer)
    values = {n: _median(a.get(n, 0.0) for a in per_tracer) for n in names}
    values["trace.untraced_s"] = _median(walls[False])
    values["trace.traced_s"] = _median(walls[True])
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    samples = [{"untraced_s": u, "traced_s": t} for u, t in zip(walls[False], walls[True])]
    return layer_metrics(values), samples


def environment() -> dict:
    """What the numbers depend on besides the code: cores, versions, BLAS."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 prints only
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "commit": git_commit(ROOT),
        "loadavg_start": os.getloadavg(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def remember_digest(store: Path, cfg: dict, value: str) -> Check:
    """Compare with, then record, the digest of earlier runs in this checkout
    of the same program source and config: runs of one commit must agree."""
    h = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode("utf-8"))
    for path in sorted((SRC / "embprobe").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    earlier = known.setdefault(h.hexdigest(), value)
    store.write_text(json.dumps(known, indent=1), encoding="utf-8")
    return Check("digest_matches_earlier_runs", earlier == value,
                 f"earlier {earlier}, now {value}")


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details). Leaves spans and details
    in `work` and deletes the corpora."""
    env = environment()
    cfg = config(workload, seed, tiny)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    from embprobe.cli import REPORT_SCHEMA  # imported before timing in-process runs
    session = Session(work, cfg)
    for _ in range(SETUP_REPEATS):
        session.prepare()
    start = time.perf_counter()
    if trace:
        metrics, samples = measure_traced(session, seconds, workload)
    else:
        metrics, samples = measure(session, seconds, FOCUS[workload])
    measured = time.perf_counter() - start

    digests = []
    for d in session.used:
        session.checks += check_outputs(d / "out", cfg, seed, REPORT_SCHEMA)
        digests.append(digest(d / "out", cfg))
    session.checks.append(Check("digest_agreement", len(set(digests)) == 1,
                                f"{len(set(digests))} distinct of {len(digests)}"))
    session.checks.append(remember_digest(work.parent / "digests.json", cfg, digests[0]))
    failed = [c for c in session.checks if not c.ok]
    result = {"correct": not failed, "attempted": len(session.checks),
              "failed": len(failed), "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "measured_s": measured, "setup_walls_s": session.setup_walls,
        "iterations": samples, "digest": digests[0],
        "failed_checks": [f"{c.name}: {c.detail}" for c in failed[:20]],
        "environment": env,
    }
    (work / "details.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    for d in session.used + session.prepared:
        shutil.rmtree(d, ignore_errors=True)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(FOCUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from an in-process traced run")
    args = parser.parse_args(argv)
    if not (SRC / "embprobe" / "cli.py").is_file():
        print(f"no embprobe source under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated benchmark still kills and reaps the command it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          WORK / args.workload)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
