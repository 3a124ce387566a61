"""Outside-in tracer for embprobe.

Wraps public functions of the embprobe modules from the benchmark's side,
without editing the program. A module that imported a name directly
(`from .probe_net import train`) holds its own binding, and `probe_net.train`
reaches `forward`, `backward` and `adam_step` through module globals, so every
binding of a wrapped function in every embprobe module is replaced.

Spans are kept in memory as (name, start, end, parent, workload, command)
and written out when the benchmark ends. A span's self time is its duration
minus the time its direct children cover. Counts are computed from each
call's inputs and outputs, so they repeat exactly for one config.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _f0_frames(args, kwargs, result):
    w = _arg(args, kwargs, 0, "w")
    n = int(round(kwargs.get("frame_len", 0.040) * w.sample_rate))
    hop = max(1, int(round(kwargs.get("hop", 0.010) * w.sample_rate)))
    return {"frames": 1 + (len(w.samples) - n) // hop}


def _is_bytes(args, kwargs, result):
    P, Q = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "Q")
    return {"bytes": sum(np.asarray(getattr(v, "frames", v), dtype=np.float64).nbytes
                         for v in (P, Q))}


# (module, function, span name or None for "<module>.<function>", counter)
WRAPPED = (
    ("perturbation", "speed_perturb", None,
     lambda a, k, r: {"samples_out": len(r.samples)}),
    ("trait_extract", "f0_mean", None, _f0_frames),
    ("trait_extract", "snr_estimate", None, None),
    ("trait_extract", "read_wav", None,
     lambda a, k, r: {"bytes": os.stat(_arg(a, k, 0, "path")).st_size}),
    ("trait_extract", "write_wav", None,
     lambda a, k, r: {"bytes": 44 + 2 * len(_arg(a, k, 1, "w").samples)}),
    ("trait_extract", "power_spectrogram", None,
     lambda a, k, r: {"bytes_out": r.frames.nbytes}),
    ("distance_analysis", "itakura_saito", None, _is_bytes),
    ("distance_analysis", "cosine_distance", None, None),
    ("distance_analysis", "bonafide_spoof_pairing", None, None),
    ("probe_net", "train", None, None),
    ("probe_net", "forward", None, None),
    ("probe_net", "backward", None,
     lambda a, k, r: {"rows": len(_arg(a, k, 1, "X"))}),
    ("probe_net", "adam_step", None, None),
    ("probe_net", "predict", None, None),
    ("probe_net", "save_probe", None, None),
    ("metrics", "bootstrap_ci", None, None),
    ("metrics", "permutation_p_value", None, None),
    ("metrics", "eer", None, None),
    ("metrics", "r_squared", None, None),
    ("data_model", "load_manifest", None, None),
    ("data_model", "load_embeddings", None, None),
    ("data_model", "assemble", None, None),
    ("data_model", "partition", None, None),
    ("fileio", "atomic_write_bytes", None,
     lambda a, k, r: {"bytes": len(_arg(a, k, 1, "data"))}),
    ("charts", "bar_chart", "charts", None),
    ("charts", "line_chart", "charts", None),
    ("charts", "histogram_overlay", "charts", None),
)

COMMANDS = ("partition", "traits", "probe", "distance", "perturb", "sweep", "report")


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith(("bytes", "bytes_out")) else "count"


# The per-layer metrics the benchmark reports, in BENCHMARK.json order.
LAYER_METRICS = tuple((name, _unit(name)) for name in (
    "perturbation.speed_perturb.calls", "perturbation.speed_perturb.self_s",
    "perturbation.speed_perturb.samples_out",
    "trait_extract.f0_mean.calls", "trait_extract.f0_mean.self_s",
    "trait_extract.f0_mean.frames", "trait_extract.snr_estimate.self_s",
    "trait_extract.read_wav.self_s", "trait_extract.read_wav.bytes",
    "trait_extract.write_wav.self_s", "trait_extract.write_wav.bytes",
    "trait_extract.power_spectrogram.calls", "trait_extract.power_spectrogram.self_s",
    "trait_extract.power_spectrogram.bytes_out",
    "distance_analysis.itakura_saito.calls", "distance_analysis.itakura_saito.self_s",
    "distance_analysis.itakura_saito.bytes",
    "distance_analysis.cosine_distance.calls", "distance_analysis.cosine_distance.self_s",
    "distance_analysis.bonafide_spoof_pairing.self_s",
    *(f"probe_net.{f}.{m}" for f in ("train", "forward", "backward", "adam_step",
                                     "predict", "save_probe")
      for m in ("calls", "self_s")),
    "probe_net.backward.rows",
    "metrics.bootstrap_ci.self_s", "metrics.permutation_p_value.self_s",
    "metrics.eer.self_s", "metrics.r_squared.calls",
    *(f"data_model.{f}.{m}" for f in ("load_manifest", "load_embeddings", "assemble",
                                      "partition")
      for m in ("calls", "self_s")),
    "fileio.atomic_write_bytes.calls", "fileio.atomic_write_bytes.self_s",
    "fileio.atomic_write_bytes.bytes",
    "charts.self_s",
    *(f"cli.{c}.{m}" for c in COMMANDS for m in ("s", "self_s")),
    "trace.untraced_s", "trace.traced_s", "trace.overhead_s",
))


class Tracer:
    """Records spans around wrapped embprobe calls while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.command = None
        self.spans: list[list] = []  # [name, start, end, parent, workload, command]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.workload, self.command]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def command_span(self, command: str):
        """Root span of one CLI command; its self time is orchestration."""
        self.command = command
        try:
            with self.span(f"cli.{command}"):
                yield
        finally:
            self.command = None

    def _wrapper(self, func, name, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += int(n)
            return result
        return traced

    def install(self) -> None:
        """Replace every binding of each wrapped function in every embprobe module."""
        import embprobe.cli  # noqa: F401  (imports every module that gets patched)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "embprobe" or n.startswith("embprobe."))]
        for module_name, func_name, span_name, counter in WRAPPED:
            func = getattr(sys.modules[f"embprobe.{module_name}"], func_name)
            traced = self._wrapper(func, span_name or f"{module_name}.{func_name}", counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, attr, func))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, func = self._patched.pop()
            setattr(module, attr, func)

    def aggregate(self) -> dict[str, float]:
        """Counts, calls and self time per span name, total time of CLI roots."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float, self.counts)
        for i, (name, start, end, *_) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
            if name.startswith("cli."):
                out[f"{name}.s"] += end - start
        return dict(out)


def write_spans(path, tracers) -> None:
    """Spans of every tracer as JSON lines, parents renumbered file-wide."""
    keys = ("name", "start", "end", "parent", "workload", "command")
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for name, start, end, parent, *rest in tracer.spans:
                parent = None if parent is None else parent + offset
                fh.write(json.dumps(dict(zip(keys, (name, start, end, parent, *rest))))
                         + "\n")
            offset += len(tracer.spans)


def layer_metrics(values: dict[str, float]) -> dict[str, dict]:
    """The LAYER_METRICS subset of `values`; a layer never entered reads 0."""
    return {name: {"value": values.get(name, 0.0) if unit == "s" else int(values.get(name, 0)),
                   "unit": unit}
            for name, unit in LAYER_METRICS}
