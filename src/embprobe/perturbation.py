"""Speed perturbation and the EER-vs-rate sweep harness.

Speed perturbation is band-limited sinc resampling by 1/rate with the output
reinterpreted at the original sample rate, so tempo and pitch both scale by
the rate factor. The sweep consumes externally produced per-rate score files
and reports EER per rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text, read_utf8_text
from .metrics import EERResult, eer
from .trait_extract import Waveform

KAISER_BETA = 8.555
# np.i0(KAISER_BETA), the window's peak, which it is scaled by; a literal,
# since evaluating it at import adds ~0.4 MB of RSS to every command
I0_BETA = 719.3864024730768
HALF_TAPS = 32  # sinc half-width at unit cutoff, in input samples

DEFAULT_RATES = (0.8, 0.9, 1.0, 1.1, 1.2)


@dataclass(frozen=True)
class ScoreRow:
    utt_id: str
    score: float
    is_bonafide: bool


@dataclass(frozen=True)
class PerturbSweepConfig:
    rates: tuple[float, ...] = DEFAULT_RATES
    score_files: dict[float, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.rates)) != len(self.rates):
            raise ValueError("rates must be distinct")
        if any(r <= 0 for r in self.rates):
            raise ValueError("rates must be positive")
        if 1.0 not in self.rates:
            raise ValueError("baseline rate 1.0 must be included")


# Rates are taken as the nearest fraction p/q with q at most this, so output
# positions k*p/q are exact in int64 and the phases repeat every q samples.
MAX_RATE_DENOMINATOR = 1 << 20


def _kaiser_sinc(u: np.ndarray, cutoff: float, half: int) -> np.ndarray:
    v = u / half
    win = np.zeros_like(u)
    inside = np.abs(v) < 1.0
    win[inside] = np.i0(KAISER_BETA * np.sqrt(1.0 - v[inside] ** 2)) / I0_BETA
    return cutoff * np.sinc(cutoff * u) * win


def check_rate(rate: float) -> None:
    """Raise ValueError unless `rate` lies in the supported [0.5, 2.0]."""
    if not 0.5 <= rate <= 2.0:
        raise ValueError(f"rate {rate} outside [0.5, 2.0]")


def speed_perturb(w: Waveform, rate: float) -> Waveform:
    """Scale tempo and pitch by `rate`; output length is round(len/rate).

    Kaiser-windowed sinc interpolation, cutoff lowered to 1/rate when
    speeding up to stay band-limited. Output sample k sits at input position
    k*p/q, with p/q the rate as a fraction, so outputs k = i*q + r share the
    phase of r and read input windows p samples apart. Each output is one dot
    product of a window of the padded input with its phase's row of taps.
    Exactly linear in the input samples; rate 1.0 returns the input unchanged.
    """
    check_rate(rate)
    if rate == 1.0:
        return Waveform(samples=w.samples, sample_rate=w.sample_rate)
    x = w.samples
    n_out = max(1, int(round(len(x) / rate)))
    cutoff = min(1.0, 1.0 / rate)
    half = int(math.ceil(HALF_TAPS / cutoff))
    # imported here: fractions loads decimal, ~0.4 MB of RSS that commands
    # which never resample would otherwise carry
    from fractions import Fraction
    ratio = Fraction(rate).limit_denominator(MAX_RATE_DENOMINATOR)
    p, q = ratio.numerator, ratio.denominator
    # output i*q + r: window start starts[r] + i*p, phase phase[r] / q
    starts, phase = np.divmod(np.arange(min(q, n_out), dtype=np.int64) * p, q)
    frac = phase / q
    offsets = np.arange(-half, half + 2)
    # windows[s] is the input under offsets s - half .. s + half + 1, for
    # every start s < len(x) that an output can have
    xp = np.concatenate([np.zeros(half), x, np.zeros(half + 1)])
    windows = np.lib.stride_tricks.sliding_window_view(xp, len(offsets))
    rows = -(-n_out // q)  # outputs per phase, at most
    y = np.empty(n_out)
    # Taps are built a block of phases at a time, each block no larger than
    # the output. einsum runs its own loops, never a BLAS product that
    # spreads over threads.
    block = max(1, n_out // len(offsets))
    for lo in range(0, len(frac), block):
        table = _kaiser_sinc(offsets - frac[lo:lo + block, None], cutoff, half)
        if len(frac) <= rows:
            # few phases: every output of one phase from a strided view
            for r, taps in enumerate(table, start=lo):
                out = y[r::q]
                out[:] = np.einsum("ij,j->i", windows[starts[r]::p][:len(out)], taps)
        else:
            # many phases: every phase of one row from a gather
            for i in range(rows):
                out = y[i * q + lo:i * q + lo + len(table)]
                if not len(out):
                    break
                out[:] = np.einsum("ij,ij->i", windows[starts[lo:lo + len(out)] + i * p],
                                   table[:len(out)])
    return Waveform(samples=y, sample_rate=w.sample_rate)


def read_score_file(path) -> list[ScoreRow]:
    """Whitespace-separated `utt_id score label` with label bonafide|spoof."""
    path = Path(path)
    rows: list[ScoreRow] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_utf8_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        where = f"{path}: line {lineno}"
        if len(parts) != 3:
            raise ValueError(f"{where}: expected 'utt_id score label'")
        utt, score_text, label = parts
        if label not in ("bonafide", "spoof"):
            raise ValueError(f"{where}: bad label {label!r}")
        try:
            score = float(score_text)
        except ValueError:
            raise ValueError(f"{where}: bad score {score_text!r}") from None
        if not math.isfinite(score):
            raise ValueError(f"{where}: non-finite score")
        if utt in seen:
            raise ValueError(f"{where}: duplicate utt_id {utt!r}")
        seen.add(utt)
        rows.append(ScoreRow(utt_id=utt, score=score, is_bonafide=label == "bonafide"))
    if not rows:
        raise ValueError(f"{path}: empty score file")
    return rows


def write_score_file(rows, path) -> None:
    lines = [f"{r.utt_id} {float(r.score)!r} {'bonafide' if r.is_bonafide else 'spoof'}"
             for r in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def run_sweep(cfg: PerturbSweepConfig, outdir=None) -> dict[float, EERResult]:
    """EER per rate from per-rate score files.

    With `outdir` set, also emits `sweep_eer.csv` and an SVG line chart.
    """
    results: dict[float, EERResult] = {}
    for rate in cfg.rates:
        path = cfg.score_files.get(rate)
        if path is None:
            raise ValueError(f"no score file declared for rate {rate}")
        if not Path(path).exists():
            raise ValueError(f"missing score file for rate {rate}: {path}")
        rows = read_score_file(path)
        pos = [r.score for r in rows if r.is_bonafide]
        neg = [r.score for r in rows if not r.is_bonafide]
        if not pos or not neg:
            raise ValueError(f"rate {rate}: missing class in score file {path}")
        results[rate] = eer(pos, neg)
    if outdir is not None:
        outdir = Path(outdir)
        rates = sorted(results)
        lines = ["rate,eer,threshold"]
        lines += [f"{r!r},{results[r].eer!r},{results[r].threshold!r}" for r in rates]
        atomic_write_text(outdir / "sweep_eer.csv", "\n".join(lines) + "\n")
        from .charts import line_chart
        line_chart(outdir / "sweep_eer.svg", "CM performance vs speed perturbation rate",
                   rates, [100.0 * results[r].eer for r in rates],
                   xlabel="perturbation rate", ylabel="EER (%)")
    return results
