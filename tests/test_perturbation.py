import math
from fractions import Fraction

import numpy as np
import pytest

from embprobe.perturbation import (HALF_TAPS, KAISER_BETA, MAX_RATE_DENOMINATOR,
                                   PerturbSweepConfig, ScoreRow, read_score_file,
                                   run_sweep, speed_perturb, write_score_file)
from embprobe.synth import gen_scores, gen_tone
from embprobe.trait_extract import Waveform, f0_mean


# --- speed perturbation ---

def test_rate_one_is_identity():
    w = gen_tone(200.0, 0.5)
    out = speed_perturb(w, 1.0)
    assert np.array_equal(out.samples, w.samples)
    assert out.sample_rate == w.sample_rate


def test_rate_out_of_range():
    w = gen_tone(200.0, 0.1)
    for rate in (0.4, 2.5, -1.0):
        with pytest.raises(ValueError, match="rate"):
            speed_perturb(w, rate)


def test_length_arithmetic():
    w = gen_tone(150.0, 4.4)  # 70400 samples
    out = speed_perturb(w, 1.1)
    assert abs(len(out.samples) - 64000) <= 1
    for rate in (0.8, 0.9, 1.1, 1.2, 0.5, 2.0):
        out = speed_perturb(w, rate)
        assert abs(len(out.samples) * rate - len(w.samples)) <= 1.0 + 1e-9


def test_tone_pitch_scales():
    w = gen_tone(200.0, 1.0)
    out = speed_perturb(w, 1.1)
    assert abs(f0_mean(out) - 220.0) < 220.0 * 0.01


def test_resampler_linear_exact():
    w = gen_tone(180.0, 0.4, amplitude=0.2)
    scaled = Waveform(w.samples * 2.0, w.sample_rate)  # power-of-two scale is exact
    a = speed_perturb(scaled, 1.2).samples
    b = speed_perturb(w, 1.2).samples * 2.0
    assert np.array_equal(a, b)


def test_roundtrip_duration():
    w = gen_tone(150.0, 1.0)
    back = speed_perturb(speed_perturb(w, 1.2), 1.0 / 1.2)
    assert abs(len(back.samples) - len(w.samples)) <= 2


def test_perturb_deterministic():
    w = gen_tone(170.0, 0.5)
    a = speed_perturb(w, 0.9).samples
    b = speed_perturb(w, 0.9).samples
    assert np.array_equal(a, b)


def _reference_perturb(x, rate, exact=True):
    """Kaiser-sinc resampling that evaluates the window for every output sample.

    With `exact`, output k sits at input position k*p/q in integers; without
    it, at the float product k*rate.
    """
    n_out = max(1, int(round(len(x) / rate)))
    cutoff = min(1.0, 1.0 / rate)
    half = int(math.ceil(HALF_TAPS / cutoff))
    if exact:
        ratio = Fraction(rate).limit_denominator(MAX_RATE_DENOMINATOR)
        base, phase = np.divmod(np.arange(n_out, dtype=np.int64) * ratio.numerator,
                                ratio.denominator)
        frac = phase / ratio.denominator
    else:
        t = np.arange(n_out) * rate
        base = np.floor(t).astype(np.int64)
        frac = t - base
    pad = half + 2
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    y = np.zeros(n_out)
    for j in range(-half, half + 2):
        u = j - frac
        v = u / half
        win = np.zeros_like(u)
        inside = np.abs(v) < 1.0
        win[inside] = np.i0(KAISER_BETA * np.sqrt(1.0 - v[inside] ** 2)) / np.i0(KAISER_BETA)
        y += cutoff * np.sinc(cutoff * u) * win * xp[base + j + pad]
    return y


def _int16(y):
    return np.clip(np.rint(y * 32768.0), -32768, 32767).astype("<i2")


REFERENCE_RATES = (0.5, 0.8, 0.9, 1 / 1.2, 1.1, 1.2, 2.0, 1.037, 0.8137)


@pytest.mark.parametrize("rate", REFERENCE_RATES)
def test_matches_per_sample_reference(rate):
    rng = np.random.Generator(np.random.PCG64(11))
    noise = Waveform(rng.uniform(-0.5, 0.5, 1601), 16000)
    for w in (gen_tone(210.0, 0.1), noise):
        out = speed_perturb(w, rate).samples
        ref = _reference_perturb(w.samples, rate)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12


@pytest.mark.parametrize("n_in,rate", [(1, 0.5), (1, 1.1), (1, 2.0), (2, 2.0), (3, 1.9)])
def test_tiny_inputs_match_reference(n_in, rate):
    w = Waveform(np.linspace(0.3, -0.2, n_in), 16000)
    out = speed_perturb(w, rate).samples
    ref = _reference_perturb(w.samples, rate)
    assert len(out) == max(1, int(round(n_in / rate)))
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_exact_positions_repeat_every_denominator():
    # rate 1.1 = 11/10: output k+10 reads the input 11 samples later at the
    # same phase, so an input of period 11 gives an output of period 10.
    # k*1.1 in floats is off by a few ulps, which breaks this.
    rng = np.random.Generator(np.random.PCG64(5))
    x = np.tile(rng.uniform(-0.5, 0.5, 11), 200)
    out = speed_perturb(Waveform(x, 16000), 1.1).samples[100:-100]
    assert np.array_equal(out[10:], out[:-10])
    drifted = _reference_perturb(x, 1.1, exact=False)[100:-100]
    assert not np.array_equal(drifted[10:], drifted[:-10])


def test_exact_positions_move_float_drift_samples():
    # a 0.3 s tone at rate 1.1: where k*1.1 should be an integer, the float
    # product leaves a fraction of ~1e-13, which brings the window's edge tap
    # (weight 1/I0(beta)) into the sum and moves some 16-bit samples; the
    # output follows the exact positions
    w = gen_tone(200.0, 0.3)
    out = _int16(speed_perturb(w, 1.1).samples)
    assert np.array_equal(out, _int16(_reference_perturb(w.samples, 1.1)))
    drifted = _int16(_reference_perturb(w.samples, 1.1, exact=False))
    assert 0 < np.count_nonzero(out != drifted) < 100


# --- score files ---

def test_score_file_roundtrip(tmp_path):
    rows = gen_scores(10, 12, 2.0, seed=3)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_score_file(rows, p1)
    back = read_score_file(p1)
    assert back == rows
    write_score_file(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_score_file_bad_label(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("U1 0.5 genuine\n")
    with pytest.raises(ValueError, match="bad label"):
        read_score_file(path)


def test_score_file_duplicate(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("U1 0.5 bonafide\nU1 0.2 spoof\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_score_file(path)


def test_score_file_non_finite(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("U1 nan bonafide\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_score_file(path)


def test_score_file_empty(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        read_score_file(path)


# --- sweep ---

def test_sweep_config_validation():
    with pytest.raises(ValueError, match="baseline"):
        PerturbSweepConfig(rates=(0.8, 0.9))
    with pytest.raises(ValueError, match="distinct"):
        PerturbSweepConfig(rates=(1.0, 1.0))


def _write_scores(path, rows):
    write_score_file(rows, path)
    return str(path)


def test_sweep_identical_files_identical_eer(tmp_path):
    rows = gen_scores(40, 40, 1.5, seed=5)
    files = {}
    for rate in (0.9, 1.0, 1.1):
        files[rate] = _write_scores(tmp_path / f"s{rate}.txt", rows)
    results = run_sweep(PerturbSweepConfig(rates=(0.9, 1.0, 1.1), score_files=files))
    eers = {res.eer for res in results.values()}
    assert len(eers) == 1


def test_sweep_missing_class(tmp_path):
    rows = [ScoreRow("U1", 0.5, True), ScoreRow("U2", 0.1, True)]
    files = {1.0: _write_scores(tmp_path / "only_bona.txt", rows)}
    with pytest.raises(ValueError, match="missing class"):
        run_sweep(PerturbSweepConfig(rates=(1.0,), score_files=files))


def test_sweep_missing_file(tmp_path):
    cfg = PerturbSweepConfig(rates=(1.0,), score_files={1.0: str(tmp_path / "nope.txt")})
    with pytest.raises(ValueError, match="missing score file"):
        run_sweep(cfg)


def test_sweep_undeclared_rate(tmp_path):
    rows = gen_scores(10, 10, 1.0, seed=1)
    cfg = PerturbSweepConfig(rates=(1.0, 1.1),
                             score_files={1.0: _write_scores(tmp_path / "a.txt", rows)})
    with pytest.raises(ValueError, match="no score file declared"):
        run_sweep(cfg)


def test_sweep_degrading_families(tmp_path):
    # separation shrinks away from the baseline: EER rises on both sides
    rates = (0.8, 0.9, 1.0, 1.1, 1.2)
    files = {}
    for rate in rates:
        sep = 4.0 - 12.0 * abs(rate - 1.0)
        rows = gen_scores(400, 400, max(0.2, sep), seed=17)
        files[rate] = _write_scores(tmp_path / f"r{rate}.txt", rows)
    results = run_sweep(PerturbSweepConfig(rates=rates, score_files=files),
                        outdir=tmp_path)
    eers = {r: results[r].eer for r in rates}
    assert eers[1.0] < eers[0.9] < eers[0.8]
    assert eers[1.0] < eers[1.1] < eers[1.2]
    assert (tmp_path / "sweep_eer.csv").exists()
    assert (tmp_path / "sweep_eer.svg").exists()


def test_sweep_outputs_idempotent(tmp_path):
    rows = gen_scores(30, 30, 2.0, seed=9)
    files = {1.0: _write_scores(tmp_path / "s.txt", rows)}
    cfg = PerturbSweepConfig(rates=(1.0,), score_files=files)
    run_sweep(cfg, outdir=tmp_path)
    first = (tmp_path / "sweep_eer.csv").read_bytes(), (tmp_path / "sweep_eer.svg").read_bytes()
    run_sweep(cfg, outdir=tmp_path)
    second = (tmp_path / "sweep_eer.csv").read_bytes(), (tmp_path / "sweep_eer.svg").read_bytes()
    assert first == second
