"""The probing model: a small feedforward net trained with Adam.

Two rectified hidden transforms and a linear output head. Classification
heads are trained with cross-entropy over one-hot targets, regression heads
with mean squared error against a single scalar. Everything is plain numpy;
gradients are exact and checked against finite differences in the tests.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_model import EmbeddingTable
from .fileio import atomic_write_bytes
from .rng import make_rng

PRB_MAGIC = b"PRB1"
PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")
DEFAULT_HIDDEN_DIM = 256


@dataclass
class MLPProbe:
    input_dim: int
    hidden_dim: int
    output_dim: int
    task_kind: str
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray
    classes: tuple[str, ...] | None = None
    # z-score stats of the regression target, captured during training
    target_mean: float = 0.0
    target_std: float = 1.0

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def init_probe(input_dim: int, hidden_dim: int, output_dim: int,
               task_kind: str, seed: int = 0) -> MLPProbe:
    """Fresh probe with uniform fan-based weights and zero biases."""
    for name, value in (("input_dim", input_dim), ("hidden_dim", hidden_dim),
                        ("output_dim", output_dim)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if task_kind not in ("classification", "regression"):
        raise ValueError(f"unknown task kind {task_kind!r}")
    if task_kind == "regression" and output_dim != 1:
        raise ValueError("regression probes output a single scalar")
    rng = make_rng(seed, "probe-init")

    def uniform(fan_out: int, fan_in: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    return MLPProbe(
        input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim,
        task_kind=task_kind,
        W1=uniform(hidden_dim, input_dim), b1=np.zeros(hidden_dim),
        W2=uniform(hidden_dim, hidden_dim), b2=np.zeros(hidden_dim),
        W3=uniform(output_dim, hidden_dim), b3=np.zeros(output_dim),
    )


def _affine_stack(probe: MLPProbe, X: np.ndarray):
    z1 = X @ probe.W1.T + probe.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ probe.W2.T + probe.b2
    h2 = np.maximum(z2, 0.0)
    out = h2 @ probe.W3.T + probe.b3
    return z1, h1, z2, h2, out


def _as_batch(probe: MLPProbe, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != probe.input_dim:
        raise ValueError(f"input dim mismatch: expected (*, {probe.input_dim}), got {X.shape}")
    return X


def forward(probe: MLPProbe, X) -> np.ndarray:
    """Logits (classification) or raw scalar outputs (regression), one row per input."""
    return _affine_stack(probe, _as_batch(probe, X))[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, targets) -> float:
    """Mean -log softmax(logits)[target], max-shifted for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        logits = logits[None, :]
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != logits.shape[0]:
        raise ValueError("batch size mismatch between logits and targets")
    if t.size and (t.min() < 0 or t.max() >= logits.shape[1]):
        raise ValueError("target class index out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(t)), t]
    return float(np.mean(log_norm - picked))


def mse(pred, target) -> float:
    """Mean squared error between two equal-length score vectors."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    if p.shape != t.shape:
        raise ValueError("pred and target must have equal length")
    return float(np.mean((p - t) ** 2))


class Gradients(dict):
    """Parameter name -> gradient array; `loss` is the mean batch loss they
    differentiate, from the same forward pass."""

    def __init__(self, grads: dict[str, np.ndarray], loss: float):
        super().__init__(grads)
        self.loss = loss


def backward(probe: MLPProbe, X, targets) -> Gradients:
    """Exact gradients of the mean batch loss w.r.t. every parameter, and
    that loss (cross-entropy or MSE), from one pass through the layers."""
    X = _as_batch(probe, X)
    n = X.shape[0]
    z1, h1, z2, h2, out = _affine_stack(probe, X)
    if probe.task_kind == "classification":
        loss = cross_entropy(out, targets)
        t = np.asarray(targets, dtype=np.int64).reshape(-1)
        dout = softmax(out)
        dout[np.arange(n), t] -= 1.0
        dout /= n
    else:
        loss = mse(out.reshape(-1), targets)
        t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        dout = 2.0 * (out - t) / n
    gW3 = dout.T @ h2
    gb3 = dout.sum(axis=0)
    dh2 = dout @ probe.W3
    dz2 = dh2 * (z2 > 0.0)
    gW2 = dz2.T @ h1
    gb2 = dz2.sum(axis=0)
    dh1 = dz2 @ probe.W2
    dz1 = dh1 * (z1 > 0.0)
    gW1 = dz1.T @ X
    gb1 = dz1.sum(axis=0)
    return Gradients({"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2, "W3": gW3, "b3": gb3},
                     loss)


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_probe(cls, probe: MLPProbe, lr: float = 0.001, beta1: float = 0.9,
                  beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        for name, p in probe.params().items():
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        return state


def adam_step(probe: MLPProbe, state: AdamState,
              grads: dict[str, np.ndarray]) -> tuple[MLPProbe, AdamState]:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    for name, p in probe.params().items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.epsilon)
    return probe, state


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    initial_lr: float = 0.001
    decay_factor: float = 0.1
    decay_every: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must lie in (0, 1]")
        if self.decay_every < 1:
            raise ValueError("decay_every must be >= 1")


@dataclass
class TrainHistory:
    losses: list[float]
    lrs: list[float]


def train(probe: MLPProbe, dataset, cfg: TrainConfig) -> tuple[MLPProbe, TrainHistory]:
    """Mini-batch training loop with a step-wise lr decay schedule.

    Shuffling uses an epoch-dependent stream derived from cfg.seed, so full
    runs are bitwise reproducible. Regression targets are z-scored with the
    training-split statistics, which are stored on the probe so predictions
    can be mapped back to the original scale.
    """
    if dataset.split != "train":
        raise ValueError("train() expects the training split")
    if dataset.kind != probe.task_kind:
        raise ValueError(f"dataset kind {dataset.kind!r} != probe kind {probe.task_kind!r}")
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    X = dataset.X
    if probe.task_kind == "regression":
        mean = float(np.mean(dataset.y))
        std = float(np.std(dataset.y))
        if std == 0.0:
            std = 1.0
        probe.target_mean = mean
        probe.target_std = std
        y = (dataset.y - mean) / std
    else:
        y = dataset.y
    state = AdamState.for_probe(probe, lr=cfg.initial_lr)
    losses: list[float] = []
    lrs: list[float] = []
    for epoch in range(cfg.epochs):
        lr = cfg.initial_lr * cfg.decay_factor ** (epoch // cfg.decay_every)
        state.lr = lr
        order = make_rng(cfg.seed, "shuffle", epoch).permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            Xb = X[idx]
            yb = y[idx]
            grads = backward(probe, Xb, yb)
            adam_step(probe, state, grads)
            total += grads.loss * len(idx)
        losses.append(total / n)
        lrs.append(lr)
    return probe, TrainHistory(losses=losses, lrs=lrs)


def predict(probe: MLPProbe, data):
    """Class indices (argmax, ties to the lowest index) or de-normalized scalars.

    Accepts a batch array, or an EmbeddingTable (returns utt_id -> prediction).
    """
    if isinstance(data, EmbeddingTable):
        utts = list(data.entries)
        batch = np.stack([data.entries[u] for u in utts])
        preds = predict(probe, batch)
        return dict(zip(utts, preds.tolist()))
    out = forward(probe, data)
    if probe.task_kind == "classification":
        return np.argmax(out, axis=1)
    return out.reshape(-1) * probe.target_std + probe.target_mean


def save_probe(probe: MLPProbe, path) -> None:
    """Serialize to the PRB1 format (dims, task kind, classes, target stats,
    then all parameters as f32 little-endian in layer order)."""
    buf = bytearray()
    buf += PRB_MAGIC
    buf += struct.pack("<B", 0 if probe.task_kind == "classification" else 1)
    buf += struct.pack("<III", probe.input_dim, probe.hidden_dim, probe.output_dim)
    classes = probe.classes or ()
    buf += struct.pack("<I", len(classes))
    for name in classes:
        raw = name.encode("utf-8")
        buf += struct.pack("<H", len(raw)) + raw
    buf += struct.pack("<dd", probe.target_mean, probe.target_std)
    for name in PARAM_NAMES:
        buf += np.ascontiguousarray(getattr(probe, name), dtype="<f4").tobytes()
    atomic_write_bytes(path, bytes(buf))


def load_probe(path) -> MLPProbe:
    """Read a PRB1 file; any malformed input raises ValueError naming `path`."""
    data = Path(path).read_bytes()
    if len(data) < 17 or data[:4] != PRB_MAGIC:
        raise ValueError(f"{path}: bad magic (not a PRB1 file)")
    try:
        return _parse_probe(data, path)
    except struct.error:
        raise ValueError(f"{path}: truncated file") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: class name is not UTF-8") from None


def _parse_probe(data: bytes, path) -> MLPProbe:
    (kind_code,) = struct.unpack_from("<B", data, 4)
    if kind_code not in (0, 1):
        raise ValueError(f"{path}: unknown task kind code {kind_code}")
    kind = "classification" if kind_code == 0 else "regression"
    input_dim, hidden_dim, output_dim = struct.unpack_from("<III", data, 5)
    if min(input_dim, hidden_dim, output_dim) < 1:
        raise ValueError(f"{path}: zero dimension")
    (n_classes,) = struct.unpack_from("<I", data, 17)
    # a classification probe records one name per output or none at all
    if kind == "classification" and n_classes not in (0, output_dim):
        raise ValueError(f"{path}: {n_classes} class names for {output_dim} outputs")
    if kind == "regression" and (n_classes != 0 or output_dim != 1):
        raise ValueError(f"{path}: regression probe with {output_dim} outputs "
                         f"and {n_classes} class names")
    pos = 21
    classes: list[str] = []
    for _ in range(n_classes):
        (nlen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        classes.append(data[pos:pos + nlen].decode("utf-8"))
        pos += nlen
    target_mean, target_std = struct.unpack_from("<dd", data, pos)
    pos += 16
    if not (math.isfinite(target_mean) and math.isfinite(target_std)):
        raise ValueError(f"{path}: non-finite target statistics")
    shapes = {
        "W1": (hidden_dim, input_dim), "b1": (hidden_dim,),
        "W2": (hidden_dim, hidden_dim), "b2": (hidden_dim,),
        "W3": (output_dim, hidden_dim), "b3": (output_dim,),
    }
    params = {}
    for name in PARAM_NAMES:
        count = math.prod(shapes[name])
        if pos + 4 * count > len(data):
            raise ValueError(f"{path}: truncated parameter block")
        params[name] = np.frombuffer(data, dtype="<f4", count=count,
                                     offset=pos).astype(np.float64).reshape(shapes[name])
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"{path}: non-finite parameter in {name}")
        pos += 4 * count
    if pos != len(data):
        raise ValueError(f"{path}: trailing bytes")
    return MLPProbe(
        input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim,
        task_kind=kind, classes=tuple(classes) or None,
        target_mean=target_mean, target_std=target_std, **params,
    )
