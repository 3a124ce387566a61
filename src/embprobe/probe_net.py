"""The probing model: a small feedforward net trained with Adam.

Two rectified hidden transforms and a linear output head. Classification
heads are trained with cross-entropy over one-hot targets, regression heads
with mean squared error against a single scalar. Everything is plain numpy;
gradients are exact and checked against finite differences in the tests.
Probes are float32 by default, the precision PRB1 stores, and every step
(forward, backward, Adam, predict) computes in the dtype of the probe.
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


def _param_shapes(input_dim: int, hidden_dim: int,
                 output_dim: int) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in PARAM_NAMES (PRB1 layer) order."""
    return {"W1": (hidden_dim, input_dim), "b1": (hidden_dim,),
            "W2": (hidden_dim, hidden_dim), "b2": (hidden_dim,),
            "W3": (output_dim, hidden_dim), "b3": (output_dim,)}


def _split_params(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Name -> view of `flat` with that shape, consecutive in `shapes` order."""
    out, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        out[name] = flat[start:stop].reshape(shape)
        start = stop
    return out


@dataclass
class MLPProbe:
    """A probe whose six parameters live in one vector, `theta`, in
    PARAM_NAMES order; `W1`...`b3` are views into it. `theta` takes the
    floating dtype of the parameters given (float64 for integer ones).
    Assigning a parameter copies into its view, and copies and pickles
    rebuild the views, so `theta` always holds the current values."""
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
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = _param_shapes(self.input_dim, self.hidden_dim, self.output_dim)
        given = {name: np.asarray(getattr(self, name)) for name in PARAM_NAMES}
        for name, shape in shapes.items():
            if given[name].shape != shape:
                raise ValueError(f"{name} has shape {given[name].shape}, expected {shape}")
        dtype = np.result_type(*given.values())
        if not np.issubdtype(dtype, np.floating):
            dtype = np.float64
        theta = np.concatenate([given[name].reshape(-1) for name in PARAM_NAMES],
                               dtype=dtype)
        vars(self).update(_split_params(theta, shapes), theta=theta)

    def __setattr__(self, name, value):
        if name in PARAM_NAMES and "theta" in vars(self):
            view = getattr(self, name)
            value = np.asarray(value)
            if value.shape != view.shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {view.shape}")
            view[...] = value
        else:
            object.__setattr__(self, name, value)

    def __getstate__(self):
        # copy and pickle would turn the views into arrays of their own
        return {k: v for k, v in vars(self).items() if k not in PARAM_NAMES}

    def __setstate__(self, state):
        vars(self).update(state)
        vars(self).update(self.views(self.theta))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter name -> the view of `flat` (laid out like `theta`)
        shaped as that parameter."""
        return _split_params(flat, _param_shapes(self.input_dim, self.hidden_dim,
                                                 self.output_dim))

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def init_probe(input_dim: int, hidden_dim: int, output_dim: int,
               task_kind: str, seed: int = 0, dtype=np.float32) -> MLPProbe:
    """Fresh probe with uniform fan-based weights and zero biases, its
    parameters of `dtype` (the float64 draws rounded to it)."""
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
        return rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(dtype)

    return MLPProbe(
        input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim,
        task_kind=task_kind,
        W1=uniform(hidden_dim, input_dim), b1=np.zeros(hidden_dim, dtype),
        W2=uniform(hidden_dim, hidden_dim), b2=np.zeros(hidden_dim, dtype),
        W3=uniform(output_dim, hidden_dim), b3=np.zeros(output_dim, dtype),
    )


def _affine_stack(probe: MLPProbe, X: np.ndarray):
    z1 = X @ probe.W1.T + probe.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ probe.W2.T + probe.b2
    h2 = np.maximum(z2, 0.0)
    out = h2 @ probe.W3.T + probe.b3
    return z1, h1, z2, h2, out


def _as_batch(probe: MLPProbe, X) -> np.ndarray:
    X = np.asarray(X, dtype=probe.theta.dtype)
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


def _floating(a) -> np.ndarray:
    """`a` as an array, kept in its floating dtype or made float64."""
    a = np.asarray(a)
    return a if np.issubdtype(a.dtype, np.floating) else a.astype(np.float64)


def cross_entropy(logits, targets) -> float:
    """Mean -log softmax(logits)[target], max-shifted for stability, computed
    in the floating dtype of `logits`."""
    logits = _floating(logits)
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
    """Mean squared error between two equal-length score vectors, computed
    in the floating dtype of `pred` (`target` is rounded to it)."""
    p = _floating(pred).reshape(-1)
    t = np.asarray(target, dtype=p.dtype).reshape(-1)
    if p.shape != t.shape:
        raise ValueError("pred and target must have equal length")
    return float(np.mean((p - t) ** 2))


class Gradients(dict):
    """Parameter name -> gradient array; `loss` is the mean batch loss they
    differentiate, from the same forward pass. The arrays are views into one
    vector, `flat`, laid out like the probe's `theta`."""

    def __init__(self, flat: np.ndarray, grads: dict[str, np.ndarray], loss: float):
        super().__init__(grads)
        self.flat = flat
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
        t = np.asarray(targets, dtype=out.dtype).reshape(-1, 1)
        dout = 2.0 * (out - t) / n
    flat = np.empty_like(probe.theta)
    g = probe.views(flat)
    np.matmul(dout.T, h2, out=g["W3"])
    np.sum(dout, axis=0, out=g["b3"])
    dh2 = dout @ probe.W3
    dz2 = dh2 * (z2 > 0.0)
    np.matmul(dz2.T, h1, out=g["W2"])
    np.sum(dz2, axis=0, out=g["b2"])
    dh1 = dz2 @ probe.W2
    dz1 = dh1 * (z1 > 0.0)
    np.matmul(dz1.T, X, out=g["W1"])
    np.sum(dz1, axis=0, out=g["b1"])
    return Gradients(flat, g, loss)


@dataclass
class AdamState:
    """Adam moments as flat vectors laid out like the probe's `theta` and of
    its dtype, plus two scratch vectors of that size, so a step allocates
    nothing."""
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scratch: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.zeros(0), np.zeros(0)))

    @classmethod
    def for_probe(cls, probe: MLPProbe, lr: float = 0.001, beta1: float = 0.9,
                  beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        return cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon,
                   m=np.zeros_like(probe.theta), v=np.zeros_like(probe.theta),
                   scratch=(np.empty_like(probe.theta), np.empty_like(probe.theta)))


def adam_step(probe: MLPProbe, state: AdamState,
              grads: dict[str, np.ndarray]) -> tuple[MLPProbe, AdamState]:
    """One bias-corrected Adam update of the whole of `probe.theta`, in place.

    `grads` is a `Gradients` from `backward` or any name -> array mapping; a
    mapping is first packed into a scratch vector. The ops and their order
    per element are those of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2,
    p -= lr*(m/b1c) / (sqrt(v/b2c) + eps), so results are bit-identical to
    the update done one parameter at a time."""
    theta, m, v = probe.theta, state.m, state.v
    if m.shape != theta.shape or m.dtype != theta.dtype:
        raise ValueError(f"Adam state holds {m.size} {m.dtype} values for "
                         f"{theta.size} {theta.dtype} parameters")
    a, b = state.scratch
    if isinstance(grads, Gradients):
        g = grads.flat
    else:
        g = a
        for name, view in probe.views(a).items():
            view[...] = grads[name]
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=b)
    m += b
    v *= state.beta2
    np.square(g, out=b)
    b *= 1.0 - state.beta2
    v += b
    # g is dead from here on, so `a` may be reused even when it holds g
    np.divide(m, b1c, out=a)
    a *= state.lr
    np.divide(v, b2c, out=b)
    np.sqrt(b, out=b)
    b += state.epsilon
    a /= b
    theta -= a
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
    can be mapped back to the original scale. Inputs and z-scored targets are
    cast to the probe's dtype once, before the first batch.
    """
    if dataset.split != "train":
        raise ValueError("train() expects the training split")
    if dataset.kind != probe.task_kind:
        raise ValueError(f"dataset kind {dataset.kind!r} != probe kind {probe.task_kind!r}")
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    X = np.asarray(dataset.X, dtype=probe.theta.dtype)
    if probe.task_kind == "regression":
        mean = float(np.mean(dataset.y))
        std = float(np.std(dataset.y))
        if std == 0.0:
            std = 1.0
        probe.target_mean = mean
        probe.target_std = std
        y = ((dataset.y - mean) / std).astype(probe.theta.dtype)
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
    """Class indices (argmax, ties to the lowest index) or de-normalized
    scalars in the probe's dtype.

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
    then all parameters as f32 little-endian in layer order). A float32
    probe is written exactly; a float64 one is rounded."""
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
    buf += probe.theta.astype("<f4").tobytes()
    atomic_write_bytes(path, bytes(buf))


def load_probe(path) -> MLPProbe:
    """Read a PRB1 file into a float32 probe holding exactly the stored
    parameters; any malformed input raises ValueError naming `path`."""
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
    shapes = _param_shapes(input_dim, hidden_dim, output_dim)
    count = sum(math.prod(shape) for shape in shapes.values())
    if pos + 4 * count > len(data):
        raise ValueError(f"{path}: truncated parameter block")
    if pos + 4 * count != len(data):
        raise ValueError(f"{path}: trailing bytes")
    # read-only views of `data`; MLPProbe packs them into a float32 theta of its own
    theta = np.frombuffer(data, dtype="<f4", count=count, offset=pos)
    params = _split_params(theta, shapes)
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{path}: non-finite parameter in {name}")
    return MLPProbe(
        input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim,
        task_kind=kind, classes=tuple(classes) or None,
        target_mean=target_mean, target_std=target_std, **params,
    )
