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

from . import REPORT_VERSION, __version__
from .charts import bar_chart
from .config import (DEFAULT_HIDDEN_DIM, check_dims, check_train,  # noqa: F401
                     config_fingerprint, resolve_path)
from .data_model import TraitTask, assemble, load_embeddings, load_manifest, load_split
from .fileio import atomic_write_bytes, reading, write_json
from .metrics import classification_result, regression_result
from .rng import derive_seed, make_rng
from .trait_extract import read_trait_csv

PRB_MAGIC = b"PRB1"
PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")


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


def _param(name: str) -> property:
    return property(lambda probe: probe.views(probe.theta)[name],
                    doc=f"{name}: a view of `theta`, derived on each read.")


@dataclass
class MLPProbe:
    """A probe whose six parameters live in one vector, `theta`, in
    PARAM_NAMES order. `W1`...`b3` are read-only attributes: views of
    `theta` shaped as each parameter. `theta` keeps its floating dtype
    (integer values become float64) and is copied, so the probe owns it."""
    input_dim: int
    hidden_dim: int
    output_dim: int
    task_kind: str
    theta: np.ndarray
    classes: tuple[str, ...] | None = None
    # z-score stats of the regression target, captured during training
    target_mean: float = 0.0
    target_std: float = 1.0

    W1, b1, W2, b2, W3, b3 = map(_param, PARAM_NAMES)

    def __post_init__(self):
        theta = np.asarray(self.theta)
        count = sum(math.prod(shape) for shape in self._shapes().values())
        if theta.shape != (count,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({count},)")
        dtype = theta.dtype if np.issubdtype(theta.dtype, np.floating) else np.float64
        self.theta = theta.astype(dtype)

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        return _param_shapes(self.input_dim, self.hidden_dim, self.output_dim)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter name -> the view of `flat` (laid out like `theta`)
        shaped as that parameter."""
        return _split_params(flat, self._shapes())


def init_probe(input_dim: int, hidden_dim: int, output_dim: int,
               task_kind: str, seed: int = 0, dtype=np.float32) -> MLPProbe:
    """Fresh probe with uniform fan-based weights and zero biases, its
    parameters of `dtype` (the float64 draws rounded to it)."""
    check_dims(input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim)
    if task_kind not in ("classification", "regression"):
        raise ValueError(f"unknown task kind {task_kind!r}")
    if task_kind == "regression" and output_dim != 1:
        raise ValueError("regression probes output a single scalar")
    rng = make_rng(seed, "probe-init")

    def uniform(fan_out: int, fan_in: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(dtype)

    # drawn in PARAM_NAMES order: W1, W2, W3
    theta = np.concatenate([
        uniform(hidden_dim, input_dim).reshape(-1), np.zeros(hidden_dim, dtype),
        uniform(hidden_dim, hidden_dim).reshape(-1), np.zeros(hidden_dim, dtype),
        uniform(output_dim, hidden_dim).reshape(-1), np.zeros(output_dim, dtype)])
    return MLPProbe(input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim,
                    task_kind=task_kind, theta=theta)


def _affine_stack(p: dict[str, np.ndarray], X: np.ndarray):
    """The layers on `X` with parameters `p` (views of a probe's theta)."""
    z1 = X @ p["W1"].T + p["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ p["W2"].T + p["b2"]
    h2 = np.maximum(z2, 0.0)
    out = h2 @ p["W3"].T + p["b3"]
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
    return _affine_stack(probe.views(probe.theta), _as_batch(probe, X))[-1]


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


@dataclass(frozen=True)
class Gradients:
    """`flat`, the gradient of the mean batch loss laid out like the probe's
    `theta`, and `loss`, that loss, from the same forward pass."""
    flat: np.ndarray
    loss: float


def backward(probe: MLPProbe, X, targets) -> Gradients:
    """Exact gradients of the mean batch loss w.r.t. every parameter, and
    that loss (cross-entropy or MSE), from one pass through the layers."""
    X = _as_batch(probe, X)
    n = X.shape[0]
    p = probe.views(probe.theta)
    z1, h1, z2, h2, out = _affine_stack(p, X)
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
    dh2 = dout @ p["W3"]
    dz2 = dh2 * (z2 > 0.0)
    np.matmul(dz2.T, h1, out=g["W2"])
    np.sum(dz2, axis=0, out=g["b2"])
    dh1 = dz2 @ p["W2"]
    dz1 = dh1 * (z1 > 0.0)
    np.matmul(dz1.T, X, out=g["W1"])
    np.sum(dz1, axis=0, out=g["b1"])
    return Gradients(flat, loss)


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
              grads: Gradients) -> tuple[MLPProbe, AdamState]:
    """One bias-corrected Adam update of the whole of `probe.theta`, in place,
    from `grads.flat`. The ops and their order per element are those of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2,
    p -= lr*(m/b1c) / (sqrt(v/b2c) + eps), so results are bit-identical to
    the update done one parameter at a time."""
    theta, m, v, g = probe.theta, state.m, state.v, grads.flat
    if m.shape != theta.shape or m.dtype != theta.dtype:
        raise ValueError(f"Adam state holds {m.size} {m.dtype} values for "
                         f"{theta.size} {theta.dtype} parameters")
    a, b = state.scratch
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
        check_train(**vars(self))


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


def predict(probe: MLPProbe, X) -> np.ndarray:
    """Class indices (argmax, ties to the lowest index) or de-normalized
    scalars in the probe's dtype, one per row of `X`."""
    out = forward(probe, X)
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
    """Read a PRB1 file into a float32 probe holding exactly the stored parameters."""
    with reading(path):
        data = Path(path).read_bytes()
        if data[:4] != PRB_MAGIC:
            raise ValueError("bad magic (not a PRB1 file)")
        code, input_dim, hidden_dim, output_dim, n_classes = struct.unpack_from("<BIIII", data, 4)
        if code not in (0, 1):
            raise ValueError(f"unknown task kind code {code}")
        kind = "classification" if code == 0 else "regression"
        if min(input_dim, hidden_dim, output_dim) < 1:
            raise ValueError("zero dimension")
        # a classification probe records one name per output or none at all
        if kind == "classification" and n_classes not in (0, output_dim):
            raise ValueError(f"{n_classes} class names for {output_dim} outputs")
        if kind == "regression" and (n_classes != 0 or output_dim != 1):
            raise ValueError(f"regression probe with {output_dim} outputs "
                             f"and {n_classes} class names")
        pos = 21
        classes: list[str] = []
        for _ in range(n_classes):
            (nlen,) = struct.unpack_from("<H", data, pos)
            classes.append(struct.unpack_from(f"<{nlen}s", data, pos + 2)[0].decode("utf-8"))
            pos += 2 + nlen
        target_mean, target_std = struct.unpack_from("<dd", data, pos)
        pos += 16
        if not (math.isfinite(target_mean) and math.isfinite(target_std)):
            raise ValueError("non-finite target statistics")
        shapes = _param_shapes(input_dim, hidden_dim, output_dim)
        count = sum(math.prod(shape) for shape in shapes.values())
        (params,) = struct.unpack_from(f"<{4 * count}s", data, pos)
        if pos + 4 * count != len(data):
            raise ValueError("trailing bytes")
        # read-only; MLPProbe copies it into a float32 theta of its own
        theta = np.frombuffer(params, dtype="<f4")
        for name, value in _split_params(theta, shapes).items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"non-finite parameter in {name}")
        return MLPProbe(
            input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim,
            task_kind=kind, theta=theta, classes=tuple(classes) or None,
            target_mean=target_mean, target_std=target_std,
        )


def run_probe_task(cfg: dict, manifest, table, traits, system: str, task: dict) -> dict:
    """Train, score and save one task's probe on `system`'s `table`; its report record."""
    trait, kind, scheme = task["trait"], task["kind"], task["scheme"]
    train_ids, eval_ids = load_split(cfg, scheme)
    dropped = 0
    if kind == "classification":
        task_obj = TraitTask.classification(manifest, trait)
        out_dim = task_obj.label_space.size
    else:
        if traits is None:
            raise ValueError(f"regression trait {trait!r} needs a traits CSV: run `traits` first")
        values = {utt: getattr(tv, trait) for utt, tv in traits.items()
                  if getattr(tv, trait) is not None}
        kept_train = [u for u in train_ids if u in values]
        kept_eval = [u for u in eval_ids if u in values]
        dropped = (len(train_ids) - len(kept_train)) + (len(eval_ids) - len(kept_eval))
        train_ids, eval_ids = kept_train, kept_eval
        task_obj = TraitTask.regression(trait, values)
        out_dim = 1

    tcfg = cfg["train"]
    ds_train = assemble(manifest, table, task_obj, train_ids, "train", tcfg["unit_norm"])
    ds_eval = assemble(manifest, table, task_obj, eval_ids, "eval", tcfg["unit_norm"])
    if len(ds_train) == 0 or len(ds_eval) == 0:
        raise ValueError(f"empty split for task {system}/{trait}/{scheme}")

    seed = cfg["seed"]
    probe = init_probe(table.dim, tcfg["hidden_dim"], out_dim, kind,
                       seed=derive_seed(seed, "init", system, trait, scheme))
    if kind == "classification":
        probe.classes = task_obj.label_space.classes
    train_cfg = TrainConfig(epochs=tcfg["epochs"], batch_size=tcfg["batch_size"],
                            initial_lr=tcfg["initial_lr"], decay_factor=tcfg["decay_factor"],
                            decay_every=tcfg["decay_every"],
                            seed=derive_seed(seed, "train", system, trait, scheme))
    probe, history = train(probe, ds_train, train_cfg)
    preds = predict(probe, ds_eval.X)

    mcfg = cfg["metrics"]
    if kind == "classification":
        res = classification_result(
            preds, ds_eval.y, out_dim, n_boot=mcfg["n_boot"], alpha=mcfg["alpha"],
            seed=derive_seed(seed, "bootstrap", system, trait, scheme))
    else:
        res = regression_result(preds, ds_eval.y, n_perm=mcfg["n_perm"],
                                seed=derive_seed(seed, "permutation", system, trait, scheme))
    metric_block = dict(vars(res))
    if kind == "classification":
        metric_block["confusion"] = res.confusion.tolist()

    probe_rel = f"probes/{system}_{trait}_{scheme}.prb"
    save_probe(probe, resolve_path(cfg, probe_rel))
    return {
        "system": system, **task, "status": "ok", "metrics": metric_block,
        "history": {"losses": history.losses, "lrs": history.lrs},
        "n_train": len(ds_train), "n_eval": len(ds_eval),
        "dropped_missing_target": dropped, "probe_file": probe_rel,
    }


def cmd_probe(resolved: dict, cfg: dict, jobs: int = 1) -> list[dict]:
    """The `probe` command: every task on every system, over `jobs` threads, into
    probe_report.json and charts; returns the records of the tasks that failed."""
    manifest = load_manifest(resolve_path(cfg, cfg["manifest"]))
    if not cfg["embeddings"]:
        raise ValueError("config declares no embedding tables")
    tables = {name: load_embeddings(resolve_path(cfg, path))
              for name, path in cfg["embeddings"].items()}
    traits_path = resolve_path(cfg, cfg["traits_csv"])
    traits = read_trait_csv(traits_path) if traits_path.exists() else None

    jobs_list = [(system, task) for system in sorted(tables) for task in cfg["tasks"]]

    def run(item):
        system, task = item
        try:
            return run_probe_task(cfg, manifest, tables[system], traits, system, task)
        except (ValueError, OSError) as exc:
            return {"system": system, **task, "status": "failed", "error": str(exc)}

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run, jobs_list))
    else:
        records = [run(item) for item in jobs_list]

    write_json(resolve_path(cfg, "probe_report.json"), {
        "version": REPORT_VERSION, "toolkit_version": __version__,
        "config_fingerprint": config_fingerprint(resolved), "tasks": records})
    _emit_probe_charts(cfg, records)
    return [r for r in records if r["status"] == "failed"]


def _emit_probe_charts(cfg: dict, records: list[dict]) -> None:
    systems = sorted({r["system"] for r in records if r["status"] == "ok"})
    for kind, fname, field_name, ylabel in (
            ("classification", "charts/classification_accuracy.svg", "accuracy", "accuracy"),
            ("regression", "charts/regression_r2.svg", "r_squared", "R^2")):
        ok = [r for r in records if r["status"] == "ok" and r["kind"] == kind]
        if not ok:
            continue
        groups = sorted({f"{r['trait']} ({r['scheme']})" for r in ok})
        by_key = {(r["system"], f"{r['trait']} ({r['scheme']})"): r for r in ok}

        def grid(name, absent):  # one row per system, one column per group
            return [[by_key[(s, g)]["metrics"][name] if (s, g) in by_key else absent
                     for g in groups] for s in systems]

        ci = kind == "classification"
        bar_chart(resolve_path(cfg, fname), f"Probe {kind} performance", groups, systems,
                  grid(field_name, 0.0), err_low=grid("ci_low", None) if ci else None,
                  err_high=grid("ci_high", None) if ci else None, ylabel=ylabel)
