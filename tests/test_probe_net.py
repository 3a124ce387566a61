import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embprobe.data_model import ProbingDataset
from embprobe.probe_net import (AdamState, MLPProbe, TrainConfig, adam_step,
                                backward, cross_entropy, forward, init_probe,
                                load_probe, mse, predict, save_probe, train)
from embprobe.rng import make_rng


def make_dataset(X, y, kind, split="train"):
    ids = tuple(f"U{i}" for i in range(len(X)))
    return ProbingDataset(utt_ids=ids, X=np.asarray(X, float),
                          y=np.asarray(y), kind=kind, split=split)


# --- init ---

def test_init_deterministic():
    a = init_probe(12, 8, 3, "classification", seed=5)
    b = init_probe(12, 8, 3, "classification", seed=5)
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_init_biases_zero_and_shapes():
    p = init_probe(192, 256, 7, "classification", seed=0)
    assert p.W1.shape == (256, 192)
    assert p.W2.shape == (256, 256)
    assert p.W3.shape == (7, 256)
    assert not p.b1.any() and not p.b2.any() and not p.b3.any()


def test_init_fan_based_bounds():
    p = init_probe(100, 50, 2, "classification", seed=1)
    limit = math.sqrt(6.0 / 150)
    assert np.abs(p.W1).max() <= limit


def test_regression_needs_scalar_head():
    with pytest.raises(ValueError, match="single scalar"):
        init_probe(4, 4, 2, "regression", seed=0)


# --- forward ---

def _zeroed(p):
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        getattr(p, name)[:] = 0.0
    return p


def test_forward_zero_params_zero_output(rng):
    p = _zeroed(init_probe(6, 4, 3, "classification", seed=0))
    out = forward(p, rng.normal(size=(5, 6)))
    assert np.array_equal(out, np.zeros((5, 3)))


def test_forward_rectifier_kills_signal(rng):
    # negative layer-1 preactivations and zeroed upper layers: output is b3
    p = init_probe(4, 3, 2, "classification", seed=0)
    p.W1[:] = 0.0
    p.b1[:] = -1.0
    p.W2[:] = 0.0
    p.b2[:] = 0.0
    p.W3[:] = 0.0
    p.b3[:] = np.array([0.5, -0.25])
    out = forward(p, rng.normal(size=(7, 4)))
    assert np.allclose(out, np.tile([0.5, -0.25], (7, 1)))


def test_forward_batch_consistency(rng):
    p = init_probe(10, 6, 4, "classification", seed=3)
    x = rng.normal(size=10)
    single = forward(p, x)
    batch = forward(p, np.stack([rng.normal(size=10), x, rng.normal(size=10)]))
    # BLAS may reorder accumulation between the 1-row and 3-row paths
    assert np.allclose(single[0], batch[1], rtol=1e-12, atol=1e-15)


def test_forward_dim_mismatch(rng):
    p = init_probe(10, 6, 4, "classification", seed=3)
    with pytest.raises(ValueError, match="dim mismatch"):
        forward(p, rng.normal(size=(2, 9)))


# --- losses ---

def test_cross_entropy_uniform_two_class():
    assert abs(cross_entropy(np.array([[0.0, 0.0]]), [1]) - math.log(2)) < 1e-12


def test_cross_entropy_extreme_logits_stable():
    loss = cross_entropy(np.array([[1000.0, -1000.0]]), [0])
    assert math.isfinite(loss)
    assert loss < 1e-12
    assert math.isfinite(cross_entropy(np.array([[1e6, -1e6]]), [1]))


def test_cross_entropy_hand_case():
    # direct evaluation of -log softmax for logits (1,2,3), target 2
    z = [1.0, 2.0, 3.0]
    expected = -(z[2] - math.log(sum(math.exp(v) for v in z)))
    got = cross_entropy(np.array([z]), [2])
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.407606) < 1e-6


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(np.array([[0.0, 0.0]]), [2])


def test_mse_cases():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, 3.0]) == 5.0  # (1+9)/2
    base = mse([0.5, -1.0], [0.0, 0.0])
    assert np.isclose(mse([1.5, -3.0], [0.0, 0.0]), 9.0 * base)  # residuals x3


def test_mse_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        mse([1.0], [1.0, 2.0])


# --- gradients ---

def loss_of(probe, X, y):
    out = forward(probe, X)
    if probe.task_kind == "classification":
        return cross_entropy(out, y)
    return mse(out.reshape(-1), y)


def fd_gradients(probe, X, y, step=1e-5):
    """Central finite differences on every parameter coordinate."""
    grads = {}
    for name, param in probe.params().items():
        g = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_of(probe, X, y)
            flat[i] = orig - step
            lo = loss_of(probe, X, y)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, tol=1e-4):
    for name in analytic:
        a = analytic[name].reshape(-1)
        b = numeric[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        rel = np.abs(a - b) / denom
        assert rel.max() < tol, f"{name}: max rel err {rel.max():.2e}"


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_backward_matches_finite_differences(kind):
    rng = make_rng(2024, "gradcheck", kind)
    for trial in range(5):
        d_in = int(rng.integers(2, 8))
        d_h = int(rng.integers(2, 8))
        d_out = 1 if kind == "regression" else int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        probe = init_probe(d_in, d_h, d_out, kind, seed=int(rng.integers(0, 1 << 30)),
                           dtype=np.float64)
        for param in probe.params().values():
            param += 0.1 * rng.normal(size=param.shape)  # keep rectifiers off exact kinks
        X = rng.normal(size=(n, d_in))
        if kind == "classification":
            y = rng.integers(0, d_out, size=n)
        else:
            y = rng.normal(size=n)
        assert_grads_close(backward(probe, X, y), fd_gradients(probe, X, y))


def test_backward_zero_input_zero_w1_grad():
    probe = init_probe(5, 4, 1, "regression", seed=9)
    grads = backward(probe, np.zeros((3, 5)), np.zeros(3))
    assert np.array_equal(grads["W1"], np.zeros_like(probe.W1))


def test_backward_mse_gradient_linear_in_residual(rng):
    probe = init_probe(5, 4, 1, "regression", seed=9)
    X = rng.normal(size=(4, 5))
    out = forward(probe, X).reshape(-1)
    y1 = out - 1.0       # residual 1
    y2 = out - 2.0       # residual 2: doubles every output-layer gradient
    g1 = backward(probe, X, y1)
    g2 = backward(probe, X, y2)
    assert np.allclose(g2["W3"], 2.0 * g1["W3"])
    assert np.allclose(g2["b3"], 2.0 * g1["b3"])


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_backward_loss_is_the_forward_loss(kind, rng):
    probe = init_probe(6, 5, 3 if kind == "classification" else 1, kind, seed=2)
    X = rng.normal(size=(7, 6))
    y = rng.integers(0, 3, size=7) if kind == "classification" else rng.normal(size=7)
    out = forward(probe, X)
    expected = cross_entropy(out, y) if kind == "classification" else mse(out.reshape(-1), y)
    assert backward(probe, X, y).loss == expected


# --- adam ---

def _unit_probe():
    p = init_probe(1, 1, 1, "regression", seed=0, dtype=np.float64)
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        getattr(p, name)[:] = 0.0
    return p


def test_adam_first_step_hand_value():
    probe = _unit_probe()
    state = AdamState.for_probe(probe, lr=0.001)
    ones = {name: np.ones_like(param) for name, param in probe.params().items()}
    adam_step(probe, state, ones)
    # m_hat = 1, v_hat = 1 -> theta = -lr / (1 + eps)
    expected = -0.001 / (1.0 + 1e-8)
    assert abs(probe.W1[0, 0] - expected) < 1e-15
    assert state.t == 1


def test_adam_zero_gradient_no_change():
    probe = init_probe(3, 3, 2, "classification", seed=1)
    before = {k: v.copy() for k, v in probe.params().items()}
    state = AdamState.for_probe(probe)
    zeros = {name: np.zeros_like(p) for name, p in probe.params().items()}
    adam_step(probe, state, zeros)
    for name, value in before.items():
        assert np.array_equal(value, getattr(probe, name))


def test_adam_deterministic(rng):
    grads = None
    results = []
    for _ in range(2):
        probe = init_probe(4, 4, 2, "classification", seed=3)
        state = AdamState.for_probe(probe)
        g = {name: np.full_like(p, 0.25) for name, p in probe.params().items()}
        adam_step(probe, state, g)
        adam_step(probe, state, g)
        results.append(probe.W2.copy())
    assert np.array_equal(results[0], results[1])


# --- training ---

def test_lr_schedule():
    rng = make_rng(1, "sched")
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 2, size=40)
    ds = make_dataset(X, y, "classification")
    probe = init_probe(6, 4, 2, "classification", seed=0)
    _, hist = train(probe, ds, TrainConfig(epochs=20, decay_factor=0.1, decay_every=8, seed=0))
    assert hist.lrs[:8] == [0.001] * 8
    assert np.allclose(hist.lrs[8:16], 0.0001)
    assert np.allclose(hist.lrs[16:], 0.00001)
    assert len(hist.losses) == 20


def test_train_deterministic():
    rng = make_rng(2, "det")
    X = rng.normal(size=(50, 8))
    y = rng.integers(0, 3, size=50)
    runs = []
    for _ in range(2):
        probe = init_probe(8, 8, 3, "classification", seed=4)
        _, hist = train(probe, make_dataset(X, y, "classification"),
                        TrainConfig(epochs=3, seed=11))
        runs.append((list(hist.losses), probe.W3.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def _per_parameter_adam_step(probe, state, grads):
    """adam_step as it was before the flat parameter vector: one parameter at
    a time, with the moments in name -> array dicts."""
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    for name, p in probe.params().items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.epsilon)


def _two_pass_train(probe, dataset, cfg, per_parameter_adam=False):
    """The earlier training loop: forward for the loss, then backward, which
    recomputed the same layers; optionally with the per-parameter Adam."""
    n = len(dataset)
    y = dataset.y
    if probe.task_kind == "regression":
        mean, std = float(np.mean(y)), float(np.std(y)) or 1.0
        probe.target_mean, probe.target_std = mean, std
        y = (y - mean) / std
    if per_parameter_adam:
        state = SimpleNamespace(lr=cfg.initial_lr, beta1=0.9, beta2=0.999, epsilon=1e-8,
                                t=0, m={}, v={})
        step = _per_parameter_adam_step
    else:
        state, step = AdamState.for_probe(probe, lr=cfg.initial_lr), adam_step
    losses = []
    for epoch in range(cfg.epochs):
        state.lr = cfg.initial_lr * cfg.decay_factor ** (epoch // cfg.decay_every)
        order = make_rng(cfg.seed, "shuffle", epoch).permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            out = forward(probe, dataset.X[idx])
            if probe.task_kind == "classification":
                loss = cross_entropy(out, y[idx])
            else:
                loss = mse(out.reshape(-1), y[idx])
            step(probe, state, backward(probe, dataset.X[idx], y[idx]))
            total += loss * len(idx)
        losses.append(total / n)
    return losses


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_train_single_pass_matches_two_pass_loop(kind, monkeypatch):
    rng = make_rng(5, "single-pass", kind)
    X = rng.normal(size=(70, 9))
    y = rng.integers(0, 3, size=70) if kind == "classification" else rng.normal(size=70)
    out_dim = 3 if kind == "classification" else 1
    cfg = TrainConfig(epochs=5, batch_size=16, initial_lr=0.01, decay_every=2, seed=8)
    reference = init_probe(9, 12, out_dim, kind, seed=6)
    expected = _two_pass_train(reference, make_dataset(X, y, kind), cfg)

    def no_forward(*args, **kwargs):
        raise AssertionError("train ran a separate forward pass")

    monkeypatch.setattr("embprobe.probe_net.forward", no_forward)
    probe, hist = train(init_probe(9, 12, out_dim, kind, seed=6), make_dataset(X, y, kind), cfg)
    assert hist.losses == expected  # bit for bit
    for name, value in reference.params().items():
        assert np.array_equal(getattr(probe, name), value), name


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_train_matches_per_parameter_adam(kind):
    """The flat in-place Adam step gives the losses and parameters of the
    per-parameter update bit for bit."""
    rng = make_rng(6, "flat-adam", kind)
    X = rng.normal(size=(90, 20))
    y = rng.integers(0, 4, size=90) if kind == "classification" else rng.normal(size=90)
    out_dim = 4 if kind == "classification" else 1
    cfg = TrainConfig(epochs=6, batch_size=16, initial_lr=0.01, decay_every=3, seed=2)
    reference = init_probe(20, 33, out_dim, kind, seed=7)
    expected = _two_pass_train(reference, make_dataset(X, y, kind), cfg,
                               per_parameter_adam=True)
    probe, hist = train(init_probe(20, 33, out_dim, kind, seed=7), make_dataset(X, y, kind), cfg)
    assert hist.losses == expected
    assert np.array_equal(probe.theta, reference.theta)
    for name, value in reference.params().items():
        assert np.array_equal(getattr(probe, name), value), name


def test_adam_step_takes_a_plain_mapping_or_gradients(rng):
    probe = init_probe(5, 6, 3, "classification", seed=1)
    twin = init_probe(5, 6, 3, "classification", seed=1)
    X, y = rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)
    grads = backward(probe, X, y)
    plain = {name: value.copy() for name, value in grads.items()}
    s1, s2 = AdamState.for_probe(probe, lr=0.01), AdamState.for_probe(twin, lr=0.01)
    for _ in range(3):
        adam_step(probe, s1, grads)
        adam_step(twin, s2, plain)
    assert np.array_equal(probe.theta, twin.theta)
    with pytest.raises(ValueError, match="Adam state"):
        adam_step(init_probe(5, 7, 3, "classification", seed=1), s1, plain)


def test_train_separable_converges():
    rng = make_rng(3, "sep")
    n = 400
    X = np.concatenate([rng.normal(size=(n // 2, 8)) + 3.0,
                        rng.normal(size=(n // 2, 8)) - 3.0])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    probe = init_probe(8, 16, 2, "classification", seed=5)
    _, hist = train(probe, make_dataset(X, y, "classification"), TrainConfig(seed=6))
    assert hist.losses[-1] < 0.1


def test_first_step_descends_at_tiny_lr():
    rng = make_rng(4, "descent")
    X = rng.normal(size=(16, 6))
    y = rng.integers(0, 2, size=16)
    probe = init_probe(6, 8, 2, "classification", seed=7)
    before = cross_entropy(forward(probe, X), y)
    state = AdamState.for_probe(probe, lr=1e-6)
    adam_step(probe, state, backward(probe, X, y))
    after = cross_entropy(forward(probe, X), y)
    assert after <= before


def test_train_empty_dataset():
    ds = make_dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), "classification")
    probe = init_probe(4, 4, 2, "classification", seed=0)
    with pytest.raises(ValueError, match="empty dataset"):
        train(probe, ds, TrainConfig())


def test_train_rejects_eval_split():
    ds = make_dataset(np.zeros((2, 4)), np.zeros(2, dtype=int), "classification", split="eval")
    probe = init_probe(4, 4, 2, "classification", seed=0)
    with pytest.raises(ValueError, match="training split"):
        train(probe, ds, TrainConfig())


def test_regression_target_normalization_roundtrip():
    rng = make_rng(5, "norm")
    X = rng.normal(size=(64, 4))
    y = 500.0 + 50.0 * X[:, 0]  # large-offset target exercises de-normalization
    probe = init_probe(4, 16, 1, "regression", seed=1)
    probe, _ = train(probe, make_dataset(X, y, "regression"), TrainConfig(epochs=30, seed=2))
    preds = predict(probe, X)
    assert abs(float(np.mean(preds)) - 500.0) < 25.0


# --- predict ---

def test_predict_argmax_and_ties():
    p = init_probe(3, 2, 3, "classification", seed=0)
    _zeroed(p)
    p.b3[:] = np.array([3.0, 1.0, 2.0])
    assert predict(p, np.zeros((1, 3)))[0] == 0
    p.b3[:] = np.array([1.0, 1.0, 0.0])
    assert predict(p, np.zeros((1, 3)))[0] == 0  # tie breaks low


def test_argmax_shift_invariant(rng):
    p = init_probe(5, 4, 4, "classification", seed=2)
    X = rng.normal(size=(10, 5))
    base = predict(p, X)
    p.b3 += 17.5  # constant shift on every logit
    assert np.array_equal(base, predict(p, X))


def test_predict_on_table(rng):
    from embprobe.data_model import EmbeddingTable
    p = init_probe(4, 4, 2, "classification", seed=2)
    table = EmbeddingTable(dim=4, entries={"a": rng.normal(size=4), "b": rng.normal(size=4)})
    out = predict(p, table)
    assert set(out) == {"a", "b"}


# --- flat parameter vector ---

def _assert_views_tile_theta(probe):
    assert probe.theta.dtype == np.float32 and probe.theta.ndim == 1
    start = 0
    for name, param in probe.params().items():
        assert np.shares_memory(param, probe.theta), name
        assert param.flags.c_contiguous
        stop = start + param.size
        assert np.array_equal(probe.theta[start:stop], param.reshape(-1)), name
        start = stop
    assert start == probe.theta.size


def test_params_are_views_of_theta_after_init_and_load(tmp_path):
    probe = init_probe(7, 5, 3, "classification", seed=4)
    _assert_views_tile_theta(probe)
    path = tmp_path / "p.prb"
    save_probe(probe, path)
    loaded = load_probe(path)
    _assert_views_tile_theta(loaded)
    assert np.array_equal(loaded.theta, probe.theta)
    loaded.theta[:] = 0.5
    assert np.all(loaded.W2 == 0.5) and np.all(loaded.b3 == 0.5)


def test_copies_and_pickles_keep_the_views():
    import copy
    import pickle
    probe = init_probe(4, 3, 2, "classification", seed=1)
    for twin in (copy.deepcopy(probe), pickle.loads(pickle.dumps(probe))):
        _assert_views_tile_theta(twin)
        assert not np.shares_memory(twin.theta, probe.theta)
        twin.theta += 1.0
        assert np.array_equal(twin.W1, probe.W1 + 1.0)


def test_direct_construction_and_assignment_keep_the_flat_store():
    p = init_probe(3, 4, 2, "classification", seed=0)
    probe = MLPProbe(3, 4, 2, "classification", W1=p.W1, b1=p.b1, W2=p.W2,
                     b2=p.b2, W3=p.W3, b3=p.b3)
    _assert_views_tile_theta(probe)
    assert not np.shares_memory(probe.theta, p.theta)
    probe.W3 = np.ones((2, 4))
    _assert_views_tile_theta(probe)
    assert np.all(probe.theta[-10:-2] == 1.0)
    with pytest.raises(ValueError, match=r"W3 has shape \(4, 2\), expected \(2, 4\)"):
        probe.W3 = np.ones((4, 2))
    with pytest.raises(ValueError, match="b1 has shape"):
        MLPProbe(3, 4, 2, "classification", W1=p.W1, b1=np.zeros(5), W2=p.W2,
                 b2=p.b2, W3=p.W3, b3=p.b3)


# --- serialization ---

def test_prb1_roundtrip_bitwise(tmp_path):
    probe = init_probe(6, 5, 3, "classification", seed=8)
    probe.classes = ("x", "y", "z")
    p1 = tmp_path / "a.prb"
    p2 = tmp_path / "b.prb"
    save_probe(probe, p1)
    loaded = load_probe(p1)
    save_probe(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.classes == ("x", "y", "z")
    assert loaded.task_kind == "classification"
    assert loaded.W1.shape == (5, 6)


def test_prb1_regression_stats_roundtrip(tmp_path):
    probe = init_probe(4, 4, 1, "regression", seed=9)
    probe.target_mean = 123.456
    probe.target_std = 7.89
    path = tmp_path / "r.prb"
    save_probe(probe, path)
    loaded = load_probe(path)
    assert loaded.target_mean == 123.456
    assert loaded.target_std == 7.89


def test_prb1_loaded_probe_predicts_identically(tmp_path, rng):
    probe = init_probe(6, 5, 3, "classification", seed=8)
    path = tmp_path / "p.prb"
    save_probe(probe, path)
    loaded = load_probe(path)
    X = rng.normal(size=(20, 6))
    # a second save of the same probe loads into the same probe
    save_probe(probe, path)
    reload = load_probe(path)
    assert np.array_equal(predict(loaded, X), predict(reload, X))


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_saved_probe_is_the_trained_probe(kind, tmp_path):
    rng = make_rng(9, "saved-is-trained", kind)
    X = rng.normal(size=(40, 7))
    y = rng.integers(0, 3, size=40) if kind == "classification" else 150.0 + 20.0 * X[:, 0]
    probe = init_probe(7, 9, 3 if kind == "classification" else 1, kind, seed=3)
    probe, _ = train(probe, make_dataset(X, y, kind), TrainConfig(epochs=3, seed=4))
    path = tmp_path / "p.prb"
    save_probe(probe, path)
    loaded = load_probe(path)
    assert loaded.theta.dtype == probe.theta.dtype
    assert np.array_equal(loaded.theta, probe.theta)  # bit for bit
    assert (loaded.target_mean, loaded.target_std) == (probe.target_mean, probe.target_std)
    assert np.array_equal(predict(loaded, X), predict(probe, X))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_steps_keep_the_probe_dtype(kind, dtype, rng):
    probe = init_probe(5, 6, 3 if kind == "classification" else 1, kind, seed=1, dtype=dtype)
    assert probe.theta.dtype == dtype
    assert all(p.dtype == dtype for p in probe.params().values())
    X = rng.normal(size=(8, 5))  # float64 inputs are cast to the probe's dtype
    y = rng.integers(0, 3, size=8) if kind == "classification" else rng.normal(size=8)
    grads = backward(probe, X, y)
    assert grads.flat.dtype == dtype
    assert all(g.dtype == dtype for g in grads.values())
    state = AdamState.for_probe(probe)
    adam_step(probe, state, grads)
    assert probe.theta.dtype == state.m.dtype == state.v.dtype == dtype
    preds = predict(probe, X)
    if kind == "classification":
        assert preds.dtype == np.intp
    else:
        assert preds.dtype == dtype
    other = np.float64 if dtype == np.float32 else np.float32
    with pytest.raises(ValueError, match="Adam state"):
        adam_step(init_probe(5, 6, probe.output_dim, kind, seed=1, dtype=other), state, grads)


def _saved_probe_bytes(kind):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.prb"
        if kind == "classification":
            probe = init_probe(3, 4, 2, "classification", seed=11)
            probe.classes = ("female", "male")
        else:
            probe = init_probe(3, 4, 1, "regression", seed=12)
            probe.target_mean, probe.target_std = 180.5, 22.25
        save_probe(probe, path)
        return path.read_bytes()


PROBE_BYTES = {kind: _saved_probe_bytes(kind) for kind in ("classification", "regression")}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(PROBE_BYTES)), data=st.data())
def test_prb1_truncation_or_byte_flip_loads_or_names_path(kind, data):
    blob = PROBE_BYTES[kind]
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        mask = data.draw(st.integers(1, 255), label="mask")
        blob = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.prb"
        path.write_bytes(blob)
        try:
            probe = load_probe(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert all(np.all(np.isfinite(v)) for v in probe.params().values())
            assert probe.task_kind in ("classification", "regression")


@pytest.mark.parametrize("offset, value, message", [
    (4, 2, "task kind code 2"),           # kind byte
    (17, 3, "3 class names for 2 outputs"),  # class count
])
def test_prb1_header_checks(tmp_path, offset, value, message):
    blob = bytearray(PROBE_BYTES["classification"])
    blob[offset] = value
    path = tmp_path / "bad.prb"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=message):
        load_probe(path)


def test_prb1_short_header_and_nan_parameter(tmp_path):
    path = tmp_path / "short.prb"
    path.write_bytes(PROBE_BYTES["classification"][:19])
    with pytest.raises(ValueError, match="truncated"):
        load_probe(path)
    blob = bytearray(PROBE_BYTES["regression"])
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last entry of b3
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="non-finite parameter in b3"):
        load_probe(path)
