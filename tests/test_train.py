import math

import numpy as np
import pytest

from hsiduo import train
from hsiduo.errors import ConfigError, DataError, DimensionError
from hsiduo.model import ConvLayerSpec, DualStreamModel, ModelConfig
from hsiduo.spectral import bandwise_fft_arrays
from hsiduo.train import (
    AdamState,
    PatchSet,
    TrainConfig,
    adam_step,
    cross_entropy_batch,
    evaluate_loss_accuracy,
    fit,
)


def small_config(**kwargs):
    convs = [ConvLayerSpec((3, 3, 3), 2)]
    base = dict(
        pca_components=4,
        patch_size=8,
        real_convs=convs,
        complex_convs=[ConvLayerSpec((3, 3, 3), 2)],
        se_ratio=2,
        dense_widths=[8],
        dropout_rate=0.2,
    )
    base.update(kwargs)
    return ModelConfig(**base)


def toy_patchset(rng, n, n_classes=2, bands=4, offset=3.0):
    """Linearly separable toy patches: per-class constant offsets."""
    labels = 1 + (np.arange(n) % n_classes)
    xr = rng.normal(0.0, 0.2, size=(n, 8, 8, bands))
    for i, lab in enumerate(labels):
        xr[i] += (lab - 1) * offset - offset / 2
    re, im = bandwise_fft_arrays(xr)
    return PatchSet(xr, re, im, labels.astype(np.int32))


# ---------------------------------------------------------------------------
# cross entropy


def cross_entropy(pred, target):
    """The batch loss on a single probability row."""
    return cross_entropy_batch(np.asarray(pred)[None], np.asarray(target)[None])


def test_cross_entropy_matching_one_hot_is_zero():
    assert cross_entropy(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])) == 0.0


def test_cross_entropy_uniform_is_log_k():
    for k in (2, 3, 10):
        pred = np.full(k, 1.0 / k)
        target = np.zeros(k)
        target[0] = 1.0
        assert abs(cross_entropy(pred, target) - math.log(k)) < 1e-12


def test_cross_entropy_matches_summation_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        logits = rng.normal(size=5)
        pred = np.exp(logits) / np.exp(logits).sum()
        target = np.zeros(5)
        target[rng.integers(0, 5)] = 1.0
        want = -sum(t * math.log(max(p, 1e-12)) for p, t in zip(pred, target))
        assert abs(cross_entropy(pred, target) - want) < 1e-12


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))
    # a zero probability on the target class is clamped, not infinite
    assert cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -math.log(1e-12)
    # the batch loss is the mean of the per-row losses
    rows = np.array([[0.25, 0.75], [0.5, 0.5]])
    onehot = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(cross_entropy_batch(rows, onehot) - (math.log(4 / 3) + math.log(2)) / 2) < 1e-12


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_magnitude_is_lr():
    for g0 in (1e-6, 0.5, 100.0):
        params = np.array([1.0])
        state = AdamState(params, lr=1e-3)
        adam_step(params, np.array([g0]), state)
        delta = 1.0 - params[0]
        assert abs(delta - 1e-3) / 1e-3 < 1e-4 or g0 < 1e-4
        assert delta > 0


def test_adam_zero_gradient_is_noop():
    params = np.array([1.0, -2.0])
    state = AdamState(params, lr=1e-3)
    for _ in range(5):
        adam_step(params, np.zeros(2), state)
    assert np.array_equal(params, [1.0, -2.0])


def test_adam_three_steps_match_scalar_recurrence():
    g = 0.37
    params = np.array([2.0])
    state = AdamState(params, lr=1e-3)
    for _ in range(3):
        adam_step(params, np.array([g]), state)

    # hand-rolled recurrence
    theta, m, v = 2.0, 0.0, 0.0
    for t in range(1, 4):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        theta -= 1e-3 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(params[0] - theta) < 1e-12


def one_pass_adam(params, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The update as one pass over the whole buffer, each operation in the
    order adam_step applies it."""
    tmp = np.empty_like(params)
    m *= b1
    m += np.multiply(grad, 1.0 - b1, out=tmp)
    v *= b2
    v += np.multiply(np.multiply(grad, grad, out=tmp), 1.0 - b2, out=tmp)
    den = np.sqrt(np.divide(v, 1.0 - b2**t, out=grad), out=grad)
    den += eps
    step = np.multiply(np.divide(m, 1.0 - b1**t, out=tmp), lr, out=tmp)
    params -= np.divide(step, den, out=tmp)


def test_blocked_adam_is_bitwise_the_one_pass_update():
    rng = np.random.default_rng(11)
    n = 2 * train._ADAM_BLOCK + 777  # a partial last block
    params = rng.normal(size=n)
    ref_params, ref_m, ref_v = params.copy(), np.zeros(n), np.zeros(n)
    state = AdamState(params, lr=3e-3)
    for t in range(1, 7):
        # gradients over many decades, zeros included
        g = rng.normal(size=n) * 10.0 ** rng.integers(-8, 4, size=n)
        g[rng.integers(0, n, size=50)] = 0.0
        adam_step(params, g.copy(), state)
        one_pass_adam(ref_params, g.copy(), ref_m, ref_v, t, lr=3e-3)
        assert np.array_equal(params, ref_params), t
        assert np.array_equal(state.m, ref_m) and np.array_equal(state.v, ref_v), t


def test_adam_step_on_default_model_allocates_under_1_mib():
    import tracemalloc

    model = DualStreamModel.build(ModelConfig(), 9, np.random.default_rng(0))
    state = AdamState(model.flat, lr=1e-3)
    grad = np.random.default_rng(1).normal(size=model.flat.shape).astype(model.flat.dtype)
    adam_step(model.flat, grad.copy(), state)  # warm
    tracemalloc.start()
    try:
        adam_step(model.flat, grad, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.flat.nbytes > 2**20  # the buffer dwarfs the bound
    assert peak < 2**19, peak  # the float32 scratch is 128 KiB


def test_adam_shape_mismatch():
    params = np.zeros(3)
    state = AdamState(params, lr=1e-3)
    with pytest.raises(DimensionError):
        adam_step(params, np.zeros(2), state)


# ---------------------------------------------------------------------------
# train config


def test_train_config_validation():
    TrainConfig().validate()
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(epochs=5, patience=6).validate()
    with pytest.raises(ConfigError, match="lr"):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError, match="train.seed"):
        TrainConfig(seed=-1).validate()
    with pytest.raises(ConfigError, match="unknown"):
        TrainConfig.from_json_dict({"momentum": 0.9})


# ---------------------------------------------------------------------------
# fit


def test_fit_stops_after_two_epochs_with_constant_metric():
    rng = np.random.default_rng(1)
    train = toy_patchset(rng, 6)
    val = toy_patchset(rng, 4)
    model = DualStreamModel.build(small_config(), 2, rng)
    # lr so small that parameter updates vanish below float resolution,
    # forcing a constant monitored metric
    cfg = TrainConfig(epochs=50, patience=1, lr=1e-300, seed=0)
    _, history = fit(model, train, val, cfg)
    assert len(history) == 2


def test_fit_overfits_linearly_separable_toy_set():
    rng = np.random.default_rng(2)
    train = toy_patchset(rng, 10)
    val = toy_patchset(rng, 4)
    model = DualStreamModel.build(small_config(), 2, rng)
    cfg = TrainConfig(epochs=50, batch_size=16, patience=50, lr=1e-3, seed=0)
    model, history = fit(model, train, val, cfg)
    assert len(history) <= 50
    _, train_acc = evaluate_loss_accuracy(model, train)
    assert train_acc == 1.0


def test_fit_is_deterministic():
    def run():
        rng = np.random.default_rng(3)
        train = toy_patchset(rng, 8)
        val = toy_patchset(rng, 4)
        model = DualStreamModel.build(small_config(dropout_rate=0.4), 2, np.random.default_rng(5))
        cfg = TrainConfig(epochs=8, patience=8, lr=1e-3, seed=11)
        model, history = fit(model, train, val, cfg)
        return history, model.snapshot_params()

    h1, p1 = run()
    h2, p2 = run()
    assert h1 == h2
    assert np.array_equal(p1, p2)


def test_fit_returns_best_observed_checkpoint():
    rng = np.random.default_rng(4)
    train = toy_patchset(rng, 8)
    val = toy_patchset(rng, 4)
    model = DualStreamModel.build(small_config(dropout_rate=0.5), 2, rng)
    cfg = TrainConfig(epochs=12, patience=12, lr=5e-3, seed=2)
    model, history = fit(model, train, val, cfg)
    best_seen = min(h["val_loss"] for h in history)
    final_loss, _ = evaluate_loss_accuracy(model, val)
    assert final_loss <= best_seen + 1e-12


def test_fit_rejects_empty_sets():
    rng = np.random.default_rng(5)
    data = toy_patchset(rng, 4)
    empty = PatchSet(data.xr[:0], data.xc_re[:0], data.xc_im[:0], data.labels[:0])
    model = DualStreamModel.build(small_config(), 2, rng)
    with pytest.raises(DataError):
        fit(model, empty, data, TrainConfig())
    with pytest.raises(DataError):
        fit(model, data, empty, TrainConfig())
