"""Reverse-mode gradients checked against central finite differences and
against the expanded four-real-convolutions form of the complex layer."""

import copy
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from hsiduo import layers
from hsiduo.layers import (
    ComplexWeights,
    conv3d_complex_batch,
    conv3d_complex_batch_backward,
    conv3d_real_batch,
    conv3d_real_batch_backward,
)
from hsiduo.model import ConvLayerSpec, DualStreamModel, ModelConfig
from hsiduo.train import AdamState, adam_step, backward, cross_entropy_batch

FD_H = 1e-4
FD_TOL = 1e-4


def tiny_config(channels=2, dense=(4,), dropout=0.4, se_ratio=2, bands=4):
    convs = [ConvLayerSpec((3, 3, 3), channels)]
    return ModelConfig(
        pca_components=bands,
        patch_size=8,
        real_convs=convs,
        complex_convs=[ConvLayerSpec((3, 3, 3), channels)],
        se_ratio=se_ratio,
        dense_widths=list(dense),
        dropout_rate=dropout,
    )


def tiny_batch(rng, n=2, bands=4, n_classes=3):
    # std 8 = S: the complex stream's input, the band-wise FFT scaled
    # 1/S^2, then has unit scale
    xr = rng.normal(scale=8.0, size=(n, 8, 8, bands))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), rng.integers(0, n_classes, size=n)] = 1.0
    return xr, onehot


def kink_margin(model, batch):
    """Distance of the nearest pre-activation to a ReLU/CReLU kink: the
    smallest |value| that a conv or hidden dense kernel returns during a
    forward, read before the model applies its ReLU in place."""
    vals = []

    def recording(kernel):
        def run(*args):
            out = kernel(*args)
            vals.append(min(np.abs(part).min() for part in (out if isinstance(out, tuple) else (out,))))
            return out
        return run

    names = ("conv3d_real_batch", "conv3d_complex_batch", "dense_batch")
    with mock.patch.multiple(layers, **{name: recording(getattr(layers, name)) for name in names}):
        model.forward_batch(batch)
    return min(vals[:-1])  # the last dense_batch call gives the head's logits


def float64_twin(model):
    """The model with its parameters widened to float64 in a buffer of its
    own: a float64 forward and backward at the model's weights."""
    twin = copy.copy(model)
    twin.flat = model.flat.astype(np.float64)
    return twin


def clean_instance(seed, config_kwargs=None, n=1):
    """Float64 model/batch pair whose pre-activations sit away from kinks,
    so a central difference with h=1e-4 never crosses a non-smooth point.
    The model is float64_twin of the built one: a step of FD_H taken in
    float32 weights, and the float32 roundoff of the loss, are too coarse
    for FD_TOL."""
    for attempt in range(400):
        rng = np.random.default_rng((seed, attempt))
        model = float64_twin(DualStreamModel.build(tiny_config(**(config_kwargs or {})), 3, rng))
        batch, onehot = tiny_batch(rng, n=n)
        if kink_margin(model, batch) > 2.5e-3:
            return model, batch, onehot, rng
    raise AssertionError("could not draw a kink-free instance")


def fd_check(model, batch, onehot, grads, indices_per_param=None, rng=None):
    """Central finite differences against the analytic gradients."""
    worst = 0.0
    named = dict(model.param_entries(grads))
    for name, arr in model.param_entries():
        flat = arr.reshape(-1)
        if indices_per_param is None:
            idx = range(flat.size)
        else:
            idx = rng.choice(flat.size, size=min(indices_per_param, flat.size), replace=False)
        for k in idx:
            orig = flat[k]
            flat[k] = orig + FD_H
            p1, _ = model.forward_batch(batch)
            l1 = cross_entropy_batch(p1, onehot)
            flat[k] = orig - FD_H
            p2, _ = model.forward_batch(batch)
            l2 = cross_entropy_batch(p2, onehot)
            flat[k] = orig
            fd = (l1 - l2) / (2 * FD_H)
            an = named[name].reshape(-1)[k]
            rel = abs(fd - an) / max(1e-6, abs(fd) + abs(an))
            assert rel < FD_TOL, f"{name}[{k}]: analytic {an} vs fd {fd} (rel {rel})"
            worst = max(worst, rel)
    return worst


def test_every_parameter_of_tiny_model_matches_finite_differences():
    # one conv per stream (2 channels), SE, dense head, dropout in eval
    # mode: every layer type is exercised and every parameter checked
    model, batch, onehot, _ = clean_instance(0)
    _, grads = backward(model, batch, onehot)
    fd_check(model, batch, onehot, grads)


def test_gradient_property_over_20_seeds():
    for seed in range(20):
        model, batch, onehot, rng = clean_instance(seed)
        _, grads = backward(model, batch, onehot)
        fd_check(model, batch, onehot, grads, indices_per_param=4, rng=rng)


def test_float32_gradients_agree_with_float64():
    # the desk scene's 7 training pixels, one training step with dropout:
    # the float32 gradient of every parameter against the float64 one at
    # the same weights and patches (measured at most 7.3e-7)
    from hsiduo import cli
    from hsiduo.data import stratified_split, synth_dataset

    cube, label_map = synth_dataset(3, 32, 32, 16, 0.1, 0)
    config = ModelConfig()
    train_px, _, _ = stratified_split(label_map, seed=0)
    std = cli._standardized(cube, config.pca_components)
    ps = cli.build_patchset(std, train_px, config.patch_size)
    model = DualStreamModel.build(config, 3, np.random.default_rng(np.random.SeedSequence([0, 0x1D17])))
    twin = float64_twin(model)
    assert ps.xr.dtype == np.float32 and len(ps) == 7

    step = {"dropout_seed": (0, 1, 0)}
    _, g32 = backward(model, ps.xr, ps.onehot(3), **step)
    _, g64 = backward(twin, ps.xr.astype(np.float64), ps.onehot(3), **step)
    assert g32.dtype == np.float32 and g64.dtype == np.float64
    for (name, a), (_, b) in zip(model.param_entries(g32), twin.param_entries(g64)):
        assert np.linalg.norm(a - b) <= 1e-4 * np.linalg.norm(b), name


def test_conv_real_backward_matches_finite_differences_in_input():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 4, 4, 4, 2))
    k = rng.normal(size=(2, 2, 2, 2, 3))
    proj = rng.normal(size=(1, 3, 3, 3, 3))
    dx, dk, db = conv3d_real_batch_backward(x, k, proj)
    flat = x.reshape(-1)
    for idx in rng.choice(flat.size, size=12, replace=False):
        orig = flat[idx]
        flat[idx] = orig + FD_H
        l1 = (conv3d_real_batch(x, k, np.zeros(3)) * proj).sum()
        flat[idx] = orig - FD_H
        l2 = (conv3d_real_batch(x, k, np.zeros(3)) * proj).sum()
        flat[idx] = orig
        fd = (l1 - l2) / (2 * FD_H)
        an = dx.reshape(-1)[idx]
        assert abs(fd - an) / max(1e-6, abs(fd) + abs(an)) < FD_TOL


def test_complex_conv_gradients_match_expanded_four_real_convs():
    """The complex layer's backward equals the block-structured network of
    four real convolutions applied to the re/im parts."""
    rng = np.random.default_rng(2)
    xr = rng.normal(size=(2, 4, 4, 4, 2))
    xi = rng.normal(size=(2, 4, 4, 4, 2))
    kr = rng.normal(size=(2, 2, 2, 2, 3))
    ki = rng.normal(size=(2, 2, 2, 2, 3))
    br = rng.normal(size=3)
    bi = rng.normal(size=3)
    p = ComplexWeights(kr, ki, br, bi)

    out_re, out_im = conv3d_complex_batch(xr, xi, p)
    zero = np.zeros(3)
    exp_re = conv3d_real_batch(xr, kr, zero) - conv3d_real_batch(xi, ki, zero) + br
    exp_im = conv3d_real_batch(xr, ki, zero) + conv3d_real_batch(xi, kr, zero) + bi
    assert np.abs(out_re - exp_re).max() < 1e-10
    assert np.abs(out_im - exp_im).max() < 1e-10

    dre = rng.normal(size=out_re.shape)
    dim = rng.normal(size=out_im.shape)
    dxr, dxi, dkr, dki, dbr, dbi = conv3d_complex_batch_backward(xr, xi, p, dre, dim)

    # expanded network: each real conv contributes independently
    dxr_a, dkr_a, dbr_a = conv3d_real_batch_backward(xr, kr, dre)
    dxi_b, dki_b, _ = conv3d_real_batch_backward(xi, ki, dre)
    dxr_c, dki_c, _ = conv3d_real_batch_backward(xr, ki, dim)
    dxi_d, dkr_d, dbi_d = conv3d_real_batch_backward(xi, kr, dim)
    assert np.abs(dxr - (dxr_a + dxr_c)).max() < 1e-10
    assert np.abs(dxi - (dxi_d - dxi_b)).max() < 1e-10
    assert np.abs(dkr - (dkr_a + dkr_d)).max() < 1e-10
    assert np.abs(dki - (dki_c - dki_b)).max() < 1e-10
    assert np.abs(dbr - dbr_a).max() < 1e-10
    assert np.abs(dbi - dbi_d).max() < 1e-10


def test_saturated_softmax_is_stationary():
    # push the head bias hard toward the target class: prediction equals
    # the one-hot target and every gradient vanishes
    rng = np.random.default_rng(3)
    model = DualStreamModel.build(tiny_config(), 3, rng)
    dict(model.param_entries())["head.bias"][0] = 200.0
    batch, _ = tiny_batch(rng, n=1)
    onehot = np.array([[1.0, 0.0, 0.0]])
    probs, _ = model.forward_batch(batch)
    assert probs[0, 0] > 1.0 - 1e-12
    _, grads = backward(model, batch, onehot)
    total = np.sqrt(sum(float((g**2).sum()) for _, g in model.param_entries(grads)))
    assert total < 1e-6


def test_first_adam_step_does_not_increase_loss():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = DualStreamModel.build(tiny_config(), 3, rng)
        batch, onehot = tiny_batch(rng, n=1)
        loss0, grads = backward(model, batch, onehot)
        adam_step(model.flat, grads, AdamState(model.flat, lr=1e-4))
        probs, _ = model.forward_batch(batch)
        loss1 = cross_entropy_batch(probs, onehot)
        assert loss1 <= loss0 + 1e-12


def test_eval_dropout_backward_is_identity():
    rng = np.random.default_rng(4)
    model = DualStreamModel.build(tiny_config(dropout=0.6), 3, rng)
    twin = DualStreamModel.build(tiny_config(dropout=0.0), 3, np.random.default_rng(4))
    twin.load_params(model.snapshot_params())
    batch, onehot = tiny_batch(np.random.default_rng(5))
    _, g1 = backward(model, batch, onehot)
    _, g2 = backward(twin, batch, onehot)
    for (name, a), (_, b) in zip(model.param_entries(g1), twin.param_entries(g2)):
        assert np.array_equal(a, b), name


def test_training_dropout_gradients_match_fd_with_fixed_mask():
    model, batch, onehot, rng = clean_instance(6, {"dropout": 0.5})
    seed_tuple = (7, 1, 0)
    loss, grads = backward(model, batch, onehot, dropout_seed=seed_tuple)

    def loss_with_mask():
        probs, _ = model.forward_batch(batch, dropout_seed=seed_tuple)
        return cross_entropy_batch(probs, onehot)

    worst = 0.0
    named = dict(model.param_entries(grads))
    for name, arr in model.param_entries():
        flat = arr.reshape(-1)
        for k in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + FD_H
            l1 = loss_with_mask()
            flat[k] = orig - FD_H
            l2 = loss_with_mask()
            flat[k] = orig
            fd = (l1 - l2) / (2 * FD_H)
            an = named[name].reshape(-1)[k]
            rel = abs(fd - an) / max(1e-6, abs(fd) + abs(an))
            assert rel < FD_TOL
            worst = max(worst, rel)


@pytest.mark.parametrize("se_enabled, dense", [(True, (4, 3)), (False, (4,))])
def test_backward_into_held_nan_buffer_equals_fresh(se_enabled, dense):
    # every view of the gradient is written in full, so fit's held buffer
    # needs no zeroing between steps
    config = replace(tiny_config(dense=dense), se_enabled=se_enabled)
    rng = np.random.default_rng(9)
    model = DualStreamModel.build(config, 3, rng)
    batch, onehot = tiny_batch(rng, n=3)
    held = np.full_like(model.flat, np.nan)
    loss_h, g_h = backward(model, batch, onehot, dropout_seed=(1, 2, 3), grad=held)
    loss_f, g_f = backward(model, batch, onehot, dropout_seed=(1, 2, 3))
    assert g_h is held
    assert loss_h == loss_f
    assert np.array_equal(g_h, g_f)


def test_backward_rejects_misshapen_held_buffer():
    from hsiduo.errors import DimensionError

    rng = np.random.default_rng(10)
    model = DualStreamModel.build(tiny_config(), 3, rng)
    batch, onehot = tiny_batch(rng)
    with pytest.raises(DimensionError, match="gradient"):
        backward(model, batch, onehot, grad=np.zeros(model.flat.size - 1))


def test_nonfinite_loss_raises_numeric_error():
    from hsiduo.errors import NumericError

    rng = np.random.default_rng(8)
    model = DualStreamModel.build(tiny_config(), 3, rng)
    dict(model.param_entries())["real_conv0.kernels"][...] = np.inf
    batch, onehot = tiny_batch(rng)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="real_conv0"):
        backward(model, batch, onehot)
