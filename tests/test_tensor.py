"""Tensor, the data path's read-only holder, and channel concatenation as
the model runs it: fusion of the real stream with the [re | im]
realization of the complex stream in DualStreamModel.forward_batch."""

import tracemalloc

import numpy as np
import pytest

from hsiduo.errors import ConfigError
from hsiduo.layers import ComplexWeights, conv3d_complex_batch, conv3d_real_batch
from hsiduo.model import ConvLayerSpec, DualStreamModel, ModelConfig
from hsiduo.tensor import Tensor
from test_layers import fusion_cache


def value_at(shape, flat, idx):
    """Independent row-major index oracle: explicit stride arithmetic."""
    strides = [1] * len(shape)
    for a in range(len(shape) - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    return flat[sum(i * s for i, s in zip(idx, strides))]


def test_concat_single_elements():
    # one band per stream: every fused pixel is [real, re, im]
    fused = fusion_cache(np.full((1, 2, 2, 1), 2.0), np.full((1, 2, 2, 1), 3.0),
                         np.full((1, 2, 2, 1), 4.0))["fused"]
    assert fused.shape == (1, 2, 2, 3)
    assert list(fused[0, 1, 0]) == [2.0, 3.0, 4.0]


def test_concat_random_against_index_oracle():
    rng = np.random.default_rng(1)
    real = rng.uniform(0.0, 1.0, size=(1, 2, 2, 5))
    re, im = rng.uniform(0.0, 1.0, size=(2, 1, 2, 2, 5))
    cache = fusion_cache(real, re, im, complex_bands=3)
    fused = cache["fused"][0]
    assert fused.shape == (2, 2, 11)
    flat = fused.reshape(-1)
    for i in range(2):
        for j in range(2):
            for c in range(11):
                got = value_at(fused.shape, flat, (i, j, c))
                if c < 5:
                    want = value_at((2, 2, 5), real[0].reshape(-1), (i, j, c))
                elif c < 8:
                    want = value_at((2, 2, 5), re[0].reshape(-1), (i, j, c - 5))
                else:
                    want = value_at((2, 2, 5), im[0].reshape(-1), (i, j, c - 8))
                assert got == want


def test_concat_spatial_mismatch():
    for kernel in ((2, 1, 1), (1, 2, 1)):
        cfg = ModelConfig(pca_components=2, patch_size=2, real_convs=[ConvLayerSpec((1, 1, 1), 1)],
                          complex_convs=[ConvLayerSpec(kernel, 1)], se_enabled=False)
        with pytest.raises(ConfigError, match="fusion"):
            DualStreamModel.build(cfg, 2)


def test_complex_to_real_unit_case():
    cache = fusion_cache(np.zeros((1, 2, 2, 1)), np.ones((1, 2, 2, 1)), np.zeros((1, 2, 2, 1)))
    fused = cache["fused"]
    assert fused.shape == (1, 2, 2, 3)
    assert np.all(fused[..., 1] == 1.0)
    assert np.all(fused[..., 2] == 0.0)


def test_complex_to_real_zero():
    zeros = np.zeros((2, 2, 2, 2))
    assert np.all(fusion_cache(zeros, zeros, zeros)["fused"] == 0.0)


def test_complex_to_real_random_against_loop():
    rng = np.random.default_rng(2)
    re = rng.uniform(0.0, 1.0, size=(1, 2, 2, 2))
    im = rng.uniform(0.0, 1.0, size=(1, 2, 2, 2))
    fused = fusion_cache(np.zeros((1, 2, 2, 2)), re, im)["fused"][0]
    assert fused.shape == (2, 2, 6)
    for i in range(2):
        for j in range(2):
            for c in range(4):
                got = fused[i, j, 2 + c]
                want = re[0, i, j, c] if c < 2 else im[0, i, j, c - 2]
                assert got == want


def test_zeros():
    z = Tensor.from_array(np.zeros((2, 3)))
    assert z.shape == (2, 3)
    assert z.data.size == 6
    assert np.all(z.data == 0.0)
    empty = Tensor.from_array(np.zeros((3, 4, 0)))
    assert empty.shape == (3, 4, 0) and empty.as_array().shape == (3, 4, 0)


def test_concat_then_slice_recovers_inputs():
    # backward splits the fused gradient at cache["split"]; the same cut
    # recovers each stream's features from the fused map
    rng = np.random.default_rng(6)
    real, re, im = rng.uniform(0.0, 1.0, size=(3, 2, 2, 2, 4))
    cache = fusion_cache(real, re, im)
    c_real, c_cplx = cache["split"]
    fused = cache["fused"]
    assert np.array_equal(fused[..., :c_real], real)
    assert np.array_equal(fused[..., c_real : c_real + c_cplx], re)
    assert np.array_equal(fused[..., c_real + c_cplx :], im)


def test_complex_zero_im_roundtrips_losslessly():
    # a real input with zero imaginary part, through a complex conv with
    # zero imaginary weights, gives the real conv bit for bit
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 3, 3, 2))
    k = rng.normal(size=(2, 2, 2, 2, 3))
    b = rng.normal(size=3)
    out_re, out_im = conv3d_complex_batch(
        x, np.zeros_like(x), ComplexWeights(k, np.zeros_like(k), b, np.zeros(3))
    )
    assert np.array_equal(out_re, conv3d_real_batch(x, k, b))
    assert np.all(out_im == 0.0)


def test_tensors_are_immutable():
    t = Tensor.from_array(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        t.data[0, 0] = 1.0
    with pytest.raises(ValueError):
        t.as_array()[0, 0] = 1.0


def traced_peak(fn, *args):
    """Peak bytes allocated while fn runs, numpy buffers included."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_array_copies_at_most_once():
    rng = np.random.default_rng(8)
    frozen = rng.normal(size=(3, 4))
    frozen.flags.writeable = False
    assert np.shares_memory(Tensor.from_array(frozen).data, frozen)
    single = rng.normal(size=(3, 4)).astype(np.float32)
    single.flags.writeable = False
    kept = Tensor.from_array(single)
    assert kept.data.dtype == np.float32 and np.shares_memory(kept.data, single)
    # a writable caller array is copied, so later writes cannot reach it
    live = rng.normal(size=(3, 4))
    t = Tensor.from_array(live)
    live[0, 0] = 99.0
    assert t.as_array()[0, 0] != 99.0
    # a layout or dtype conversion is the one copy, frozen in place
    big = rng.normal(size=(64, 64, 32))
    for arr in (big.transpose(2, 0, 1), big.astype(np.float32)[:, :, ::2], big.astype(np.int64)):
        t, peak = traced_peak(Tensor.from_array, arr)
        assert t.as_array().shape == arr.shape and np.array_equal(t.as_array(), arr)
        assert not t.data.flags.writeable
        assert peak < 1.5 * t.data.nbytes
