"""Tensor, the data path's read-only holder; the streams' spatial
alignment that fusion needs; a complex conv with zero imaginary parts
against the real one."""

import tracemalloc

import numpy as np
import pytest

from hsiduo.errors import ConfigError
from hsiduo.layers import ComplexWeights, conv3d_complex_batch, conv3d_real_batch
from hsiduo.model import ConvLayerSpec, DualStreamModel, ModelConfig
from hsiduo.tensor import Tensor


def test_concat_spatial_mismatch():
    for kernel in ((2, 1, 1), (1, 2, 1)):
        cfg = ModelConfig(pca_components=2, patch_size=2, real_convs=[ConvLayerSpec((1, 1, 1), 1)],
                          complex_convs=[ConvLayerSpec(kernel, 1)], se_enabled=False)
        with pytest.raises(ConfigError, match="fusion"):
            DualStreamModel(cfg, 2)


def test_zeros():
    z = Tensor.from_array(np.zeros((2, 3)))
    assert z.shape == (2, 3)
    assert z.data.size == 6
    assert np.all(z.data == 0.0)
    empty = Tensor.from_array(np.zeros((3, 4, 0)))
    assert empty.shape == (3, 4, 0) and empty.as_array().shape == (3, 4, 0)


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
