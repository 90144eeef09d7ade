from math import prod

import numpy as np
import pytest

from hsiduo import layers
from hsiduo.errors import ConfigError, DimensionError
from hsiduo.layers import (
    ComplexWeights,
    conv3d_complex_batch,
    conv3d_complex_batch_backward,
    conv3d_real_batch,
    conv3d_real_batch_backward,
    dense_batch,
    dropout_mask,
    relu,
    se_forward_batch,
    softmax,
)
from hsiduo.model import ConvLayerSpec, DualStreamModel, ModelConfig
from hsiduo.spectral import bandwise_fft_arrays


def conv_real(x, k, b):
    """The batch kernel on a single [H,W,D,C] sample."""
    return conv3d_real_batch(x[None], k, b)[0]


def conv_complex(xr, xi, p):
    out_re, out_im = conv3d_complex_batch(xr[None], xi[None], p)
    return out_re[0], out_im[0]


def se_single(u, w1, w2):
    """se_forward_batch on one [H,W,C] map: (output, squeeze z, gate s)."""
    out, (z, _, s) = se_forward_batch(u[None], w1, w2)
    return out[0], z[0], s[0]


def fusion_cache(x, complex_bands=None, real_weight=1.0, complex_weight=1.0):
    """forward_batch's cache for a model whose streams pass their inputs
    through: one 1x1xd conv per stream with weight 1 at depth offset 0 and
    zero bias, no SE block and no hidden layer. The fused map then holds
    ReLU(x), then CReLU's re part, then its im part, of the first
    complex_bands bands of x's band-wise FFT. A stream weight of 0
    silences that stream."""
    bands = x.shape[-1]
    complex_bands = bands if complex_bands is None else complex_bands
    cfg = ModelConfig(
        pca_components=bands,
        patch_size=x.shape[1],
        real_convs=[ConvLayerSpec((1, 1, 1), 1)],
        complex_convs=[ConvLayerSpec((1, 1, bands - complex_bands + 1), 1)],
        se_enabled=False,
        dense_widths=[],
        dropout_rate=0.0,
    )
    model = DualStreamModel(cfg, 2)  # all-zero weights
    params = dict(model.param_entries())
    params["real_conv0.kernels"][...] = real_weight
    params["cplx_conv0.kernels_re"][:, :, 0] = complex_weight
    _, cache = model.forward_batch(x)
    return cache


def streams(x, complex_bands=None):
    """What fusion_cache's fused map holds, computed apart from the model:
    ReLU(x) and CReLU's (re, im) of the first complex_bands bands of the
    band-wise FFT of x."""
    re, im = bandwise_fft_arrays(x)
    return tuple(np.maximum(a, 0.0) for a in (x, re[..., :complex_bands], im[..., :complex_bands]))


def patches_with_spectrum(spectrum):
    """Real one-band patches [N, S, S, 1] whose band-wise FFT (scaled
    1/S^2) is spectrum [N, S, S] up to rounding; spectrum is Hermitian."""
    s = spectrum.shape[1]
    x = np.fft.ifft2(spectrum, axes=(1, 2)) * (s * s)
    assert np.abs(x.imag).max() < 1e-12
    return x.real[..., None]


def conv_oracle(x, k, b):
    """Seven-nested-loop direct summation, cross-correlation convention."""
    h, w, d, cin = x.shape
    mh, mw, md, _, cout = k.shape
    out = np.zeros((h - mh + 1, w - mw + 1, d - md + 1, cout))
    for xx in range(out.shape[0]):
        for yy in range(out.shape[1]):
            for zz in range(out.shape[2]):
                for o in range(cout):
                    acc = 0.0
                    for i in range(mh):
                        for j in range(mw):
                            for kk in range(md):
                                for c in range(cin):
                                    acc += k[i, j, kk, c, o] * x[xx + i, yy + j, zz + kk, c]
                    out[xx, yy, zz, o] = acc + b[o]
    return out


def complex_conv_oracle(xr, xi, kr, ki, br, bi):
    """Direct complex multiply-accumulate over the same loops."""
    h, w, d, cin = xr.shape
    mh, mw, md, _, cout = kr.shape
    out_re = np.zeros((h - mh + 1, w - mw + 1, d - md + 1, cout))
    out_im = np.zeros_like(out_re)
    for xx in range(out_re.shape[0]):
        for yy in range(out_re.shape[1]):
            for zz in range(out_re.shape[2]):
                for o in range(cout):
                    acc = 0j
                    for i in range(mh):
                        for j in range(mw):
                            for kk in range(md):
                                for c in range(cin):
                                    kval = kr[i, j, kk, c, o] + 1j * ki[i, j, kk, c, o]
                                    xval = xr[xx + i, yy + j, zz + kk, c] + 1j * xi[xx + i, yy + j, zz + kk, c]
                                    acc += kval * xval
                    out_re[xx, yy, zz, o] = acc.real + br[o]
                    out_im[xx, yy, zz, o] = acc.imag + bi[o]
    return out_re, out_im


def test_identity_kernel_passes_input_through():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3, 3, 1))
    out = conv_real(x, np.ones((1, 1, 1, 1, 1)), np.zeros(1))
    assert np.allclose(out, x)


def test_zero_kernel_gives_bias_only():
    x = np.random.default_rng(1).normal(size=(3, 4, 5, 2))
    bias = np.array([1.5, -2.0, 0.25])
    out = conv_real(x, np.zeros((2, 2, 2, 2, 3)), bias)
    for o in range(3):
        assert np.all(out[..., o] == bias[o])


def test_conv3d_real_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4, 4, 2))
    k = rng.normal(size=(2, 2, 2, 2, 3))
    b = rng.normal(size=3)
    got = conv_real(x, k, b)
    assert np.abs(got - conv_oracle(x, k, b)).max() < 1e-12


def test_conv_kernel_larger_than_input():
    with pytest.raises(DimensionError):
        conv_real(np.zeros((3, 3, 3, 1)), np.zeros((5, 1, 1, 1, 1)), np.zeros(1))


def test_complex_conv_reduces_to_real():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4, 4, 2))
    k = rng.normal(size=(2, 2, 2, 2, 3))
    b = rng.normal(size=3)
    cp = ComplexWeights(k, np.zeros_like(k), b, np.zeros(3))
    out_re, out_im = conv_complex(x, np.zeros_like(x), cp)
    want = conv_real(x, k, b)
    assert np.abs(out_re - want).max() < 1e-14
    assert np.abs(out_im).max() < 1e-14


def test_complex_conv_rotation_by_i():
    rng = np.random.default_rng(4)
    zr = rng.normal(size=(2, 2, 2, 1))
    zi = rng.normal(size=(2, 2, 2, 1))
    kernel_im = np.ones((1, 1, 1, 1, 1))
    cp = ComplexWeights(np.zeros_like(kernel_im), kernel_im, np.zeros(1), np.zeros(1))
    out_re, out_im = conv_complex(zr, zi, cp)
    assert np.allclose(out_re, -zi)
    assert np.allclose(out_im, zr)


def test_conv3d_complex_matches_loop_oracle():
    rng = np.random.default_rng(5)
    xr = rng.normal(size=(4, 4, 4, 2))
    xi = rng.normal(size=(4, 4, 4, 2))
    kr = rng.normal(size=(2, 2, 2, 2, 2))
    ki = rng.normal(size=(2, 2, 2, 2, 2))
    br = rng.normal(size=2)
    bi = rng.normal(size=2)
    out_re, out_im = conv_complex(xr, xi, ComplexWeights(kr, ki, br, bi))
    want_re, want_im = complex_conv_oracle(xr, xi, kr, ki, br, bi)
    assert np.abs(out_re - want_re).max() < 1e-12
    assert np.abs(out_im - want_im).max() < 1e-12


def conv_backward_oracle(x, k, dout):
    """Nested-loop gradients of the valid cross-correlation over a batch:
    dx accumulates conj(K)*dout and dk conj(X)*dout. On complex arrays the
    re and im parts are the real-composite gradients of the split parts:
    with dout = dre + i*dim, dx = dxr + i*dxi and dk = dkr + i*dki."""
    n, ho, wo, do, cout = dout.shape
    mh, mw, md, cin, _ = k.shape
    dx = np.zeros(x.shape, dtype=dout.dtype)
    dk = np.zeros(k.shape, dtype=dout.dtype)
    for b in range(n):
        for xx in range(ho):
            for yy in range(wo):
                for zz in range(do):
                    for o in range(cout):
                        g = dout[b, xx, yy, zz, o]
                        for i in range(mh):
                            for j in range(mw):
                                for kk in range(md):
                                    for c in range(cin):
                                        dx[b, xx + i, yy + j, zz + kk, c] += np.conj(k[i, j, kk, c, o]) * g
                                        dk[i, j, kk, c, o] += np.conj(x[b, xx + i, yy + j, zz + kk, c]) * g
    return dx, dk


# the default model's first two layers: an 8x8x16 patch through a
# depth-spanning 3x3x16 kernel with one input channel, then a 3x3x1 kernel
# over 64 channels (Cout cut to keep the loop oracle fast)
CONV_GEOMETRIES = [((8, 8, 16, 1), (3, 3, 16, 1, 3)), ((6, 6, 1, 64), (3, 3, 1, 64, 3))]


def conv_case(rng, n, xshape, kshape):
    """Random split-part input, weights and output gradient for one layer."""
    xr, xi = rng.normal(size=(2, n, *xshape))
    kr, ki = rng.normal(size=(2, *kshape))
    p = ComplexWeights(kr, ki, rng.normal(size=kshape[4]), rng.normal(size=kshape[4]))
    out_shape = (n, *(s - m + 1 for s, m in zip(xshape[:3], kshape[:3])), kshape[4])
    dre, dim = rng.normal(size=(2, *out_shape))
    return xr, xi, p, dre, dim


@pytest.mark.parametrize("xshape, kshape", CONV_GEOMETRIES)
def test_conv_backward_matches_loop_oracle(xshape, kshape):
    xr, xi, p, dre, dim = conv_case(np.random.default_rng(19), 3, xshape, kshape)

    dx, dk, db = conv3d_real_batch_backward(xr, p.kernels_re, dre)
    want_dx, want_dk = conv_backward_oracle(xr, p.kernels_re, dre)
    assert np.abs(dx - want_dx).max() < 1e-12
    assert np.abs(dk - want_dk).max() < 1e-12
    assert np.abs(db - dre.sum(axis=(0, 1, 2, 3))).max() < 1e-12

    dxr, dxi, dkr, dki, dbr, dbi = conv3d_complex_batch_backward(xr, xi, p, dre, dim)
    want_dx, want_dk = conv_backward_oracle(xr + 1j * xi, p.kernels_re + 1j * p.kernels_im, dre + 1j * dim)
    assert np.abs(dxr - want_dx.real).max() < 1e-12
    assert np.abs(dxi - want_dx.imag).max() < 1e-12
    assert np.abs(dkr - want_dk.real).max() < 1e-12
    assert np.abs(dki - want_dk.imag).max() < 1e-12
    assert np.abs(dbr - dre.sum(axis=(0, 1, 2, 3))).max() < 1e-12
    assert np.abs(dbi - dim.sum(axis=(0, 1, 2, 3))).max() < 1e-12


@pytest.mark.parametrize("xshape, kshape", CONV_GEOMETRIES)
def test_conv_pieces_match_single_samples(xshape, kshape):
    # a batch the im2col bound splits into three pieces, the last of one
    # sample: each sample's output and input gradient equal what it gets
    # alone, and the kernel and bias gradients the sums over samples
    out_cells = prod(s - m + 1 for s, m in zip(xshape[:3], kshape[:3]))
    per_piece = layers._IM2COL_BYTES // (out_cells * prod(kshape[:4]) * 8)
    n = 2 * per_piece + 1
    xr, xi, p, dre, dim = conv_case(np.random.default_rng(20), n, xshape, kshape)

    batch = [
        conv3d_real_batch(xr, p.kernels_re, p.bias_re),
        *conv3d_complex_batch(xr, xi, p),
        *conv3d_real_batch_backward(xr, p.kernels_re, dre),
        *conv3d_complex_batch_backward(xr, xi, p, dre, dim),
    ]
    per_sample = [np.zeros_like(a) for a in batch]
    for b in range(n):
        one = [
            conv3d_real_batch(xr[b : b + 1], p.kernels_re, p.bias_re),
            *conv3d_complex_batch(xr[b : b + 1], xi[b : b + 1], p),
            *conv3d_real_batch_backward(xr[b : b + 1], p.kernels_re, dre[b : b + 1]),
            *conv3d_complex_batch_backward(xr[b : b + 1], xi[b : b + 1], p, dre[b : b + 1], dim[b : b + 1]),
        ]
        for acc, got in zip(per_sample, one):
            if acc.shape[0] == n:  # per-sample outputs and input gradients
                acc[b] = got[0]
            else:  # kernel and bias gradients sum over the batch
                acc += got
    for got, want in zip(batch, per_sample):
        if got.shape[0] == n:
            assert np.abs(got - want).max() < 1e-12
        else:  # sums of up to n * 36 products of unit normals
            assert np.abs(got - want).max() < 1e-10


def test_complex_conv_working_set_is_bounded():
    from test_tensor import traced_peak

    # layer 1 at the inference batch: the outputs take 4 MiB; columns of the
    # whole batch would add two 18.9 MB matrices
    rng = np.random.default_rng(21)
    xr, xi = rng.normal(size=(2, 256, 6, 6, 1, 64))
    kr, ki = rng.normal(size=(2, 3, 3, 1, 64, 64))
    p = ComplexWeights(kr, ki, np.zeros(64), np.zeros(64))
    (out_re, out_im), peak = traced_peak(conv3d_complex_batch, xr, xi, p)
    assert out_re.shape == out_im.shape == (256, 4, 4, 1, 64)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("xshape, kshape", CONV_GEOMETRIES)
def test_real_kernel_gives_the_real_layer_for_any_imaginary_input(xshape, kshape):
    # the Gauss form's shared product a = (cr - ci) Ki is exactly zero when
    # Ki = 0, so both parts are the real layer bit for bit; the CReLU and
    # fusion tests rest on this. n = 40 splits into pieces at both geometries
    xr, xi, p, _, _ = conv_case(np.random.default_rng(22), 40, xshape, kshape)
    p = p._replace(kernels_im=np.zeros(kshape))
    out_re, out_im = conv3d_complex_batch(xr, xi, p)
    assert np.array_equal(out_re, conv3d_real_batch(xr, p.kernels_re, p.bias_re))
    assert np.array_equal(out_im, conv3d_real_batch(xi, p.kernels_re, p.bias_im))


def test_results_never_alias_the_held_scratch():
    # a second call with another geometry reuses the scratch; the first
    # call's results must not change
    rng = np.random.default_rng(23)
    cases = [conv_case(rng, 5, *geometry) for geometry in CONV_GEOMETRIES]
    xr, xi, p, dre, dim = cases[0]
    results = [
        conv3d_real_batch(xr, p.kernels_re, p.bias_re),
        *conv3d_complex_batch(xr, xi, p),
        *conv3d_real_batch_backward(xr, p.kernels_re, dre),
        *conv3d_complex_batch_backward(xr, xi, p, dre, dim),
    ]
    kept = [r.copy() for r in results]
    xr, xi, p, dre, dim = cases[1]
    conv3d_complex_batch(xr, xi, p)
    conv3d_complex_batch_backward(xr, xi, p, dre, dim)
    conv3d_real_batch_backward(xr, p.kernels_re, dre)
    for got, want in zip(results, kept):
        assert not np.shares_memory(got, layers._scratch)
        assert np.array_equal(got, want)


def test_steady_state_complex_conv_allocates_only_its_results():
    from test_tensor import traced_peak

    # the default model's layer 1 at the training batch: once warm, a call
    # allocates what it returns and next to nothing else
    xr, xi, p, dre, dim = conv_case(np.random.default_rng(24), 16, (6, 6, 1, 64), (3, 3, 1, 64, 64))
    conv3d_complex_batch(xr, xi, p)
    out, peak = traced_peak(conv3d_complex_batch, xr, xi, p)
    assert peak < sum(a.nbytes for a in out) + 2**20
    conv3d_complex_batch_backward(xr, xi, p, dre, dim)
    grads, peak = traced_peak(conv3d_complex_batch_backward, xr, xi, p, dre, dim)
    assert peak < sum(a.nbytes for a in grads) + 2**20


def test_pieces_bound_the_cout_wide_buffers(monkeypatch):
    import tracemalloc

    # a (1,1,1) first layer, Cin 1 -> 64, at the inference batch: the
    # [rows, Cout] products are 64 times the column matrix, so the pieces
    # must be sized by Cout, not by the window
    xr, xi, p, dre, dim = conv_case(np.random.default_rng(25), 256, (4, 4, 4, 1), (1, 1, 1, 1, 64))
    kernel_bytes = p.kernels_re.nbytes
    monkeypatch.setattr(layers, "_scratch", np.empty(0, dtype=np.uint8))
    tracemalloc.start()
    try:
        results = [
            conv3d_real_batch(xr, p.kernels_re, p.bias_re),
            *conv3d_real_batch_backward(xr, p.kernels_re, dre),
            *conv3d_complex_batch(xr, xi, p),
            *conv3d_complex_batch_backward(xr, xi, p, dre, dim),
        ]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in results)  # 24.4 MiB
    # at most three piece-sized buffers and one kernel-sized one at once
    bound = 3 * layers._IM2COL_BYTES + kernel_bytes + 2**12
    assert layers._scratch.nbytes <= bound
    assert held - returned <= bound
    assert peak - returned <= bound


def window_copy_cols(x, kshape):
    """im2col as sliding_window_view and a copy build it: the
    [n,H',W',D',Cin,mh,mw,md] windows in the kernel's (i,j,k,c) order."""
    from numpy.lib.stride_tricks import sliding_window_view

    win = sliding_window_view(x, kshape[:3], axis=(1, 2, 3)).transpose(0, 1, 2, 3, 5, 6, 7, 4)
    return np.ascontiguousarray(win).reshape(-1, prod(kshape[:4]))


# the default model's three layers, and a (1,1,1) kernel
COLS_GEOMETRIES = [((8, 8, 16, 1), (3, 3, 16, 1)), ((6, 6, 1, 64), (3, 3, 1, 64)),
                   ((4, 4, 1, 64), (4, 4, 1, 64)), ((4, 4, 3, 2), (1, 1, 1, 2))]


@pytest.mark.parametrize("xshape, kshape", COLS_GEOMETRIES)
@pytest.mark.parametrize("layout", ["contiguous", "strided batch", "transposed"])
def test_cols_is_the_window_copy(xshape, kshape, layout):
    rng = np.random.default_rng(26)
    h, w, d, c = xshape
    if layout == "contiguous":
        x = rng.normal(size=(3, *xshape))
    elif layout == "strided batch":
        x = rng.normal(size=(6, *xshape))[::2]
    else:  # a transposed array: x[..., None] for one channel
        t = rng.normal(size=(3, d * c, w, h)).transpose(0, 3, 2, 1)
        x = t[..., None] if c == 1 else t.reshape(3, h, w, d, c)
    assert x.flags.c_contiguous == (layout == "contiguous")
    block = np.empty(x.size * prod(kshape[:3]), dtype=x.dtype)
    assert np.array_equal(layers._cols(x, kshape, block), window_copy_cols(x, kshape))


def test_whole_input_window_takes_the_input_as_its_columns():
    # the default third layer: a 4x4x1 kernel over a 4x4x1 map needs no
    # copy when the map is C-contiguous, and copies it when it is not
    kshape = (4, 4, 1, 64)
    x = np.random.default_rng(27).normal(size=(16, 4, 4, 1, 64))
    block = np.empty(x.size, dtype=x.dtype)
    cols = layers._cols(x, kshape, block)
    assert cols.shape == (16, 1024)
    assert np.shares_memory(cols, x)
    assert np.array_equal(cols, window_copy_cols(x, kshape))
    strided = np.random.default_rng(28).normal(size=(32, 4, 4, 1, 64))[::2]
    cols = layers._cols(strided, kshape, block)
    assert np.shares_memory(cols, block) and not np.shares_memory(cols, strided)
    assert np.array_equal(cols, window_copy_cols(strided, kshape))


def masked_sigmoid(x):
    """The sigmoid's two stable branches, applied through boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_sigmoid_is_bitwise_the_masked_branches(dtype, bits):
    edge = [np.nan, np.inf, -np.inf, 0.0, -0.0, 90.0, -90.0, 104.0, -104.0, 710.0, -710.0, 1e30, -1e30]
    x = np.concatenate([np.random.default_rng(29).normal(scale=20.0, size=4000), edge]).astype(dtype)
    got, want = layers._sigmoid(x), masked_sigmoid(x)
    assert got.dtype == dtype
    nan = np.isnan(x)
    # a NaN stays NaN (its sign bit may differ); every other value is the same bits
    assert np.isnan(got[nan]).all() and np.isnan(want[nan]).all()
    assert np.array_equal(got[~nan].view(bits), want[~nan].view(bits))


def crelu_through_model(x):
    """CReLU as forward_batch applies it after the complex conv, on the
    one-band patches x: the (re, im) the complex stream read, the band-wise
    FFT of x, and the last two fused channels of a pass-through model."""
    cache = fusion_cache(x)
    xr, xi = cache["cplx"][0][:2]  # [N, S, S, 1, 1]: one input channel
    return (xr[..., 0], xi[..., 0]), (cache["fused"][..., 1:2], cache["fused"][..., 2:3])


def test_crelu_cases():
    # one 4x4 patch whose spectrum holds 1 + 2i, -1 + 2i, -1 - 2i and
    # 1 - 2i (four conjugate bins), 0 elsewhere
    spectrum = np.zeros((1, 4, 4), dtype=complex)
    spectrum[0, 0, 1], spectrum[0, 1, 0] = 1 + 2j, -1 + 2j
    spectrum[0, 0, 3], spectrum[0, 3, 0] = np.conj(spectrum[0, 0, 1]), np.conj(spectrum[0, 1, 0])
    (re, im), (out_re, out_im) = crelu_through_model(patches_with_spectrum(spectrum))
    assert np.array_equal(out_re, np.maximum(re, 0.0)) and np.array_equal(out_im, np.maximum(im, 0.0))
    bins = [(0, 1), (1, 0), (3, 0), (0, 3)]
    got = [(out_re[0, k, l, 0], out_im[0, k, l, 0]) for k, l in bins]
    assert np.allclose(got, [(1.0, 2.0), (0.0, 2.0), (0.0, 0.0), (1.0, 0.0)], rtol=0.0, atol=1e-12)


def test_crelu_idempotent_and_real_axis():
    # a second pass-through complex layer applies CReLU to CReLU's output
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4, 4, 1))
    cfg = ModelConfig(pca_components=1, patch_size=4, real_convs=[ConvLayerSpec((1, 1, 1), 1)],
                      complex_convs=[ConvLayerSpec((1, 1, 1), 1)] * 2, se_enabled=False,
                      dense_widths=[], dropout_rate=0.0)
    model = DualStreamModel(cfg, 2)
    params = dict(model.param_entries())
    params["cplx_conv0.kernels_re"][...] = params["cplx_conv1.kernels_re"][...] = 1.0
    _, cache = model.forward_batch(x)
    (_, _, once_re, once_im), (_, _, twice_re, twice_im) = cache["cplx"]
    assert np.array_equal(once_re, twice_re) and np.array_equal(once_im, twice_im)
    # the DC bin's twiddles are exactly 1 + 0i, so it lies on the real axis:
    # CReLU is ReLU there and leaves no imaginary part
    (re, im), (out_re, out_im) = crelu_through_model(rng.normal(size=(8, 4, 4, 1)))
    dc = (slice(None), 0, 0)
    assert np.all(im[dc] == 0) and np.any(re[dc] < 0) and np.any(re[dc] > 0)
    assert np.array_equal(out_re[dc], relu(re[dc].copy()))
    assert np.all(out_im[dc] == 0)


def test_fuse_streams_zero_complex():
    # a complex stream that outputs zeros still holds its channel slots
    rng = np.random.default_rng(7)
    real = rng.normal(size=(1, 2, 2, 3))
    fused = fusion_cache(real, complex_bands=2, complex_weight=0.0)["fused"]
    assert fused.shape == (1, 2, 2, 7)
    assert np.array_equal(fused[..., :3], relu(real.copy()))
    assert np.all(fused[..., 3:] == 0)


def test_fuse_streams_empty_real():
    # a real stream that is silenced still holds its channel slots, and
    # the complex channels follow it unchanged
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 4, 4, 2))
    _, re, im = streams(x)
    fused = fusion_cache(x, real_weight=0.0)["fused"]
    assert fused.shape == (1, 4, 4, 6)
    assert np.all(fused[..., :2] == 0)
    assert np.array_equal(fused[..., 2:4], re)
    assert np.array_equal(fused[..., 4:], im)


def test_fuse_streams_random_elementwise():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 4, 4, 3))
    re, im = bandwise_fft_arrays(x)
    out = fusion_cache(x, complex_bands=2)["fused"][0]
    real, re, im = x[0], re[0], im[0]
    for i in range(4):
        for j in range(4):
            for c in range(7):
                if c < 3:
                    want = max(real[i, j, c], 0.0)
                elif c < 5:
                    want = max(re[i, j, c - 3], 0.0)
                else:
                    want = max(im[i, j, c - 5], 0.0)
                assert out[i, j, c] == want
    # streams whose outputs do not align spatially cannot be fused
    cfg = ModelConfig(pca_components=3, patch_size=2, real_convs=[ConvLayerSpec((1, 1, 1), 1)],
                      complex_convs=[ConvLayerSpec((2, 2, 1), 1)], se_enabled=False)
    with pytest.raises(ConfigError, match="fusion"):
        DualStreamModel(cfg, 2)


def test_se_squeeze_direct_average():
    u = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    _, z, _ = se_single(u, np.zeros((1, 1)), np.zeros((1, 1)))
    assert z[0] == 2.5


def test_se_squeeze_constant_channel():
    p = (np.zeros((1, 2)), np.zeros((2, 1)))
    for v in (0.0, -3.25, 7.5):
        _, z, _ = se_single(np.full((3, 5, 2), v), *p)
        assert np.all(z == v)


def test_se_squeeze_matches_summation_oracle():
    rng = np.random.default_rng(10)
    u = rng.normal(size=(3, 5, 4))
    _, got, _ = se_single(u, np.zeros((2, 4)), np.zeros((4, 2)))
    for c in range(4):
        acc = 0.0
        for i in range(3):
            for j in range(5):
                acc += u[i, j, c]
        assert abs(got[c] - acc / 15.0) < 1e-14


def test_se_excite_zero_weights_give_half():
    p = (np.zeros((2, 4)), np.zeros((4, 2)))
    _, _, s = se_single(np.random.default_rng(11).normal(size=(2, 3, 4)), *p)
    assert np.all(s == 0.5)


def test_se_excite_matches_composition_oracle():
    rng = np.random.default_rng(12)
    w1 = rng.normal(size=(2, 4))
    w2 = rng.normal(size=(4, 2))
    u = rng.normal(size=(2, 3, 4))
    _, _, got = se_single(u, w1, w2)
    z = u.sum(axis=(0, 1)) / 6.0
    hidden = np.maximum(w1 @ z, 0.0)
    want = 1.0 / (1.0 + np.exp(-(w2 @ hidden)))
    assert np.abs(got - want).max() < 1e-12
    assert np.all((got > 0) & (got < 1))


def test_se_gate_never_flips_feature_signs():
    rng = np.random.default_rng(19)
    for _ in range(10):
        u = rng.normal(size=(3, 3, 4))
        p = (rng.normal(size=(2, 4)), rng.normal(size=(4, 2)))
        out, _, _ = se_single(u, *p)
        assert np.all(np.sign(out) == np.sign(u))


def test_se_scale_cases():
    rng = np.random.default_rng(13)
    u = rng.uniform(0.5, 1.5, size=(2, 3, 4))
    # positive features and w1 = 1 give a positive hidden unit; w2 = +-1000
    # saturates the gate to exactly 1 or 0
    open_gate = (np.ones((1, 4)), np.full((4, 1), 1000.0))
    shut_gate = (np.ones((1, 4)), np.full((4, 1), -1000.0))
    assert np.array_equal(se_single(u, *open_gate)[0], u)
    assert np.all(se_single(u, *shut_gate)[0] == 0)
    out, _, s = se_single(u, rng.normal(size=(2, 4)), rng.normal(size=(4, 2)))
    for i in range(2):
        for j in range(3):
            for c in range(4):
                assert out[i, j, c] == s[c] * u[i, j, c]
    with pytest.raises(ValueError):
        se_single(u[..., :3], *open_gate)


def test_dense_identity():
    x = np.random.default_rng(14).normal(size=(2, 5))
    w, b = np.eye(5), np.zeros(5)
    assert np.allclose(dense_batch(x, w, b), x)
    with pytest.raises(ValueError):
        dense_batch(np.zeros((2, 4)), w, b)


def test_softmax_properties():
    assert np.allclose(softmax(np.zeros(3)), [1 / 3, 1 / 3, 1 / 3])
    rng = np.random.default_rng(15)
    x = rng.normal(size=6) * 10
    p = softmax(x)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)
    shifted = softmax(x + 123.456)
    assert np.abs(p - shifted).max() < 1e-12


def test_dropout_contract():
    rng = np.random.default_rng(16)
    x = rng.normal(size=1000)
    assert np.array_equal(x * dropout_mask(x.shape, 0.0, np.random.default_rng(0)), x)
    out = x * dropout_mask(x.shape, 0.4, np.random.default_rng(1))
    zeroed = out == 0
    kept = ~zeroed
    assert np.allclose(out[kept], x[kept] / 0.6)
    assert 0.25 < zeroed.mean() < 0.55
    # eval mode (no seed) draws no mask: the cached and the bare forward agree
    cfg = ModelConfig(pca_components=2, patch_size=2, real_convs=[ConvLayerSpec((1, 1, 1), 2)],
                      complex_convs=[ConvLayerSpec((1, 1, 1), 2)], se_ratio=2, dense_widths=[8],
                      dropout_rate=0.7)
    model = DualStreamModel.build(cfg, 2, rng=np.random.default_rng(2))
    x = rng.normal(size=(3, 2, 2, 2))
    eval_a, cache = model.forward_batch(x)
    eval_b, _ = model.forward_batch(x, cache=False)
    assert np.array_equal(eval_a, eval_b) and cache["dense"][0][2] is None
    with pytest.raises(ConfigError, match="dropout_rate"):
        ModelConfig(dropout_rate=1.0).validate()
    with pytest.raises(ConfigError, match="dropout_rate"):
        ModelConfig(dropout_rate=-0.1).validate()


def test_conv_linearity_in_input():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 3, 3, 2))
    k = rng.normal(size=(2, 2, 2, 2, 2))
    b = rng.normal(size=2)
    alpha = rng.normal()
    lhs = conv_real(alpha * x, k, np.zeros(2))
    rhs = alpha * conv_real(x, k, np.zeros(2))
    assert np.abs(lhs - rhs).max() < 1e-12
    with_bias = conv_real(x, k, b)
    assert np.abs(with_bias - (rhs / alpha + b)).max() < 1e-12


def test_se_positive_scaling_properties():
    rng = np.random.default_rng(18)
    u = rng.normal(size=(2, 2, 4))
    # w2 = 0 holds the gate at 1/2 for every input, so the block is
    # positively homogeneous; powers of two scale exactly in IEEE arithmetic
    p = (rng.normal(size=(2, 4)), np.zeros((4, 2)))
    lam = 4.0
    out, z, _ = se_single(u, *p)
    out_lam, z_lam, _ = se_single(lam * u, *p)
    assert np.array_equal(z_lam, lam * z)
    assert np.array_equal(out_lam, lam * out)
    lam = 3.7  # general positive scale, up to rounding
    _, z_lam, _ = se_single(lam * u, *p)
    assert np.abs(z_lam - lam * z).max() < 1e-12
