"""Forward and backward semantics of every layer in both streams.

Convolutions use valid padding and the cross-correlation convention
(out(x) accumulates K(i) * X(x+i), no kernel flip). Complex layers store
split re/im weights; their arithmetic is the complex multiply-accumulate
(Kr + i*Ki)(Xr + i*Xi) = (Kr*Xr - Ki*Xi) + i(Kr*Xi + Ki*Xr).

A convolution is one GEMM (Chellapilla, Puri & Simard, 2006): im2col
lays every window of the input out as a row of a column matrix, taken
from sliding_window_view, and the matrix times the kernel reshaped to
[mh*mw*md*Cin, Cout] is the output. The backward pass gives dK as
cols^T dout and dX as the col2im scatter-add of dout K^T. A complex
layer builds the re and im column matrices cr, ci once and does four
real GEMMs of the real layer's shape, re = cr Kr - ci Ki and
im = cr Ki + ci Kr, so a zero imaginary part reproduces the real layer
bit for bit. Column matrices are built a few samples at a time, each at
most _IM2COL_BYTES, which bounds the working set at inference batches.

Every op is an array kernel with a leading batch axis; the model's
forward pass and the training loop's backward pass call these and nothing
else.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError


class ComplexWeights(NamedTuple):
    """The four real arrays of one complex conv layer: kernels
    [mh,mw,md,Cin,Cout] and bias [Cout], each split into re and im."""

    kernels_re: np.ndarray
    kernels_im: np.ndarray
    bias_re: np.ndarray
    bias_im: np.ndarray


# ---------------------------------------------------------------------------
# 3D convolution as im2col + GEMM

# Bound on the bytes of one column matrix. A batch whose columns would
# exceed it runs a few samples at a time: at batch 256 the complex
# layer 1's two column matrices would otherwise take about 38 MB.
_IM2COL_BYTES = 1 << 20


def _check_conv_geometry(xshape, kshape):
    mh, mw, md, cin, _ = kshape
    h, w, d, c = xshape[-4:]
    if c != cin:
        raise DimensionError(f"input channels {c} != kernel channels {cin}")
    if h < mh or w < mw or d < md:
        raise DimensionError(f"kernel {kshape[:3]} larger than input {(h, w, d)}")
    return h - mh + 1, w - mw + 1, d - md + 1


def _pieces(x, kshape, out_shape):
    """Sample slices of x [N,...] whose column matrices fit _IM2COL_BYTES."""
    per_sample = prod(out_shape) * prod(kshape[:4]) * x.itemsize
    step = max(1, _IM2COL_BYTES // per_sample)
    return [slice(s, s + step) for s in range(0, x.shape[0], step)]


def _cols(x, kshape):
    """im2col of x [n,H,W,D,Cin]: one row per output position (n,h,w,d),
    one column per window entry (i,j,k,c) in the kernel's order."""
    win = sliding_window_view(x, kshape[:3], axis=(1, 2, 3))  # [n,H',W',D',Cin,mh,mw,md]
    return win.transpose(0, 1, 2, 3, 5, 6, 7, 4).reshape(-1, prod(kshape[:4]))


def _col2im_add(dx, dcols, kshape):
    """Adjoint of _cols: scatter-add dcols [rows, mh*mw*md*Cin] onto
    dx [n,H,W,D,Cin] in place."""
    mh, mw, md = kshape[:3]
    n, h, w, d, c = dx.shape
    ho, wo, do = h - mh + 1, w - mw + 1, d - md + 1
    dc = dcols.reshape(n, ho, wo, do, mh, mw, md, c)
    if ho * wo * do < mh * mw * md:  # loop over whichever set is smaller
        for y, x, z in product(range(ho), range(wo), range(do)):
            dx[:, y : y + mh, x : x + mw, z : z + md] += dc[:, y, x, z]
    else:
        for i, j, k in product(range(mh), range(mw), range(md)):
            dx[:, i : i + ho, j : j + wo, k : k + do] += dc[:, :, :, :, i, j, k]


def conv3d_real_batch(x: np.ndarray, kernels: np.ndarray, bias) -> np.ndarray:
    """Valid cross-correlation over [N,H,W,D,Cin] -> [N,H',W',D',Cout]."""
    out_shape = _check_conv_geometry(x.shape, kernels.shape)
    k2 = kernels.reshape(-1, kernels.shape[4])
    out = np.empty((x.shape[0], *out_shape, k2.shape[1]), dtype=x.dtype)
    for s in _pieces(x, kernels.shape, out_shape):
        np.matmul(_cols(x[s], kernels.shape), k2, out=out[s].reshape(-1, k2.shape[1]))
    if bias is not None:
        out += bias
    return out


def conv3d_real_batch_backward(x: np.ndarray, kernels: np.ndarray, dout: np.ndarray):
    """Gradients of the valid cross-correlation w.r.t. input, kernels, bias."""
    k2 = kernels.reshape(-1, kernels.shape[4])
    dx = np.zeros_like(x)
    dk = np.zeros_like(k2)
    for s in _pieces(x, kernels.shape, dout.shape[1:4]):
        g = dout[s].reshape(-1, k2.shape[1])
        dk += _cols(x[s], kernels.shape).T @ g
        _col2im_add(dx[s], g @ k2.T, kernels.shape)
    db = dout.sum(axis=(0, 1, 2, 3))
    return dx, dk.reshape(kernels.shape), db


def conv3d_complex_batch(xr, xi, p: ComplexWeights):
    """Complex valid cross-correlation over split parts: with column
    matrices cr, ci of xr, xi, re = cr Kr - ci Ki and im = cr Ki + ci Kr."""
    kshape = p.kernels_re.shape
    out_shape = _check_conv_geometry(xr.shape, kshape)
    kr = p.kernels_re.reshape(-1, kshape[4])
    ki = p.kernels_im.reshape(-1, kshape[4])
    out_re = np.empty((xr.shape[0], *out_shape, kshape[4]), dtype=xr.dtype)
    out_im = np.empty_like(out_re)
    for s in _pieces(xr, kshape, out_shape):
        cr, ci = _cols(xr[s], kshape), _cols(xi[s], kshape)
        re = np.matmul(cr, kr, out=out_re[s].reshape(-1, kshape[4]))
        re -= ci @ ki
        im = np.matmul(cr, ki, out=out_im[s].reshape(-1, kshape[4]))
        im += ci @ kr
        del cr, ci  # so the next piece's columns do not overlap these
    out_re += p.bias_re
    out_im += p.bias_im
    return out_re, out_im


def conv3d_complex_batch_backward(xr, xi, p: ComplexWeights, dre, dim):
    """Real-composite gradients: re and im parts treated as independent reals."""
    kshape = p.kernels_re.shape
    kr = p.kernels_re.reshape(-1, kshape[4])
    ki = p.kernels_im.reshape(-1, kshape[4])
    dxr = np.zeros_like(xr)
    dxi = np.zeros_like(xi)
    dkr = np.zeros_like(kr)
    dki = np.zeros_like(ki)
    for s in _pieces(xr, kshape, dre.shape[1:4]):
        cr, ci = _cols(xr[s], kshape), _cols(xi[s], kshape)
        gr, gi = dre[s].reshape(-1, kshape[4]), dim[s].reshape(-1, kshape[4])
        # one product at a time: each is as large as a kernel or a piece
        dkr += cr.T @ gr
        dkr += ci.T @ gi
        dki += cr.T @ gi
        dki -= ci.T @ gr
        del cr, ci
        dc = gr @ kr.T
        dc += gi @ ki.T
        _col2im_add(dxr[s], dc, kshape)
        dc = gi @ kr.T
        dc -= gr @ ki.T
        _col2im_add(dxi[s], dc, kshape)
        del dc
    dbr = dre.sum(axis=(0, 1, 2, 3))
    dbi = dim.sum(axis=(0, 1, 2, 3))
    return dxr, dxi, dkr.reshape(kshape), dki.reshape(kshape), dbr, dbi


# ---------------------------------------------------------------------------
# activations


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Pre-scaled keep mask; multiplying by it applies inverted dropout."""
    if rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


# ---------------------------------------------------------------------------
# squeeze-and-excitation


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def se_forward_batch(u: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """SE block over [N,H,W,C] with w1 [C/r, C] and w2 [C, C/r]: squeeze
    z = mean over H*W, gate s = sigmoid(w2 relu(w1 z)) in (0,1), output
    u * s per channel. Returns the output and the cache for backward."""
    z = u.mean(axis=(1, 2))
    a1 = z @ w1.T
    h = relu(a1)
    s = _sigmoid(h @ w2.T)
    out = u * s[:, None, None, :]
    return out, (z, a1, h, s)


def se_backward_batch(u: np.ndarray, w1: np.ndarray, w2: np.ndarray, cache, dout: np.ndarray):
    z, a1, h, s = cache
    hw = u.shape[1] * u.shape[2]
    du_direct = dout * s[:, None, None, :]
    ds = (dout * u).sum(axis=(1, 2))
    da2 = ds * s * (1.0 - s)
    dw2 = da2.T @ h
    dh = da2 @ w2
    da1 = dh * (a1 > 0)
    dw1 = da1.T @ z
    dz = da1 @ w1
    du = du_direct + dz[:, None, None, :] / hw
    return du, dw1, dw2


# ---------------------------------------------------------------------------
# dense head


def dense_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fully-connected layer: weights [out, in], bias [out]."""
    return x @ weights.T + bias


def dense_batch_backward(x: np.ndarray, weights: np.ndarray, dout: np.ndarray):
    dw = dout.T @ x
    db = dout.sum(axis=0)
    dx = dout @ weights
    return dx, dw, db


# ---------------------------------------------------------------------------
# weight initialization


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, scale: float = 1.0):
    limit = scale * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
