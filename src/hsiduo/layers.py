"""Forward and backward semantics of every layer in both streams.

Convolutions use valid padding and the cross-correlation convention
(out(x) accumulates K(i) * X(x+i), no kernel flip). Complex layers store
split re/im weights; their arithmetic is the complex multiply-accumulate
(Kr + i*Ki)(Xr + i*Xi) = (Kr*Xr - Ki*Xi) + i(Kr*Xi + Ki*Xr).

A convolution is one GEMM (Chellapilla, Puri & Simard, 2006): im2col
lays every window of the input out as a row of a column matrix, and the
matrix times the kernel reshaped to [mh*mw*md*Cin, Cout] is the output;
an input that is one whole window, C-contiguous, is its own column
matrix. The backward pass gives dK as cols^T dout and dX as the col2im
scatter-add of dout K^T.

A complex layer is a set of real convolutions (Trabelsi et al., Deep
Complex Networks, 2018), and each of its three complex products,
C K (forward), conj(C)^T G (dK) and G conj(K)^T (dcols), takes three
real GEMMs of the real layer's shape instead of four, by Gauss's
method, which is numerically stable for matrix products (Higham, 1992).
The variant puts Ki, or the gradient's imaginary part, alone in the
shared product a: forward a = (cr - ci) Ki, re = cr (Kr - Ki) + a,
im = ci (Kr + Ki) + a. With Ki = 0, a is exactly zero and Kr - Ki and
Kr + Ki are exactly Kr, so a real kernel gives the real layer bit for
bit for any imaginary input. (The textbook variant, k1 = (cr + ci) Kr, rounds the
real part differently.) im2col only copies entries, so cr - ci and
cr + ci are the column matrices of xr - xi and xr + xi, formed once on
the inputs rather than on their overlapping windows.

Every conv kernel works in one held, grow-only scratch buffer: its
copied column matrices (written with np.copyto from the window view),
dcols and GEMM temporaries (written with matmul(..., out=)) are views
of it, so a steady-state call allocates only the arrays it returns,
and none of those is a view of the scratch. The kernels share it, so
they are single-threaded: one call at a time per process. A batch runs a few
samples at a time, so that each [rows, window] and [rows, Cout] buffer
is at most _IM2COL_BYTES (or one sample's), and so is a piece of the
input, never larger than its column matrix; with at most three such
buffers and one kernel-sized block per call, the scratch stays small at
any batch.

Every op is an array kernel with a leading batch axis; the model's
forward and backward passes call these and nothing else.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

# Bound on the bytes of one per-piece buffer. A batch whose column
# matrices or [rows, Cout] products would exceed it runs a few samples at
# a time: at batch 256 the complex layer 1's column matrix alone would
# otherwise take about 19 MB.
_IM2COL_BYTES = 1 << 20

# The held scratch: one grow-only byte buffer that every conv kernel
# carves its column matrices, dcols and GEMM temporaries from. Its views
# live within one kernel call and are never returned, so the kernels are
# not reentrant: one thread at a time.
_scratch = np.empty(0, dtype=np.uint8)
_ALIGN = 64  # bytes; every block starts on a cache line


def _scratch_blocks(dtype, *sizes):
    """One flat view of the held scratch per size (in elements), laid end
    to end; the scratch grows to fit and never shrinks."""
    global _scratch
    itemsize = np.dtype(dtype).itemsize
    spans = [-(-n * itemsize // _ALIGN) * _ALIGN for n in sizes]
    if _scratch.nbytes < sum(spans):
        raw = np.empty(sum(spans) + _ALIGN, dtype=np.uint8)
        at = -raw.ctypes.data % _ALIGN
        _scratch = raw[at : at + sum(spans)]
    blocks, at = [], 0
    for n, span in zip(sizes, spans):
        blocks.append(_scratch[at : at + n * itemsize].view(dtype))
        at += span
    return blocks


def _view(block, shape):
    """The leading prod(shape) elements of a flat scratch block as shape."""
    return block[: prod(shape)].reshape(shape)


def _check_conv_geometry(xshape, kshape):
    mh, mw, md, cin, _ = kshape
    h, w, d, c = xshape[-4:]
    if c != cin:
        raise DimensionError(f"input channels {c} != kernel channels {cin}")
    if h < mh or w < mw or d < md:
        raise DimensionError(f"kernel {kshape[:3]} larger than input {(h, w, d)}")
    return h - mh + 1, w - mw + 1, d - md + 1


def _pieces(x, kshape, out_shape):
    """Rows of the largest piece and the sample slices of x [N,...]: a
    piece's [rows, window] and [rows, Cout] buffers each fit _IM2COL_BYTES."""
    cells = prod(out_shape)
    step = min(x.shape[0], max(1, _IM2COL_BYTES // (cells * max(prod(kshape[:4]), kshape[4]) * x.itemsize)))
    return step * cells, [slice(s, s + step) for s in range(0, x.shape[0], step)]


def _cols(x, kshape, block):
    """im2col of x [n,H,W,D,Cin]: one row per output position (n,h,w,d),
    one column per window entry (i,j,k,c) in the kernel's order. Returns
    the [rows, mh*mw*md*Cin] matrix, copied into the scratch block, or a
    view of x itself when x is C-contiguous and one whole window."""
    (n, h, w, d, c), (mh, mw, md), (sn, sh, sw, sd, sc) = x.shape, kshape[:3], x.strides
    if (h, w, d) == (mh, mw, md) and x.flags.c_contiguous:
        return x.reshape(n, -1)
    win = as_strided(x, (n, h - mh + 1, w - mw + 1, d - md + 1, mh, mw, md, c),  # [n,H',W',D',mh,mw,md,Cin]
                     (sn, sh, sw, sd, sh, sw, sd, sc), writeable=False)
    cols = _view(block, win.shape)
    np.copyto(cols, win)
    return cols.reshape(-1, prod(kshape[:4]))


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
    window, cout = prod(kernels.shape[:4]), kernels.shape[4]
    k2 = kernels.reshape(window, cout)
    out = np.empty((x.shape[0], *out_shape, cout), dtype=x.dtype)
    rows, pieces = _pieces(x, kernels.shape, out_shape)
    (c,) = _scratch_blocks(x.dtype, rows * window)
    for s in pieces:
        np.matmul(_cols(x[s], kernels.shape, c), k2, out=out[s].reshape(-1, cout))
    if bias is not None:
        out += bias
    return out


def conv3d_real_batch_backward(x: np.ndarray, kernels: np.ndarray, dout: np.ndarray):
    """Gradients of the valid cross-correlation w.r.t. input, kernels, bias."""
    kshape = kernels.shape
    window, cout = prod(kshape[:4]), kshape[4]
    k2 = kernels.reshape(window, cout)
    dx = np.zeros_like(x)
    dk = np.zeros_like(k2)
    rows, pieces = _pieces(x, kshape, dout.shape[1:4])
    c, t = _scratch_blocks(x.dtype, rows * window, k2.size)  # columns, then dcols
    t = t.reshape(k2.shape)
    for s in pieces:
        g = dout[s].reshape(-1, cout)
        dk += np.matmul(_cols(x[s], kshape, c).T, g, out=t)
        _col2im_add(dx[s], np.matmul(g, k2.T, out=_view(c, (len(g), window))), kshape)
    db = dout.sum(axis=(0, 1, 2, 3))
    return dx, dk.reshape(kshape), db


def conv3d_complex_batch(xr, xi, p: ComplexWeights):
    """Complex valid cross-correlation over split parts, in three real
    GEMMs: with column matrices cr, ci of xr, xi, a = (cr - ci) Ki,
    re = cr (Kr - Ki) + a and im = ci (Kr + Ki) + a."""
    kshape = p.kernels_re.shape
    out_shape = _check_conv_geometry(xr.shape, kshape)
    window, cout = prod(kshape[:4]), kshape[4]
    kr = p.kernels_re.reshape(window, cout)
    ki = p.kernels_im.reshape(window, cout)
    rows, pieces = _pieces(xr, kshape, out_shape)
    c, t, k = _scratch_blocks(xr.dtype, rows * window, max(rows * cout, xr[pieces[0]].size), kr.size)
    out_re = np.empty((xr.shape[0], *out_shape, cout), dtype=xr.dtype)
    out_im = np.empty_like(out_re)
    # two passes, so that one kernel-sized block holds Kr - Ki, then Kr + Ki;
    # out_im holds a between them, and t holds xr - xi, then ci (Kr + Ki)
    k = np.subtract(kr, ki, out=k.reshape(kr.shape))
    for s in pieces:
        re, a = out_re[s].reshape(-1, cout), out_im[s].reshape(-1, cout)
        np.matmul(_cols(np.subtract(xr[s], xi[s], out=_view(t, xr[s].shape)), kshape, c), ki, out=a)
        np.matmul(_cols(xr[s], kshape, c), k, out=re)
        re += a
    k = np.add(kr, ki, out=k)
    for s in pieces:
        im = out_im[s].reshape(-1, cout)
        im += np.matmul(_cols(xi[s], kshape, c), k, out=_view(t, im.shape))
    out_re += p.bias_re
    out_im += p.bias_im
    return out_re, out_im


def conv3d_complex_batch_backward(xr, xi, p: ComplexWeights, dre, dim):
    """Real-composite gradients: re and im parts treated as independent
    reals, each product conj(C)^T G and G conj(K)^T in three real GEMMs:
    a = (cr + ci)^T gi, dKr = cr^T (gr - gi) + a, dKi = a - ci^T (gr + gi);
    a = (gi - gr) Ki^T, dxr = col2im(gr (Kr + Ki)^T + a),
    dxi = col2im(gi (Kr - Ki)^T + a)."""
    kshape = p.kernels_re.shape
    window, cout = prod(kshape[:4]), kshape[4]
    kr = p.kernels_re.reshape(window, cout)
    ki = p.kernels_im.reshape(window, cout)
    dxr = np.zeros_like(xr)
    dxi = np.zeros_like(xi)
    dkr = np.zeros_like(kr)
    dki = np.zeros_like(ki)
    rows, pieces = _pieces(xr, kshape, dre.shape[1:4])
    # the column matrices, then dcols' a, share one block; dcols' block first
    # holds xr + xi, which is no larger; one kernel-sized block holds each dK
    # product, then Kr + Ki, then Kr - Ki
    ca, dc, g, k = _scratch_blocks(xr.dtype, rows * window, rows * window, rows * cout, kr.size)
    k = k.reshape(kr.shape)
    for s in pieces:
        gr, gi = dre[s].reshape(-1, cout), dim[s].reshape(-1, cout)
        gc = _view(g, gr.shape)
        a = np.matmul(_cols(np.add(xr[s], xi[s], out=_view(dc, xr[s].shape)), kshape, ca).T, gi, out=k)
        dkr += a
        dki += a
        dkr += np.matmul(_cols(xr[s], kshape, ca).T, np.subtract(gr, gi, out=gc), out=k)
        dki -= np.matmul(_cols(xi[s], kshape, ca).T, np.add(gr, gi, out=gc), out=k)
        a = np.matmul(np.subtract(gi, gr, out=gc), ki.T, out=_view(ca, (len(gr), window)))
        d = np.matmul(gr, np.add(kr, ki, out=k).T, out=_view(dc, a.shape))
        d += a
        _col2im_add(dxr[s], d, kshape)
        d = np.matmul(gi, np.subtract(kr, ki, out=k).T, out=d)
        d += a
        _col2im_add(dxi[s], d, kshape)
    dbr = dre.sum(axis=(0, 1, 2, 3))
    dbi = dim.sum(axis=(0, 1, 2, 3))
    return dxr, dxi, dkr.reshape(kshape), dki.reshape(kshape), dbr, dbi


# ---------------------------------------------------------------------------
# activations


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU in place: x becomes its own activation."""
    return np.maximum(x, 0.0, out=x)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Pre-scaled keep mask; multiplying by it applies inverted dropout."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


# ---------------------------------------------------------------------------
# squeeze-and-excitation


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below: both use e^-|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def se_forward_batch(u: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """SE block over [N,H,W,C] with w1 [C/r, C] and w2 [C, C/r]: squeeze
    z = mean over H*W, gate s = sigmoid(w2 relu(w1 z)) in (0,1), output
    u * s per channel. Returns the output and the cache for backward."""
    z = u.mean(axis=(1, 2))
    h = relu(z @ w1.T)
    s = _sigmoid(h @ w2.T)
    out = u * s[:, None, None, :]
    return out, (z, h, s)


def se_backward_batch(u: np.ndarray, w1: np.ndarray, w2: np.ndarray, cache, dout: np.ndarray):
    z, h, s = cache
    hw = u.shape[1] * u.shape[2]
    du_direct = dout * s[:, None, None, :]
    ds = (dout * u).sum(axis=(1, 2))
    da2 = ds * s * (1.0 - s)
    dw2 = da2.T @ h
    dh = da2 @ w2
    da1 = dh * (h > 0)  # h > 0 exactly where w1 z > 0
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
