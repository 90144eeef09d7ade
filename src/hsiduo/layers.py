"""Forward and backward semantics of every layer in both streams.

Convolutions use valid padding and the cross-correlation convention
(out(x) accumulates K(i) * X(x+i), no kernel flip). Complex layers store
split re/im weights; their arithmetic is the complex multiply-accumulate
(Kr + i*Ki)(Xr + i*Xi) = (Kr*Xr - Ki*Xi) + i(Kr*Xi + Ki*Xr).

Every op is an array kernel with a leading batch axis; the model's
forward pass and the training loop's backward pass call these and nothing
else.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import DimensionError


class ComplexWeights(NamedTuple):
    """The four real arrays of one complex conv layer: kernels
    [mh,mw,md,Cin,Cout] and bias [Cout], each split into re and im."""

    kernels_re: np.ndarray
    kernels_im: np.ndarray
    bias_re: np.ndarray
    bias_im: np.ndarray


# ---------------------------------------------------------------------------
# real 3D convolution


def _check_conv_geometry(xshape, kshape):
    mh, mw, md, cin, _ = kshape
    h, w, d, c = xshape[-4:]
    if c != cin:
        raise DimensionError(f"input channels {c} != kernel channels {cin}")
    if h < mh or w < mw or d < md:
        raise DimensionError(f"kernel {kshape[:3]} larger than input {(h, w, d)}")
    return h - mh + 1, w - mw + 1, d - md + 1


def conv3d_real_batch(x: np.ndarray, kernels: np.ndarray, bias) -> np.ndarray:
    """Valid cross-correlation over [N,H,W,D,Cin] -> [N,H',W',D',Cout]."""
    ho, wo, do = _check_conv_geometry(x.shape, kernels.shape)
    mh, mw, md = kernels.shape[:3]
    n = x.shape[0]
    out = np.zeros((n, ho, wo, do, kernels.shape[4]), dtype=x.dtype)
    for i, j, k in product(range(mh), range(mw), range(md)):
        xs = x[:, i : i + ho, j : j + wo, k : k + do, :]
        out += xs @ kernels[i, j, k]
    if bias is not None:
        out += bias
    return out


def conv3d_real_batch_backward(x: np.ndarray, kernels: np.ndarray, dout: np.ndarray):
    """Gradients of the valid cross-correlation w.r.t. input, kernels, bias."""
    ho, wo, do = dout.shape[1:4]
    mh, mw, md = kernels.shape[:3]
    dx = np.zeros_like(x)
    dk = np.zeros_like(kernels)
    for i, j, k in product(range(mh), range(mw), range(md)):
        xs = x[:, i : i + ho, j : j + wo, k : k + do, :]
        dk[i, j, k] = np.tensordot(xs, dout, axes=([0, 1, 2, 3], [0, 1, 2, 3]))
        dx[:, i : i + ho, j : j + wo, k : k + do, :] += dout @ kernels[i, j, k].T
    db = dout.sum(axis=(0, 1, 2, 3))
    return dx, dk, db


# ---------------------------------------------------------------------------
# complex 3D convolution (complex multiply-accumulate, split parts)


def conv3d_complex_batch(xr, xi, p: ComplexWeights):
    ho, wo, do = _check_conv_geometry(xr.shape, p.kernels_re.shape)
    mh, mw, md = p.kernels_re.shape[:3]
    n = xr.shape[0]
    co = p.kernels_re.shape[4]
    out_re = np.zeros((n, ho, wo, do, co), dtype=xr.dtype)
    out_im = np.zeros((n, ho, wo, do, co), dtype=xr.dtype)
    for i, j, k in product(range(mh), range(mw), range(md)):
        xrs = xr[:, i : i + ho, j : j + wo, k : k + do, :]
        xis = xi[:, i : i + ho, j : j + wo, k : k + do, :]
        kr = p.kernels_re[i, j, k]
        ki = p.kernels_im[i, j, k]
        out_re += xrs @ kr - xis @ ki
        out_im += xrs @ ki + xis @ kr
    out_re += p.bias_re
    out_im += p.bias_im
    return out_re, out_im


def conv3d_complex_batch_backward(xr, xi, p: ComplexWeights, dre, dim):
    """Real-composite gradients: re and im parts treated as independent reals."""
    ho, wo, do = dre.shape[1:4]
    mh, mw, md = p.kernels_re.shape[:3]
    dxr = np.zeros_like(xr)
    dxi = np.zeros_like(xi)
    dkr = np.zeros_like(p.kernels_re)
    dki = np.zeros_like(p.kernels_im)
    for i, j, k in product(range(mh), range(mw), range(md)):
        xrs = xr[:, i : i + ho, j : j + wo, k : k + do, :]
        xis = xi[:, i : i + ho, j : j + wo, k : k + do, :]
        kr = p.kernels_re[i, j, k]
        ki = p.kernels_im[i, j, k]
        dkr[i, j, k] = np.tensordot(xrs, dre, axes=([0, 1, 2, 3], [0, 1, 2, 3])) + np.tensordot(
            xis, dim, axes=([0, 1, 2, 3], [0, 1, 2, 3])
        )
        dki[i, j, k] = np.tensordot(xrs, dim, axes=([0, 1, 2, 3], [0, 1, 2, 3])) - np.tensordot(
            xis, dre, axes=([0, 1, 2, 3], [0, 1, 2, 3])
        )
        dxr[:, i : i + ho, j : j + wo, k : k + do, :] += dre @ kr.T + dim @ ki.T
        dxi[:, i : i + ho, j : j + wo, k : k + do, :] += dim @ kr.T - dre @ ki.T
    dbr = dre.sum(axis=(0, 1, 2, 3))
    dbi = dim.sum(axis=(0, 1, 2, 3))
    return dxr, dxi, dkr, dki, dbr, dbi


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
