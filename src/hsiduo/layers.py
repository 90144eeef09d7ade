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

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, DimensionError


def _as_float(arr) -> np.ndarray:
    a = np.asarray(arr)
    if a.dtype != np.float32:
        a = a.astype(np.float64)
    return a


# ---------------------------------------------------------------------------
# parameter bundles


@dataclass
class ConvParams:
    """Real 3D conv weights: kernels [mh,mw,md,Cin,Cout], bias [Cout]."""

    kernels: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.kernels = _as_float(self.kernels)
        self.bias = _as_float(self.bias)
        if self.kernels.ndim != 5:
            raise DimensionError(f"conv kernels must be rank 5, got {self.kernels.shape}")
        if self.bias.shape != (self.kernels.shape[4],):
            raise DimensionError("bias length must equal output channel count")
        if not (np.all(np.isfinite(self.kernels)) and np.all(np.isfinite(self.bias))):
            raise DimensionError("conv parameters must be finite")


@dataclass
class ComplexConvParams:
    """Complex 3D conv weights, split storage per part."""

    kernels_re: np.ndarray
    kernels_im: np.ndarray
    bias_re: np.ndarray
    bias_im: np.ndarray

    def __post_init__(self):
        for name in ("kernels_re", "kernels_im", "bias_re", "bias_im"):
            setattr(self, name, _as_float(getattr(self, name)))
        if self.kernels_re.shape != self.kernels_im.shape or self.kernels_re.ndim != 5:
            raise DimensionError("complex kernels must be rank-5 with matching re/im shapes")
        co = self.kernels_re.shape[4]
        if self.bias_re.shape != (co,) or self.bias_im.shape != (co,):
            raise DimensionError("complex bias length must equal output channel count")


@dataclass
class SeParams:
    """Squeeze-excitation weights: w1 [C/r, C], w2 [C, C/r]."""

    w1: np.ndarray
    w2: np.ndarray
    r: int

    def __post_init__(self):
        self.w1 = _as_float(self.w1)
        self.w2 = _as_float(self.w2)
        c_red, c = self.w1.shape
        if self.w2.shape != (c, c_red):
            raise DimensionError(f"w2 shape {self.w2.shape} incompatible with w1 {self.w1.shape}")
        if c_red < 1 or c % self.r != 0 or c // self.r != c_red:
            raise DimensionError(f"reduction ratio {self.r} does not map C={c} to C/r={c_red}")


@dataclass
class DenseParams:
    """Fully-connected weights [out, in] and bias [out]."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = _as_float(self.weights)
        self.bias = _as_float(self.bias)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise DimensionError("dense weights must be [out,in] with bias length out")


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


def conv3d_complex_batch(xr, xi, p: ComplexConvParams):
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


def conv3d_complex_batch_backward(xr, xi, p: ComplexConvParams, dre, dim):
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


def se_forward_batch(u: np.ndarray, p: SeParams):
    """SE block over [N,H,W,C]: squeeze z = mean over H*W, gate
    s = sigmoid(w2 relu(w1 z)) in (0,1), output u * s per channel.
    Returns the output and the cache for backward."""
    z = u.mean(axis=(1, 2))
    a1 = z @ p.w1.T
    h = relu(a1)
    s = _sigmoid(h @ p.w2.T)
    out = u * s[:, None, None, :]
    return out, (z, a1, h, s)


def se_backward_batch(u: np.ndarray, p: SeParams, cache, dout: np.ndarray):
    z, a1, h, s = cache
    hw = u.shape[1] * u.shape[2]
    du_direct = dout * s[:, None, None, :]
    ds = (dout * u).sum(axis=(1, 2))
    da2 = ds * s * (1.0 - s)
    dw2 = da2.T @ h
    dh = da2 @ p.w2
    da1 = dh * (a1 > 0)
    dw1 = da1.T @ z
    dz = da1 @ p.w1
    du = du_direct + dz[:, None, None, :] / hw
    return du, dw1, dw2


# ---------------------------------------------------------------------------
# dense head


def dense_batch(x: np.ndarray, p: DenseParams) -> np.ndarray:
    return x @ p.weights.T + p.bias


def dense_batch_backward(x: np.ndarray, p: DenseParams, dout: np.ndarray):
    dw = dout.T @ x
    db = dout.sum(axis=0)
    dx = dout @ p.weights
    return dx, dw, db


# ---------------------------------------------------------------------------
# weight initialization


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, scale: float = 1.0):
    limit = scale * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_conv(rng: np.random.Generator, kernel_dims, cin: int, cout: int) -> ConvParams:
    mh, mw, md = kernel_dims
    fan_in = mh * mw * md * cin
    fan_out = mh * mw * md * cout
    k = glorot_uniform(rng, (mh, mw, md, cin, cout), fan_in, fan_out)
    return ConvParams(k, np.zeros(cout))


def init_complex_conv(rng: np.random.Generator, kernel_dims, cin: int, cout: int) -> ComplexConvParams:
    mh, mw, md = kernel_dims
    fan_in = mh * mw * md * cin
    fan_out = mh * mw * md * cout
    # per-part scale 1/sqrt(2) so the expected modulus variance matches
    # the real initialization
    scale = 1.0 / np.sqrt(2.0)
    kr = glorot_uniform(rng, (mh, mw, md, cin, cout), fan_in, fan_out, scale)
    ki = glorot_uniform(rng, (mh, mw, md, cin, cout), fan_in, fan_out, scale)
    return ComplexConvParams(kr, ki, np.zeros(cout), np.zeros(cout))


def init_se(rng: np.random.Generator, channels: int, ratio: int) -> SeParams:
    if channels % ratio != 0:
        raise ConfigError(f"se_ratio {ratio} must divide the fused channel count {channels}")
    reduced = channels // ratio
    w1 = glorot_uniform(rng, (reduced, channels), channels, reduced)
    w2 = glorot_uniform(rng, (channels, reduced), reduced, channels)
    return SeParams(w1, w2, ratio)


def init_dense(rng: np.random.Generator, n_in: int, n_out: int) -> DenseParams:
    w = glorot_uniform(rng, (n_out, n_in), n_in, n_out)
    return DenseParams(w, np.zeros(n_out))
