"""Radix-2 FFT machinery and the band-wise transform feeding the complex stream.

The transform is an iterative Cooley-Tukey decimation-in-time FFT with a
precomputed bit-reversal permutation. The forward transform is
unnormalized (X[k] = sum_t x[t] exp(-2*pi*i*k*t/n)); the inverse conjugates
the twiddles and scales by 1/n, so inverse(forward(x)) == x.

Patch sizes are constrained to powers of two, which keeps the transform
exact without zero padding and preserves spatial alignment between the
real and complex streams.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class FftPlan:
    """Precomputed roots of unity and bit-reversal order for length n."""

    def __init__(self, n: int):
        if not _is_pow2(n):
            raise DimensionError(f"FFT length must be a power of two, got {n}")
        self.n = n
        k = np.arange(n, dtype=np.float64)
        ang = -2.0 * math.pi * k / n
        # twiddle[k] = exp(-2*pi*i*k/n), split storage
        self.tw_re = np.cos(ang)
        self.tw_im = np.sin(ang)
        self.bitrev = self._bit_reversal(n)

    @staticmethod
    def _bit_reversal(n: int) -> np.ndarray:
        bits = n.bit_length() - 1
        rev = np.zeros(n, dtype=np.intp)
        for i in range(n):
            r = 0
            x = i
            for _ in range(bits):
                r = (r << 1) | (x & 1)
                x >>= 1
            rev[i] = r
        return rev


_PLANS: dict = {}


def get_plan(n: int) -> FftPlan:
    plan = _PLANS.get(n)
    if plan is None:
        plan = FftPlan(n)
        _PLANS[n] = plan
    return plan


def fft_last_axis(re: np.ndarray, im: np.ndarray, inverse: bool = False):
    """Transform along the last axis of same-shaped re/im arrays; the
    length must be a power of two.

    Vectorized over all leading axes. Returns new float64 arrays.
    """
    n = re.shape[-1]
    plan = get_plan(n)
    re = np.ascontiguousarray(re[..., plan.bitrev], dtype=np.float64)
    im = np.ascontiguousarray(im[..., plan.bitrev], dtype=np.float64)
    m = 1
    while m < n:
        # combine adjacent blocks of size m into blocks of size 2m;
        # stage twiddles are a stride-n/(2m) slice of the length-n table
        stride = n // (2 * m)
        wr = plan.tw_re[: m * stride : stride]
        wi = plan.tw_im[: m * stride : stride]
        if inverse:
            wi = -wi
        lead = re.shape[:-1]
        re_v = re.reshape(lead + (n // (2 * m), 2, m))
        im_v = im.reshape(lead + (n // (2 * m), 2, m))
        er, ei = re_v[..., 0, :], im_v[..., 0, :]
        orr, oi = re_v[..., 1, :], im_v[..., 1, :]
        tr = orr * wr - oi * wi
        ti = orr * wi + oi * wr
        re = np.concatenate([er + tr, er - tr], axis=-1).reshape(re.shape)
        im = np.concatenate([ei + ti, ei - ti], axis=-1).reshape(im.shape)
        m *= 2
    if inverse:
        re = re / n
        im = im / n
    return re, im


def fft2_arrays(re: np.ndarray, im: np.ndarray):
    """Forward 2D transform over the last two axes: rows then columns."""
    re, im = fft_last_axis(re, im)
    re = np.swapaxes(re, -1, -2)
    im = np.swapaxes(im, -1, -2)
    re, im = fft_last_axis(re, im)
    return np.swapaxes(re, -1, -2), np.swapaxes(im, -1, -2)


def bandwise_fft_arrays(patches: np.ndarray):
    """Per-band 2D FFT of [..., S, S, C] real patches, scaled by 1/S^2.

    Bands never mix; the scaling keeps complex-patch magnitudes on the
    same order as the standardized real patch. DC stays at bin (0,0).
    Returns the (re, im) pair in float64.
    """
    if patches.ndim < 3 or patches.shape[-3] != patches.shape[-2] or not _is_pow2(patches.shape[-3]):
        raise DimensionError(f"bandwise FFT needs square power-of-two [S,S,C] patches, got {patches.shape}")
    s = patches.shape[-3]
    # move bands in front of the two spatial axes so the 2D transform
    # vectorizes across bands (and any batch axes)
    x = np.moveaxis(np.asarray(patches, dtype=np.float64), -1, -3)
    re, im = fft2_arrays(x, np.zeros_like(x))
    scale = 1.0 / (s * s)
    re = np.moveaxis(re, -3, -1) * scale
    im = np.moveaxis(im, -3, -1) * scale
    return re, im
