"""The discrete Fourier transform as GEMMs with dense DFT matrices, and
the band-wise transform feeding the complex stream.

F[k, t] = w[(k*t) mod n] and kron(F, F)[(k, l), (u, v)] = w[(k*u + l*v) mod n]
read every entry from one table w[j] = exp(-2*pi*i*j/n), so none carries
the rounding of a product of twiddles. The forward transform is
unnormalized (X[k] = sum_t x[t] exp(-2*pi*i*k*t/n)); the inverse
conjugates the matrix and scales by 1/n, so inverse(forward(x)) == x.

Patch sizes are constrained to powers of two, which keeps the transform
exact without zero padding and preserves spatial alignment between the
real and complex streams.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import DimensionError


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@cache
def dft(n: int):
    """(re, im) of the n x n DFT matrix F, symmetric, for power-of-two n."""
    if not _is_pow2(n):
        raise DimensionError(f"FFT length must be a power of two, got {n}")
    ang = -2.0 * math.pi * np.arange(n) / n
    kt = np.outer(np.arange(n), np.arange(n)) % n
    return np.cos(ang)[kt], np.sin(ang)[kt]


@cache
def dft2(n: int, dtype):
    """(re, im) of kron(F, F) rounded once to dtype, [n^2, n^2] and
    symmetric: the 2D transform of a row-major flattened n x n array. It
    takes 16 n^4 bytes in float64 (1 MiB at n = 16)."""
    w_re, w_im = (f[1 % n] for f in dft(n))  # row 1 % n of F is the twiddle table w
    kt = np.outer(np.arange(n), np.arange(n))
    idx = ((kt[:, None, :, None] + kt[None, :, None, :]) % n).reshape(n * n, n * n)
    return w_re[idx].astype(dtype), w_im[idx].astype(dtype)


def _precision(x) -> type:
    """A transform's float type: float32 for float32 input, else float64."""
    return np.float32 if x.dtype == np.float32 else np.float64


def _complex_matmul(re, im, f_re, f_im):
    """(re + i im) @ (f_re + i f_im) in split storage; im None is a real
    input and costs two GEMMs instead of four."""
    out_re = re @ f_re
    out_im = re @ f_im
    if im is not None:
        out_re -= im @ f_im
        out_im += im @ f_re
    return out_re, out_im


def fft_last_axis(re: np.ndarray, im: np.ndarray, inverse: bool = False):
    """Transform along the last axis of same-shaped re/im arrays; the
    length must be a power of two.

    Vectorized over all leading axes. Returns new float64 arrays.
    """
    n = re.shape[-1]
    f_re, f_im = dft(n)
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    # F is symmetric, so x @ F transforms each row
    re, im = _complex_matmul(re, im, f_re, -f_im if inverse else f_im)
    if inverse:
        re /= n
        im /= n
    return re, im


def fft2_arrays(re: np.ndarray, im: np.ndarray | None = None):
    """Forward 2D transform over the last two axes, which must be square
    with a power-of-two side; im None is a real input.

    Vectorized over all leading axes. Returns new arrays of re's
    precision: float32 input takes one float32 GEMM per product.
    """
    s = re.shape[-1]
    if re.shape[-2] != s:
        raise DimensionError(f"2D transform needs square trailing axes, got {re.shape}")
    dtype = _precision(re)
    f_re, f_im = dft2(s, dtype)

    def rows(x):
        return None if x is None else np.asarray(x, dtype=dtype).reshape(-1, s * s)

    out_re, out_im = _complex_matmul(rows(re), rows(im), f_re, f_im)
    return out_re.reshape(re.shape), out_im.reshape(re.shape)


def bandwise_fft_arrays(patches: np.ndarray):
    """Per-band 2D FFT of [..., S, S, C] real patches, scaled by 1/S^2.

    Bands never mix; the scaling keeps complex-patch magnitudes on the
    same order as the standardized real patch. DC stays at bin (0,0).
    Returns the (re, im) pair in the patches' precision: float32 for
    float32 patches, else float64.
    """
    if patches.ndim < 3 or patches.shape[-3] != patches.shape[-2] or not _is_pow2(patches.shape[-3]):
        raise DimensionError(f"bandwise FFT needs square power-of-two [S,S,C] patches, got {patches.shape}")
    s = patches.shape[-3]
    # move bands in front of the two spatial axes, so the stack is one
    # [N*C, S*S] matrix and the transform is one product with kron(F, F)
    x = np.moveaxis(np.asarray(patches, dtype=_precision(patches)), -1, -3)
    re, im = fft2_arrays(x)
    # one pass scales (exactly: 1/S^2 is a power of two) and moves the
    # bands back last, in C order as the convolutions read them
    scale = 1.0 / (s * s)
    return tuple(np.multiply(np.moveaxis(a, -3, -1), scale, order="C") for a in (re, im))
