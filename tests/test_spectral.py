import cmath
import math

import numpy as np
import pytest

from hsiduo.errors import DimensionError
from hsiduo.spectral import bandwise_fft_arrays, dft, fft2_arrays, fft_last_axis


def naive_dft(x, inverse=False):
    """O(n^2) reference transform straight from the summation formula."""
    n = len(x)
    sign = 1.0 if inverse else -1.0
    out = []
    for k in range(n):
        acc = 0j
        for t in range(n):
            acc += x[t] * cmath.exp(sign * 2j * math.pi * k * t / n)
        out.append(acc / n if inverse else acc)
    return out


def naive_dft_2d(mat):
    s = mat.shape[0]
    out = np.zeros((s, s), dtype=complex)
    for k in range(s):
        for l in range(s):
            acc = 0j
            for u in range(s):
                for v in range(s):
                    acc += mat[u, v] * cmath.exp(-2j * math.pi * (k * u + l * v) / s)
            out[k, l] = acc
    return out


def fft(values, inverse=False):
    """The public array FFT on a complex vector, as one complex array."""
    values = np.asarray(values, dtype=complex)
    re, im = fft_last_axis(values.real, values.imag, inverse)
    return re + 1j * im


def fft2(mat):
    mat = np.asarray(mat, dtype=complex)
    re, im = fft2_arrays(mat.real, mat.imag)
    return re + 1j * im


def bandwise(patch):
    re, im = bandwise_fft_arrays(np.asarray(patch, dtype=np.float64))
    return re + 1j * im


def test_twiddles_match_closed_form():
    for n in (1, 2, 8, 64):
        f_re, f_im = dft(n)  # row 1 % n of F is the twiddle table
        for k in range(n):
            w = cmath.exp(-2j * math.pi * k / n)
            assert abs(f_re[1 % n, k] - w.real) < 1e-15
            assert abs(f_im[1 % n, k] - w.imag) < 1e-15


def test_constant_signal_concentrates_at_dc():
    out = fft([1, 1, 1, 1])
    assert np.allclose(out, [4, 0, 0, 0], atol=1e-14)


def test_impulse_gives_flat_spectrum():
    out = fft([1, 0, 0, 0])
    assert np.allclose(out, [1, 1, 1, 1], atol=1e-14)


def test_random_length_16_matches_naive_dft():
    rng = np.random.default_rng(0)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    got = fft(x)
    want = np.array(naive_dft(list(x)))
    assert np.abs(got - want).max() < 1e-9


def test_inverse_matches_naive_inverse():
    rng = np.random.default_rng(1)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    got = fft(x, inverse=True)
    want = np.array(naive_dft(list(x), inverse=True))
    assert np.abs(got - want).max() < 1e-9


def test_non_power_of_two_rejected():
    with pytest.raises(DimensionError):
        fft([1, 2, 3])
    with pytest.raises(DimensionError):
        dft(12)


def test_fft_2d_constant_concentrates_at_origin():
    v = 2.5
    out = fft2(np.full((4, 4), v))
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 16 * v
    assert np.abs(out - want).max() < 1e-12


def test_fft_2d_zero_is_zero():
    out = fft2(np.zeros((4, 4)))
    assert np.all(out == 0)


def test_fft_2d_random_matches_nested_oracle():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = fft2(mat)
    assert np.abs(got - naive_dft_2d(mat)).max() < 1e-9


def test_fft_2d_rejects_non_square():
    # the 2D transform runs on patches, which must be square
    with pytest.raises(DimensionError):
        bandwise(np.zeros((2, 4, 1)))


def test_fft_2d_row_column_order_independent():
    rng = np.random.default_rng(9)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    direct = fft2(mat)
    swapped = fft2(mat.T).T
    assert np.abs(direct - swapped).max() < 1e-10


def test_bandwise_constant_bands():
    patch = np.zeros((4, 4, 2))
    patch[:, :, 0] = 1.0
    patch[:, :, 1] = 2.0
    out = bandwise(patch)
    re, im = out.real, out.imag
    # 1/S^2 scaling puts the per-band mean at the DC bin
    assert abs(re[0, 0, 0] - 1.0) < 1e-14
    assert abs(re[0, 0, 1] - 2.0) < 1e-14
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    assert np.abs(re[mask]).max() < 1e-14
    assert np.abs(im).max() < 1e-14


def test_bandwise_zero_patch():
    out = bandwise(np.zeros((4, 4, 3)))
    assert np.all(out.real == 0) and np.all(out.imag == 0)


def test_bandwise_matches_per_band_oracle_and_band_independence():
    rng = np.random.default_rng(3)
    patch = rng.normal(size=(8, 8, 3))
    out = bandwise(patch)
    for band in range(3):
        want = naive_dft_2d(patch[:, :, band].astype(complex)) / 64.0
        got = out[:, :, band]
        assert np.abs(got - want).max() < 1e-9

    # perturbing band 0 must leave bands 1 and 2 bitwise unchanged
    perturbed = patch.copy()
    perturbed[:, :, 0] += rng.normal(size=(8, 8))
    out2 = bandwise(perturbed)
    assert np.array_equal(out.real[:, :, 1:], out2.real[:, :, 1:])
    assert np.array_equal(out.imag[:, :, 1:], out2.imag[:, :, 1:])


@pytest.mark.parametrize("s", [16, 32])
def test_bandwise_matches_naive_dft_at_large_patch_sizes(s):
    rng = np.random.default_rng(s)
    patch = rng.normal(size=(s, s, 2))
    out = bandwise(patch)
    band = 1 if s == 16 else 0  # the O(S^4) oracle on one band
    want = naive_dft_2d(patch[:, :, band].astype(complex)) / (s * s)
    assert np.abs(out[:, :, band] - want).max() < 1e-9


def test_bandwise_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        bandwise(np.zeros((3, 3, 2)))
    with pytest.raises(DimensionError):
        bandwise(np.zeros((4, 8, 2)))


def test_roundtrip_all_sizes_up_to_64():
    rng = np.random.default_rng(4)
    for n in (1, 2, 4, 8, 16, 32, 64):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = fft(fft(x), inverse=True)
        assert np.abs(back - x).max() < 1e-12


def test_linearity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        a, b = rng.normal(), rng.normal()
        lhs = fft(a * x + b * y)
        rhs = a * fft(x) + b * fft(y)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_parseval():
    rng = np.random.default_rng(6)
    for n in (4, 16, 64):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        spec = fft(x)
        lhs = (np.abs(x) ** 2).sum()
        rhs = (np.abs(spec) ** 2).sum() / n
        assert abs(lhs - rhs) / lhs < 1e-10


def test_real_input_conjugate_symmetry():
    rng = np.random.default_rng(7)
    for n in (8, 32):
        x = rng.normal(size=n)
        spec = fft(x)
        for k in range(n):
            assert abs(spec[k] - spec[(n - k) % n].conjugate()) < 1e-10


def test_even_symmetric_bands_give_real_spectrum():
    rng = np.random.default_rng(8)
    s = 8
    patch = rng.normal(size=(s, s, 2))
    # symmetrize: x[i,j] == x[(-i) mod S, (-j) mod S]
    idx = (-np.arange(s)) % s
    patch = 0.5 * (patch + patch[np.ix_(idx, idx)])
    out = bandwise(patch)
    assert np.abs(out.imag).max() < 1e-10



def test_bandwise_float32_is_within_the_sgemm_bound_of_float64():
    # Each output bin of a patch band is (1/n) sum_t x_t f_t over its
    # n = S^2 values, |f_t| <= 1. Float32 input is transformed in float32
    # with each f_t rounded once (relative error u = 2^-24), and any order
    # of a float32 dot product of n terms errs by at most
    # gamma_n sum |x_t f_t|, gamma_n = n u / (1 - n u): together
    # (n + 1) u / (1 - n u) sum |x_t|. The float64 transform of the same
    # values errs by at most gamma_n at u = 2^-53, and the 1/S^2 scale is
    # exact, so each bin lies within (n + 1)(2^-24 + 2^-53) / (1 - n 2^-24)
    # times its band's mean |x_t| of the float64 one
    s, n, u = 8, 64, 2.0**-24
    rng = np.random.default_rng(11)
    x = (rng.normal(size=(96, s, s, 16)) * 10.0 ** np.linspace(-3, 4, 16)).astype(np.float32)
    re, im = bandwise_fft_arrays(x)
    assert re.dtype == im.dtype == np.float32 and re.flags.c_contiguous and im.flags.c_contiguous
    x64 = x.astype(np.float64)
    re64, im64 = bandwise_fft_arrays(x64)
    assert re64.dtype == im64.dtype == np.float64
    bound = (n + 1) * (u + 2.0**-53) / (1 - n * u) * np.abs(x64).mean(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(re - re64) <= bound) and np.all(np.abs(im - im64) <= bound)
