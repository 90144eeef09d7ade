import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiduo import data
from hsiduo.data import (
    HsiCube,
    LabelMap,
    extract_patches_array,
    fit_pca,
    jacobi_eigh,
    load_cube,
    load_labels,
    save_cube,
    save_labels,
    standardize,
    stratified_split,
    synth_dataset,
)
from hsiduo.errors import ConfigError, DataError, DimensionError, IngestionError
from hsiduo.tensor import Tensor


# ---------------------------------------------------------------------------
# file io


def test_single_value_cube_roundtrip(tmp_path):
    cube = HsiCube(Tensor.from_array(np.full((1, 1, 1), np.float32(3.5))))
    path = str(tmp_path / "one.json")
    save_cube(cube, path)
    back = load_cube(path)
    assert back.values.as_array()[0, 0, 0] == 3.5


def test_cube_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(4, 5, 6)).astype(np.float32).astype(np.float64)
    cube = HsiCube(Tensor.from_array(vals))
    path = str(tmp_path / "cube.json")
    save_cube(cube, path)
    back = load_cube(path)
    assert np.array_equal(back.values.data, cube.values.data)
    assert (back.height, back.width, back.bands) == (4, 5, 6)


def test_load_cube_converts_in_one_pass(tmp_path):
    from test_tensor import traced_peak

    rng = np.random.default_rng(1)
    vals = rng.normal(size=(64, 48, 103)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "cube.json")
    save_cube(HsiCube(Tensor.from_array(vals)), path)
    cube, peak = traced_peak(load_cube, path)
    arr = cube.values.as_array()
    assert arr.dtype == np.float32 and np.array_equal(arr, vals)
    assert arr.flags.c_contiguous and not arr.flags.writeable
    # the check's 1 MiB read chunk is an anonymous mapping, outside
    # tracemalloc's count; what is left is the header and the chunk's band
    # views, a bound whatever the cube's size (this payload is 1.2 MiB)
    assert peak < 64 * 1024


def _row_major_pca(pixels, n_components, block=8192):
    """fit_pca's arithmetic on row-major [n, B] pixels. Per row block: each
    band's sum, pairwise along its run of the block as numpy sums a
    contiguous axis; the block centred on its own mean and its scatter
    c^T c; and the scatter of the block's mean about the mean of the rows
    before it, with weight p0 k / (p0 + k). Then one projection per row
    block, centred on the mean of all rows."""
    n, b = pixels.shape
    buf = np.empty((min(n, block), b))
    blocks = [slice(i, min(i + block, n)) for i in range(0, n, block)]

    def centered(rows, mean):
        part = pixels[rows]
        return np.subtract(part, mean, out=buf[: part.shape[0]])

    total, cov = np.zeros(b), np.zeros((b, b))
    for rows in blocks:
        p0, k = rows.start, rows.stop - rows.start
        s = np.ascontiguousarray(pixels[rows].T, dtype=np.float64).sum(axis=1)
        c = centered(rows, s / k)
        cov += c.T @ c
        if p0:
            d = s / k - total / p0
            cov += np.outer(d, d) * (p0 * k / (p0 + k))
        total += s
    mean = total / n
    cov /= n - 1
    vals, vecs = jacobi_eigh(cov)
    components = data._sign_normalize(vecs[:, :n_components])
    reduced = np.empty((n, n_components))
    for rows in blocks:
        np.matmul(centered(rows, mean), components, out=reduced[rows])
    return mean, components, np.maximum(vals, 0.0)[:n_components], reduced


def sign_normalize_loop(components):
    """The column loop that _sign_normalize replaced."""
    out = components.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(b=st.integers(1, 12), p=st.integers(1, 12), ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sign_normalize_is_bitwise_the_column_loop(b, p, ties, seed):
    rng = np.random.default_rng(seed)
    # small integers give tied magnitudes, zero columns and -0.0 entries
    if ties:
        m = rng.integers(-2, 3, size=(b, p)).astype(np.float64)
        m[m == 0] = np.where(rng.random(int((m == 0).sum())) < 0.5, -0.0, 0.0)
    else:
        m = rng.normal(size=(b, p))
    assert data._sign_normalize(m).tobytes() == sign_normalize_loop(m).tobytes()


@pytest.mark.parametrize("shape", [(97, 171, 20), (89, 97, 103), "synth", "float64"])
def test_fit_pca_is_bitwise_the_row_major_arithmetic(tmp_path, monkeypatch, shape):
    # 16,587 and 8,633 pixels: full blocks and a ragged last one; the synth
    # scene's 1,440 pixels in blocks of 600, 600 and 240. Magnitudes
    # spread over eight decades, so that a band's float64 sum rounds and
    # the order of the mean's additions shows in its bits
    rng = np.random.default_rng(7)
    block = 600 if shape == "synth" else data._PCA_BLOCK_ROWS
    monkeypatch.setattr(data, "_PCA_BLOCK_ROWS", block)
    if shape == "synth":
        cube = synth_dataset(4, 40, 36, 24, 0.1, 2)[0]
    elif shape == "float64":
        cube = HsiCube(Tensor.from_array(rng.normal(size=(91, 93, 12)) * 10.0 ** rng.uniform(-6, 2, (91, 93, 12))))
    else:
        vals = (rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, shape)).astype(np.float32)
        save_cube(HsiCube(Tensor.from_array(vals)), str(tmp_path / "cube.json"))
        cube = load_cube(str(tmp_path / "cube.json"))
    pixels = cube.values.as_array().reshape(-1, cube.bands)
    pca, reduced = fit_pca(cube, 8)
    mean, components, variance, ref = _row_major_pca(pixels, 8, block)
    assert np.array_equal(pca.mean, mean)
    assert np.array_equal(pca.components, components)
    assert np.array_equal(pca.explained_variance, variance)
    assert np.array_equal(reduced.as_array().reshape(ref.shape), ref)


def test_fit_pca_on_a_loaded_cube_holds_no_cube_sized_array(tmp_path, monkeypatch):
    from test_tensor import traced_peak

    h, w, b = 64, 48, 103
    vals = np.random.default_rng(2).normal(size=(h, w, b)).astype(np.float32)
    save_cube(HsiCube(Tensor.from_array(vals)), str(tmp_path / "cube.json"))
    block = 1000
    monkeypatch.setattr(data, "_PCA_BLOCK_ROWS", block)
    cube = load_cube(str(tmp_path / "cube.json"))
    (pca, reduced), peak = traced_peak(fit_pca, cube, 16)
    # reduced plus two float64 blocks, under the float64 cube's 2.5 MB (the
    # held block buffer itself is mapped outside tracemalloc's count)
    assert peak < reduced.data.nbytes + 2 * block * b * 8 < h * w * b * 8


def test_loaded_cube_pca_is_bitwise_the_float64_pca(tmp_path):
    # 97 x 171 pixels: two full fit_pca row blocks and a ragged third; 20
    # bands, so load_cube reads the payload in two tiles of rows
    h, w, b = 97, 171, 20
    assert 2 * data._PCA_BLOCK_ROWS < h * w < 3 * data._PCA_BLOCK_ROWS
    rng = np.random.default_rng(13)
    vals = (rng.normal(size=(h, w, b)) * np.geomspace(3.0, 0.01, b) + 5.0).astype(np.float32)
    path = str(tmp_path / "cube.json")
    save_cube(HsiCube(Tensor.from_array(vals)), path)
    loaded = load_cube(path)
    arr = loaded.values.as_array()
    payload = np.fromfile(str(tmp_path / "cube.raw"), dtype="<f4").reshape(b, h, w)
    assert arr.dtype == np.float32 and arr.flags.c_contiguous and not arr.flags.writeable
    assert np.array_equal(arr, payload.transpose(1, 2, 0))

    pca32, reduced32 = fit_pca(loaded, 8)
    pca64, reduced64 = fit_pca(HsiCube(Tensor.from_array(vals.astype(np.float64))), 8)
    for name in ("mean", "components", "explained_variance"):
        assert np.array_equal(getattr(pca32, name), getattr(pca64, name)), name
    assert np.array_equal(reduced32.data, reduced64.data)
    assert np.array_equal(standardize(reduced32).data, standardize(reduced64).data)


def test_in_memory_cube_names_its_first_non_finite_band():
    vals = np.ones((3, 4, 5))
    vals[2, 1, 3] = np.nan
    vals[0, 0, 4] = -np.inf
    with pytest.raises(DataError, match=r"band 3 \(counting from 0\) of the cube holds a non-finite value"):
        HsiCube(Tensor.from_array(vals))


def test_loaded_cube_names_the_lowest_non_finite_band_of_any_block(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_CHECK_CHUNK_VALUES", 64)
    path = str(tmp_path / "cube.json")
    save_cube(HsiCube(Tensor.from_array(np.ones((20, 10, 8)))), path)
    payload = np.fromfile(str(tmp_path / "cube.raw"), dtype="<f4").reshape(8, 200)
    payload[5, 3] = np.nan  # value 1,003, in read chunk 15
    payload[2, 152] = np.nan  # value 552, in read chunk 8
    payload.tofile(str(tmp_path / "cube.raw"))
    with pytest.raises(DataError, match=r"cube.json: band 2 \(counting from 0\)"):
        load_cube(path)


def test_load_cube_reads_the_payload_front_to_back_in_chunks(tmp_path, monkeypatch):
    h, w, b = 64, 48, 103
    save_cube(HsiCube(Tensor.from_array(np.ones((h, w, b), dtype=np.float32))), str(tmp_path / "cube.json"))
    reads = []

    class CountingFile(io.FileIO):
        def readinto(self, buf):
            reads.append(self.tell())
            return super().readinto(buf)

        def read(self, size=-1):
            reads.append(self.tell())
            return super().read(size)

    monkeypatch.setattr(data, "open", lambda path, mode, buffering=-1: CountingFile(path, mode), raising=False)
    load_cube(str(tmp_path / "cube.json"))
    # the check reads 1 MiB at a time, in file order: 2 reads of this 1.2 MiB
    # payload, where a band-by-band read of pixel blocks makes 103
    assert 0 < len(reads) <= math.ceil(4 * h * w * b / 2**20)
    assert reads == sorted(reads)


NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


# a 5 x 6 x 7 cube is 7 bands of 30 values; reads of 20 values end inside
# band 1 (after value 39) and at the end of band 1 (after value 59)
@pytest.mark.parametrize("pos", [0, 39, 40, 59, 60, 209], ids=lambda p: f"value{p}")
@pytest.mark.parametrize("bad", sorted(NON_FINITE))
def test_the_lowest_non_finite_band_is_named_wherever_it_sits(tmp_path, monkeypatch, bad, pos):
    monkeypatch.setattr(data, "_CHECK_CHUNK_VALUES", 20)
    bsq = np.ones(210, dtype=np.float32)
    bsq[pos] = NON_FINITE[bad]
    if pos < 180:
        bsq[-1] = np.nan  # the last band holds one too, and must not be the one named
    message = rf"band {pos // 30} \(counting from 0\) of the cube holds a non-finite value"
    with pytest.raises(DataError, match=message):
        HsiCube(Tensor.from_array(bsq.reshape(7, 5, 6).transpose(1, 2, 0)))
    save_cube(HsiCube(Tensor.from_array(np.ones((5, 6, 7)))), str(tmp_path / "cube.json"))
    bsq.tofile(str(tmp_path / "cube.raw"))
    with pytest.raises(DataError, match="cube.json: " + message):
        load_cube(str(tmp_path / "cube.json"))


def test_a_payload_that_ends_early_while_read_raises(tmp_path, monkeypatch):
    save_cube(HsiCube(Tensor.from_array(np.ones((5, 6, 7)))), str(tmp_path / "cube.json"))
    with open(tmp_path / "cube.raw", "r+b") as fh:
        fh.truncate(4 * 95)  # 3 bands and 5 values
    monkeypatch.setattr(data, "_check_payload_size", lambda path, expected: None)  # shrunk after the check
    with pytest.raises(IngestionError, match=r"cube.raw: ended inside band 3"):
        load_cube(str(tmp_path / "cube.json"))


@pytest.mark.parametrize("size", [4 * 6 * 5 * 7 - 4, 4 * 6 * 5 * 7 + 8])
def test_fit_pca_rechecks_a_payload_changed_after_load(tmp_path, size):
    save_cube(HsiCube(Tensor.from_array(np.arange(210.0).reshape(6, 5, 7))), str(tmp_path / "cube.json"))
    cube = load_cube(str(tmp_path / "cube.json"))
    raw = str(tmp_path / "cube.raw")
    with open(raw, "r+b") as fh:
        fh.truncate(size)  # truncated, or grown with zeros
    with pytest.raises(IngestionError, match=re.escape(f"payload {raw}: expected 840 bytes, found {size}")):
        fit_pca(cube, 3)


def test_loaders_close_their_files(tmp_path, monkeypatch):
    save_cube(HsiCube(Tensor.from_array(np.arange(24.0).reshape(2, 3, 4))), str(tmp_path / "cube.json"))
    save_labels(LabelMap(np.ones((2, 3), dtype=int)), str(tmp_path / "labels.json"))
    unraised = []
    monkeypatch.setattr(sys, "unraisablehook", unraised.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)  # raised when a file is freed open
        cube = load_cube(str(tmp_path / "cube.json"))
        load_labels(str(tmp_path / "labels.json"))
        fit_pca(cube, 2)
        cube.values
    assert not unraised


def test_labels_roundtrip_with_names(tmp_path):
    labels = LabelMap(np.array([[0, 1], [2, 1]]), ("a", "b"))
    path = str(tmp_path / "labels.json")
    save_labels(labels, path)
    back = load_labels(path)
    assert np.array_equal(back.labels, labels.labels)
    assert back.class_names == ("a", "b")


def test_all_zero_labels_fail_downstream_split(tmp_path):
    labels = LabelMap(np.zeros((3, 3), dtype=int))
    path = str(tmp_path / "zeros.json")
    save_labels(labels, path)
    back = load_labels(path)
    assert back.n_classes == 0
    with pytest.raises(DataError, match="no labeled pixels"):
        stratified_split(back)


def test_ingestion_errors(tmp_path):
    with pytest.raises(IngestionError, match="not found"):
        load_cube(str(tmp_path / "missing.json"))

    cube = HsiCube(Tensor.from_array(np.zeros((2, 2, 2), dtype=np.float32)))
    path = str(tmp_path / "cube.json")
    save_cube(cube, path)

    raw = str(tmp_path / "cube.raw")
    with open(raw, "ab") as fh:
        fh.write(b"\x00\x00\x00\x00")
    with pytest.raises(IngestionError, match="expected 32 bytes, found 36"):
        load_cube(path)

    header = json.load(open(path))
    header["dtype"] = "f16"
    json.dump(header, open(path, "w"))
    with pytest.raises(IngestionError, match="unknown cube dtype"):
        load_cube(path)

    open(path, "w").write("{broken")
    with pytest.raises(IngestionError, match="malformed header"):
        load_cube(path)


# ---------------------------------------------------------------------------
# PCA


def test_pca_axis_aligned_two_band_case():
    vals = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]]).reshape(4, 1, 2)
    model, reduced = fit_pca(HsiCube(Tensor.from_array(vals)), 2)
    # sign normalization makes the leading component +(1, 0)
    assert np.allclose(model.components[:, 0], [1.0, 0.0], atol=1e-12)
    assert model.explained_variance[1] < 1e-12
    assert model.explained_variance[0] > 0


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(10, 10, 5))
    model, reduced = fit_pca(HsiCube(Tensor.from_array(vals)), 5)
    pixels = vals.reshape(-1, 5)
    recon = model.mean + reduced.as_array().reshape(-1, 5) @ model.components.T
    assert np.abs(recon - pixels).max() < 1e-8


def test_pca_matches_dense_eigensolver():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(10, 10, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
    cube = HsiCube(Tensor.from_array(vals))
    model, _ = fit_pca(cube, 3)

    pixels = vals.reshape(-1, 6)
    cov = np.cov(pixels, rowvar=False, ddof=1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    for j in range(3):
        ref = v[:, j]
        if ref[np.argmax(np.abs(ref))] < 0:
            ref = -ref
        assert np.abs(model.components[:, j] - ref).max() < 1e-8
        assert abs(model.explained_variance[j] - w[j]) < 1e-8

    # orthonormality and ordering invariants
    gram = model.components.T @ model.components
    assert np.abs(gram - np.eye(3)).max() < 1e-8
    assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_jacobi_eigh_against_numpy():
    rng = np.random.default_rng(3)
    for n in (2, 5, 12, 1, 3, 103):  # odd sizes take the dummy-index padding path
        m = rng.normal(size=(n, n))
        sym = (m + m.T) / 2
        vals, vecs = jacobi_eigh(sym)
        assert vals.shape == (n,) and vecs.shape == (n, n)
        assert np.all(np.diff(vals) <= 0)
        w = np.sort(np.linalg.eigvalsh(sym))[::-1]
        assert np.abs(vals - w).max() < 1e-10
        # eigen-equation residual
        assert np.abs(sym @ vecs - vecs * vals).max() < 1e-9
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-12


def test_jacobi_eigh_zero_and_diagonal_matrices():
    # nothing to rotate: returned as they are, sorted descending
    for n in (3, 4):
        vals, vecs = jacobi_eigh(np.zeros((n, n)))
        assert np.array_equal(vals, np.zeros(n)) and np.array_equal(vecs, np.eye(n))
    vals, vecs = jacobi_eigh(np.diag([2.0, -1.0, 5.0]))
    assert np.array_equal(vals, [5.0, 2.0, -1.0])
    assert np.array_equal(vecs, np.eye(3)[:, [2, 0, 1]])


def test_jacobi_eigh_residuals_on_a_wide_spectrum():
    # Q diag(logspace(0, -6)) Q^T: six decades, like a band covariance.
    # off(A) taken as sqrt(||A||^2 - ||diag A||^2) cancels below about
    # 1e-8 ||A||, and a bound of tol * max(1, ||A||) is absolute below unit
    # norm; either stops short of a 1e-12 relative off-diagonal norm
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(103, 103)))
    for scale in (1.0, 1e-8):
        sym = scale * (q * np.logspace(0, -6, 103)) @ q.T
        vals, vecs = jacobi_eigh(sym)
        assert np.linalg.norm(sym @ vecs - vecs * vals, axis=0).max() <= 1e-11 * vals[0]


def test_jacobi_eigh_rotates_every_pair_within_one_sweep(monkeypatch):
    # diag(1..n) with one off-diagonal pair: only a rotation of (p, q)
    # clears it, so one sweep must reach every pair, the odd-n dummy too
    monkeypatch.setattr(data, "_JACOBI_SWEEPS", 1)
    for n in (2, 3, 6, 7):
        for p in range(n):
            for q in range(p + 1, n):
                sym = np.diag(np.arange(1.0, n + 1))
                sym[p, q] = sym[q, p] = 1e-3
                vals, vecs = jacobi_eigh(sym)
                assert np.abs(sym @ vecs - vecs * vals).max() <= 1e-12, (n, p, q)


def test_fit_pca_row_blocks_match_one_shot(monkeypatch):
    # two full row blocks and a ragged third
    block = data._PCA_BLOCK_ROWS
    n, b = 2 * block + 37, 6
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(n, 1, b)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.25]) + 5.0
    seen = []
    monkeypatch.setattr(data, "jacobi_eigh", lambda cov: seen.append(cov.copy()) or jacobi_eigh(cov))
    model, reduced = fit_pca(HsiCube(Tensor.from_array(vals)), 4)

    pixels = vals.reshape(n, b)
    centered = pixels - pixels.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    assert np.abs(seen[0] - cov).max() <= 1e-12 * np.abs(cov).max()
    ref = centered @ model.components
    assert reduced.shape == (n, 1, 4)
    assert np.abs(reduced.as_array().reshape(n, 4) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_fit_pca_covariance_holds_when_the_mean_dwarfs_the_spread(monkeypatch):
    # a mean 1e6 times the spread: the textbook sum x x^T - n xbar xbar^T
    # cancels all but about three of its digits here, a scatter merged
    # from blocks centred on their own means keeps nearly all of them
    block = data._PCA_BLOCK_ROWS
    n, b = 2 * block + 37, 6
    rng = np.random.default_rng(8)
    vals = 1e4 + 1e-2 * rng.normal(size=(n, 1, b)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.25])
    seen = []
    monkeypatch.setattr(data, "jacobi_eigh", lambda cov: seen.append(cov.copy()) or jacobi_eigh(cov))
    fit_pca(HsiCube(Tensor.from_array(vals)), 4)

    pixels = vals.reshape(n, b)
    centered = pixels - np.array([math.fsum(band) for band in pixels.T]) / n
    cov = centered.T @ centered / (n - 1)
    assert np.abs(seen[0] - cov).max() <= 1e-11 * np.abs(cov).max()


def test_fit_pca_reads_a_loaded_payload_twice(tmp_path, monkeypatch):
    # one pass for the mean and the covariance, one for the projection;
    # each pass opens the payload once
    monkeypatch.setattr(data, "_PCA_BLOCK_ROWS", 64)
    save_cube(HsiCube(Tensor.from_array(np.random.default_rng(3).normal(size=(20, 10, 8)))),
              str(tmp_path / "cube.json"))
    cube = load_cube(str(tmp_path / "cube.json"))
    opened = []
    monkeypatch.setattr(data, "open", lambda path, *args, **kw: opened.append(path) or open(path, *args, **kw),
                        raising=False)
    fit_pca(cube, 3)
    assert opened == [str(tmp_path / "cube.raw")] * 2


def test_fit_pca_holds_no_centred_copy_of_the_cube():
    from test_tensor import traced_peak

    n, b = 4 * data._PCA_BLOCK_ROWS + 37, 103
    vals = np.random.default_rng(10).normal(size=(n, 1, b))
    (model, reduced), peak = traced_peak(fit_pca, HsiCube(Tensor.from_array(vals)), 4)
    # one block of centred pixels and the reduced cube, not a cube-sized copy
    assert peak < 0.5 * vals.nbytes
    assert not np.shares_memory(reduced.data, vals)


def test_fit_pca_is_scale_invariant():
    # reflectance-like cube: mean 0.2, variation along a DCT basis with std
    # falling from 0.05 over three decades, so ||C||_F is well below 1; the
    # same cube stored in units 1e-4 as large has the same principal axes
    rng = np.random.default_rng(9)
    b = 32
    axis = np.arange(b)
    basis = np.cos(np.pi * (axis[:, None] + 0.5) * axis[None, :] / b)
    basis /= np.linalg.norm(basis, axis=0)
    vals = 0.2 + (rng.normal(size=(20, 20, b)) * 0.05 * 1e-3 ** (axis / (b - 1))) @ basis.T
    model, _ = fit_pca(HsiCube(Tensor.from_array(vals)), 8)
    small, _ = fit_pca(HsiCube(Tensor.from_array(1e-4 * vals)), 8)
    assert np.abs(small.components - model.components).max() <= 1e-9
    lam = model.explained_variance
    assert np.abs(1e8 * small.explained_variance - lam).max() <= 1e-9 * lam[0]


def test_pca_rejects_bad_component_count():
    cube = HsiCube(Tensor.from_array(np.zeros((2, 2, 3))))
    with pytest.raises(ConfigError):
        fit_pca(cube, 4)
    with pytest.raises(ConfigError):
        fit_pca(cube, 0)


# ---------------------------------------------------------------------------
# standardize


def test_standardize_constant_band_becomes_zero():
    vals = np.concatenate([np.full((3, 3, 1), 7.0), np.random.default_rng(4).normal(size=(3, 3, 1))], axis=2)
    out = standardize(Tensor.from_array(vals)).as_array()
    assert np.all(out[:, :, 0] == 0.0)


def standardized64(reduced):
    """The float64 standardization (x - mean) / scale of standard_scale,
    which standardize rounds to float32."""
    mean, scale = data.standard_scale(reduced)
    return (reduced.as_array() - mean) / scale


def test_standardize_idempotent():
    rng = np.random.default_rng(5)
    t = Tensor.from_array(rng.normal(2.0, 3.0, size=(6, 7, 3)))
    once = standardized64(t)
    twice = standardized64(Tensor.from_array(once))
    assert np.abs(twice - once).max() < 1e-12
    assert np.array_equal(standardize(t).as_array(), once.astype(np.float32))


def test_standardize_matches_two_pass_oracle():
    rng = np.random.default_rng(6)
    reduced = Tensor.from_array(rng.normal(5.0, 2.5, size=(8, 4, 3)))
    out = standardized64(reduced)
    for band in range(3):
        flat = out[:, :, band].reshape(-1)
        mean = sum(flat) / flat.size
        var = sum((x - mean) ** 2 for x in flat) / flat.size
        assert abs(mean) < 1e-10
        assert abs(np.sqrt(var) - 1.0) < 1e-10
    assert np.array_equal(standardize(reduced).as_array(), out.astype(np.float32))


def test_standardize_keeps_pca_roundoff_bands_at_roundoff_scale():
    # 3 noiseless spectra: the covariance has rank 2, so PCA bands 2-15
    # hold only eigensolver roundoff and must not be blown up
    cube, _ = synth_dataset(3, 32, 32, 16, 0.0, 0)
    _, reduced = fit_pca(cube, 16)
    out = standardized64(reduced)
    assert np.abs(out[:, :, 2:]).max() < 1e-9
    assert np.abs(out[:, :, :2].std(axis=(0, 1)) - 1.0).max() < 1e-12
    assert np.array_equal(standardize(reduced).as_array(), out.astype(np.float32))


def row_block_standardization(arr):
    """standardize's arithmetic written out on row-major [N, P] pixels:
    the mean over all pixels; the squared deviations summed over each
    block of _STD_BLOCK_VALUES // P rows, and the block sums added in
    order; then (x - mean) / scale in float64, rounded to float32.
    Returns the cube and scale."""
    flat = arr.reshape(-1, arr.shape[-1])
    n, p = flat.shape
    k = max(1, data._STD_BLOCK_VALUES // p)
    mean = arr.mean(axis=(0, 1))
    sq = np.zeros(p)
    for r0 in range(0, n, k):
        sq += ((flat[r0 : r0 + k] - mean) ** 2).sum(axis=0)
    std = np.sqrt(sq / n)
    scale = np.where(std > data._DEGENERATE_STD_RATIO * std.max(), std, 1.0)
    return ((arr - mean) / scale).astype(np.float32), scale


@pytest.mark.parametrize("rank_deficient", [True, False])
def test_standardize_is_bitwise_the_row_block_arithmetic(rank_deficient):
    # 1,024 pixels in four full blocks of 256 rows, or 3,477 pixels in four
    # full blocks of 819 rows and a ragged fifth; band scales spread over
    # six decades, so that the order of the additions shows in the bits
    if rank_deficient:  # PCA bands 2-15 hold roundoff and are only centred
        _, reduced = fit_pca(synth_dataset(3, 32, 32, 16, 0.0, 0)[0], 16)
    else:
        rng = np.random.default_rng(12)
        reduced = Tensor.from_array(rng.normal(3.0, 2.0, size=(61, 57, 5)) * 10.0 ** rng.uniform(-4, 2, 5))
    want, scale = row_block_standardization(reduced.as_array())
    assert np.array_equal(data.standard_scale(reduced)[1], scale)
    out = standardize(reduced).as_array()
    assert out.dtype == np.float32 and out.flags.c_contiguous
    assert np.array_equal(out, want)
    assert rank_deficient == bool((scale == 1.0).any())
    assert not out.flags.writeable


def test_standardize_holds_only_its_output():
    from test_tensor import traced_peak

    reduced = Tensor.from_array(np.random.default_rng(15).normal(size=(64, 48, 16)))
    out, peak = traced_peak(standardize, reduced)
    # beyond the float32 output, a 32 KiB block and numpy's buffers for
    # it; a square of the whole reduced cube (393 KB) would exceed the bound
    assert peak < out.data.nbytes + 128 * 1024, peak


def test_standardize_scales_small_real_band():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(6, 6, 2))
    vals /= vals.std(axis=(0, 1))
    vals[:, :, 1] *= 1e-6  # std 1e-6 next to a std-1 band
    reduced = Tensor.from_array(vals)
    out = standardized64(reduced)
    assert np.abs(out.std(axis=(0, 1)) - 1.0).max() < 1e-12
    assert np.array_equal(standardize(reduced).as_array(), out.astype(np.float32))


# ---------------------------------------------------------------------------
# patches


def extract_patch(vals, row, col, patch_size):
    """The batch kernel on one pixel."""
    return extract_patches_array(vals, np.array([row]), np.array([col]), patch_size)[0]


def test_extract_patch_interior_copy():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(6, 6, 2))
    patch = extract_patch(vals, 3, 3, 4)
    assert np.array_equal(patch, vals[1:5, 1:5, :])
    assert np.array_equal(patch[2, 2], vals[3, 3])


def test_extract_patch_corner_padding():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(6, 6, 2))
    patch = extract_patch(vals, 0, 0, 4)
    assert np.all(patch[:2, :, :] == 0)
    assert np.all(patch[:, :2, :] == 0)
    assert np.array_equal(patch[2:, 2:, :], vals[:2, :2, :])


def test_extract_patch_exhaustive_oracle():
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(6, 6, 3))
    s = 4
    for r in range(6):
        for c in range(6):
            got = extract_patch(vals, r, c, s)
            want = np.zeros((s, s, 3))
            for i in range(s):
                for j in range(s):
                    sr, sc = r - s // 2 + i, c - s // 2 + j
                    if 0 <= sr < 6 and 0 <= sc < 6:
                        want[i, j] = vals[sr, sc]
            assert np.array_equal(got, want)
            assert np.array_equal(got[s // 2, s // 2], vals[r, c])


def test_extract_patch_validation():
    t = np.zeros((4, 4, 1))
    with pytest.raises(DimensionError):
        extract_patch(t, 4, 0, 4)
    with pytest.raises(DimensionError):
        extract_patch(t, 0, -1, 4)
    with pytest.raises(DimensionError):
        extract_patch(t, 0, 0, 3)
    with pytest.raises(DimensionError):
        extract_patch(np.zeros((4, 4)), 0, 0, 4)



def extract_patches_loop(arr, rows, cols, patch_size):
    """The per-pixel window copy that extract_patches_array replaced."""
    h, w, p = arr.shape
    half = patch_size // 2
    out = np.zeros((rows.shape[0], patch_size, patch_size, p), dtype=arr.dtype)
    for i in range(rows.shape[0]):
        r0, c0 = int(rows[i]) - half, int(cols[i]) - half
        rs, re = max(r0, 0), min(r0 + patch_size, h)
        cs, ce = max(c0, 0), min(c0 + patch_size, w)
        if rs < re and cs < ce:
            out[i, rs - r0 : re - r0, cs - c0 : ce - c0, :] = arr[rs:re, cs:ce, :]
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(h=st.integers(1, 40), w=st.integers(1, 40), p=st.integers(1, 4),
       patch_size=st.sampled_from([2, 4, 8, 16]), n=st.integers(0, 30),
       coord_dtype=st.sampled_from([np.int32, np.int64]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_extract_patches_is_bitwise_the_per_pixel_loop(h, w, p, patch_size, n, coord_dtype, dtype, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(h, w, p)).astype(dtype)
    vals[rng.random(vals.shape) < 0.2] = -0.0  # a padded zero must not copy a -0.0
    rows = rng.integers(0, h, size=n).astype(coord_dtype)
    cols = rng.integers(0, w, size=n).astype(coord_dtype)
    got = extract_patches_array(vals, rows, cols, patch_size)
    want = extract_patches_loop(vals, rows, cols, patch_size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# split


def make_labels(counts):
    """One row per class, counts[i] labeled pixels of class i+1."""
    width = max(counts)
    labels = np.zeros((len(counts), width), dtype=int)
    for i, n in enumerate(counts):
        labels[i, :n] = i + 1
    return LabelMap(labels)


def test_split_300_pixel_class():
    train, val, test = stratified_split(make_labels([300]), seed=0)
    assert len(train) == 2 and len(val) == 1 and len(test) == 297


def test_split_50_pixel_class_min_clamp():
    train, val, test = stratified_split(make_labels([50]), seed=0)
    assert len(train) + len(val) == 2 and len(test) == 48


def test_split_disjoint_union_and_determinism():
    rng = np.random.default_rng(10)
    labels = LabelMap(rng.integers(0, 4, size=(20, 20)))
    a = stratified_split(labels, seed=7)
    b = stratified_split(labels, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x.rows, y.rows) and np.array_equal(x.cols, y.cols)

    seen = set()
    total = 0
    for part in a:
        for r, c, l in zip(part.rows, part.cols, part.labels):
            assert labels.labels[r, c] == l
            assert l != 0
            assert (r, c) not in seen
            seen.add((r, c))
            total += 1
    assert total == int((labels.labels != 0).sum())

    different = stratified_split(labels, seed=8)
    assert not (
        np.array_equal(a[0].rows, different[0].rows) and np.array_equal(a[0].cols, different[0].cols)
    )


def test_split_rejects_tiny_class():
    with pytest.raises(DataError, match="class 2"):
        stratified_split(make_labels([10, 1]))


def test_patch_fft_pair_is_pure_function_of_inputs():
    from hsiduo.spectral import bandwise_fft_arrays

    cube, labels = synth_dataset(3, 16, 20, 8, 0.05, seed=3)
    model, reduced = fit_pca(cube, 8)
    std = standardize(reduced).as_array()
    train, _, _ = stratified_split(labels, seed=1)
    first = extract_patches_array(std, train.rows, train.cols, 8)
    re1, im1 = bandwise_fft_arrays(first)

    model2, reduced2 = fit_pca(cube, 8)
    std2 = standardize(reduced2).as_array()
    second = extract_patches_array(std2, train.rows, train.cols, 8)
    re2, im2 = bandwise_fft_arrays(second)
    assert np.array_equal(first, second)
    assert np.array_equal(re1, re2) and np.array_equal(im1, im2)


# ---------------------------------------------------------------------------
# synthetic dataset


def test_synth_noiseless_classes_identical_and_1nn_perfect():
    cube, labels = synth_dataset(3, 12, 14, 8, 0.0, seed=0)
    vals = cube.values.as_array()
    lab = labels.labels
    for cls in (1, 2, 3):
        pix = vals[lab == cls]
        assert np.all(pix == pix[0])

    # leave-one-out 1-NN on raw spectra
    coords = np.argwhere(lab != 0)
    spectra = vals[coords[:, 0], coords[:, 1]]
    truth = lab[coords[:, 0], coords[:, 1]]
    for i in range(len(coords)):
        d = np.linalg.norm(spectra - spectra[i], axis=1)
        d[i] = np.inf
        assert truth[np.argmin(d)] == truth[i]



def foreign_context_counts_integral(labels, window):
    """The per-class integral images that _foreign_context_counts replaced."""
    h, w = labels.shape
    half = window // 2
    counts = np.zeros((h, w), dtype=np.int64)
    rs, re = np.clip(np.arange(h) - half, 0, h), np.clip(np.arange(h) + half, 0, h)
    cs, ce = np.clip(np.arange(w) - half, 0, w), np.clip(np.arange(w) + half, 0, w)
    for cls in np.unique(labels):
        integral = np.zeros((h + 1, w + 1), dtype=np.int64)
        integral[1:, 1:] = (labels == cls).astype(np.int64).cumsum(axis=0).cumsum(axis=1)
        window_sum = (integral[re[:, None], ce[None, :]] - integral[rs[:, None], ce[None, :]]
                      - integral[re[:, None], cs[None, :]] + integral[rs[:, None], cs[None, :]])
        in_window = (re - rs)[:, None] * (ce - cs)[None, :]
        counts[labels == cls] = (in_window - window_sum)[labels == cls]
    return counts


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h=st.integers(1, 40), w=st.integers(1, 40), classes=st.integers(1, 9),
       window=st.sampled_from([2, 4, 8, 16]), guillotine=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_foreign_context_counts_match_integral_images(h, w, classes, window, guillotine, seed):
    if guillotine and max(h, w) >= classes:
        labels = np.zeros((h, w), dtype=np.int32)
        data._guillotine_blocks(classes, 0, h, 0, w, labels, 1)
    else:
        labels = np.random.default_rng(seed).integers(1, classes + 1, size=(h, w)).astype(np.int32)
    got = data._foreign_context_counts(labels, window)
    want = foreign_context_counts_integral(labels, window)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_synth_deterministic():
    a_cube, a_labels = synth_dataset(4, 20, 20, 10, 0.2, seed=42)
    b_cube, b_labels = synth_dataset(4, 20, 20, 10, 0.2, seed=42)
    assert np.array_equal(a_cube.values.data, b_cube.values.data)
    assert np.array_equal(a_labels.labels, b_labels.labels)
    c_cube, _ = synth_dataset(4, 20, 20, 10, 0.2, seed=43)
    assert not np.array_equal(a_cube.values.data, c_cube.values.data)


def test_synth_between_class_separation_exceeds_5x_within_std():
    cube, labels = synth_dataset(3, 32, 32, 16, 0.1, seed=0)
    vals = cube.values.as_array()
    lab = labels.labels
    means = [vals[lab == c].mean(axis=0) for c in (1, 2, 3)]
    within = np.sqrt(np.mean([vals[lab == c].var(axis=0).mean() for c in (1, 2, 3)]))
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) > 5.0 * within


def test_synth_unlabeled_share_and_contiguity():
    cube, labels = synth_dataset(3, 32, 32, 16, 0.1, seed=1)
    lab = labels.labels
    assert int((lab == 0).sum()) == round(0.05 * 32 * 32)
    assert labels.class_names == ("class_1", "class_2", "class_3")
    assert set(np.unique(lab)) == {0, 1, 2, 3}


def test_synth_infeasible_sizes():
    with pytest.raises(ConfigError):
        synth_dataset(1, 32, 32, 8, 0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_dataset(5, 4, 4, 8, 0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_dataset(3, 10, 10, 8, -0.5, seed=0)
