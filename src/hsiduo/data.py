"""HSI cube and label ingestion, PCA reduction, standardization, patch
extraction with zero border padding, the stratified 1%/99% split, and the
synthetic desk-scale dataset generator.

File format: a JSON header {height, width, bands, dtype, interleave,
data} next to a raw little-endian payload. Cubes are float32 BSQ (all of
band 0, then band 1, ...); label maps are uint16 row-major.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass

import numpy as np

from . import schema
from .errors import ConfigError, DataError, DimensionError, IngestionError, NumericError
from .schema import at_least
from .tensor import Tensor


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class HsiCube:
    """H x W x B reflectance cube in arbitrary linear units.

    A cube read by load_cube is held at its file precision, float32; a
    cube built in memory (synth_dataset) is float64. Every computation on
    a cube (PCA and what follows) runs in float64 either way.
    """

    values: Tensor

    def __post_init__(self):
        if len(self.values.shape) != 3:
            raise DimensionError(f"cube must be [H,W,B], got {self.values.shape}")
        # min and max propagate NaN and an infinity is one of them, so a
        # finite cube is checked in two passes with no cube-sized temporary
        arr = self.values.as_array()
        if not (np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0))):
            band = int(np.argmax(~np.isfinite(arr).all(axis=(0, 1))))
            raise DataError(f"band {band} (counting from 0) of the cube holds a non-finite value")

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


@dataclass(frozen=True)
class LabelMap:
    """H x W integer class map; 0 marks unlabeled/background pixels."""

    labels: np.ndarray
    class_names: tuple = ()

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise DimensionError(f"label map must be [H,W], got {labels.shape}")
        if labels.min(initial=0) < 0:
            raise DataError("labels must be >= 0")
        labels = labels.astype(np.int32)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max(initial=0))


@dataclass(frozen=True)
class PcaModel:
    """Mean spectrum, orthonormal components [B,P], and their variances."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray


@dataclass(frozen=True)
class SampleSet:
    """Pixel coordinates with labels for one part of a split."""

    rows: np.ndarray
    cols: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.rows.shape[0]


# ---------------------------------------------------------------------------
# file io


_CUBE_DTYPES = {"f32": "<f4"}
_LABEL_DTYPES = {"u16": "<u2"}


def _read_header(header_path: str) -> dict:
    if not os.path.exists(header_path):
        raise IngestionError(f"header not found: {header_path}")
    try:
        with open(header_path, encoding="utf-8") as fh:
            return schema.read(json.load(fh), dict, f"header {header_path}", IngestionError)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"malformed header {header_path}: {exc}") from exc


def _header_field(header: dict, header_path: str, key: str, kind, default=MISSING, meta=None):
    """header[key] read as the JSON type kind; an absent key takes default."""
    return schema.read(header.get(key, default), kind, f"header {header_path}: {key}", IngestionError, meta)


def _payload_path(header_path: str, header: dict, expected_bytes: int) -> str:
    """The payload file the header names, checked to hold exactly
    expected_bytes before anything is read."""
    data_name = _header_field(header, header_path, "data", str, meta={"bound": ("must name the payload file", len)})
    payload_path = os.path.join(os.path.dirname(header_path), data_name)
    if not os.path.exists(payload_path):
        raise IngestionError(f"payload not found: {payload_path}")
    size = os.path.getsize(payload_path)
    if size != expected_bytes:
        raise IngestionError(f"payload {payload_path}: expected {expected_bytes} bytes, found {size}")
    return payload_path


# a read tile of load_cube holds every band of a run of rows, as many
# bytes as about 16 whole bands: 13 MB at Pavia scale beside the 85 MB cube
_LOAD_TILE_BANDS = 16


def load_cube(header_path: str) -> HsiCube:
    """Read a float32 BSQ cube declared by its JSON header.

    The cube is held at its file precision: one read-only, C-ordered
    float32 [H, W, B] array. The payload is read one tile of rows at a
    time, all bands of it, into one reused buffer, and each tile is
    written to its rows of the cube in one pass, so no full-size copy of
    the file is ever held. A non-finite value raises DataError naming the
    header and the first band that holds one.
    """
    header = _read_header(header_path)
    h, w, b = (_header_field(header, header_path, k, int, meta=at_least(1))
               for k in ("height", "width", "bands"))
    dtype = _header_field(header, header_path, "dtype", str, "f32")
    if dtype not in _CUBE_DTYPES:
        raise IngestionError(f"unknown cube dtype {dtype!r} in {header_path}")
    if _header_field(header, header_path, "interleave", str, "bsq") != "bsq":
        raise IngestionError(f"header {header_path}: interleave: only 'bsq' is supported")
    payload_path = _payload_path(header_path, header, h * w * b * 4)
    values = np.empty((h, w, b), dtype=np.float32)
    rows = max(1, h * _LOAD_TILE_BANDS // b)
    tile = np.empty((b, min(h, rows), w), dtype=_CUBE_DTYPES[dtype])
    with open(payload_path, "rb") as fh:
        for r0 in range(0, h, rows):
            part = tile[:, : min(h - r0, rows)]
            for k in range(b):  # band k of these rows is one run of the file
                fh.seek((k * h + r0) * w * 4)
                if fh.readinto(part[k]) != part[k].nbytes:
                    raise IngestionError(f"payload {payload_path}: ended inside band {k}")
            values[r0 : r0 + part.shape[1]] = part.transpose(1, 2, 0)
    values.flags.writeable = False  # read-only, so Tensor keeps it uncopied
    try:
        return HsiCube(Tensor.from_array(values))
    except DataError as exc:
        raise DataError(f"{header_path}: {exc}") from None


def _save(header_path: str, header: dict, payload: np.ndarray):
    """Write payload's bytes to the .raw file named after header_path, then
    the header, which names that file under `data`."""
    header["data"] = os.path.splitext(os.path.basename(header_path))[0] + ".raw"
    with open(os.path.join(os.path.dirname(header_path), header["data"]), "wb") as fh:
        fh.write(payload.tobytes())
    with open(header_path, "w", encoding="utf-8") as fh:
        schema.dump(header, fh)


def save_cube(cube: HsiCube, header_path: str):
    """Write header + BSQ float32 payload next to it."""
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32",
        "interleave": "bsq",
    }
    _save(header_path, header, np.ascontiguousarray(cube.values.as_array().transpose(2, 0, 1), dtype="<f4"))


def load_labels(header_path: str) -> LabelMap:
    header = _read_header(header_path)
    h, w = (_header_field(header, header_path, k, int, meta=at_least(1)) for k in ("height", "width"))
    dtype = _header_field(header, header_path, "dtype", str, "u16")
    if dtype not in _LABEL_DTYPES:
        raise IngestionError(f"unknown label dtype {dtype!r} in {header_path}")
    classes = _header_field(header, header_path, "classes", list[str], [])
    labels = np.fromfile(_payload_path(header_path, header, h * w * 2), dtype=_LABEL_DTYPES[dtype])
    label_map = LabelMap(labels.reshape(h, w), tuple(classes))
    # a list may name classes the map does not hold, but not fewer than it does
    if classes and len(classes) < label_map.n_classes:
        raise IngestionError(
            f"header {header_path}: classes: names {len(classes)} classes, the labels reach {label_map.n_classes}"
        )
    return label_map


def save_labels(label_map: LabelMap, header_path: str):
    header = {
        "height": label_map.height,
        "width": label_map.width,
        "dtype": "u16",
    }
    if label_map.class_names:
        header["classes"] = list(label_map.class_names)
    _save(header_path, header, np.ascontiguousarray(label_map.labels, dtype="<u2"))


# ---------------------------------------------------------------------------
# PCA via parallel-ordered Jacobi on the explicit covariance


def _round_robin_perm(m: int) -> np.ndarray:
    """The Brent-Luk round-robin schedule over an even number m of indices,
    as one relabelling. Each round rotates the disjoint pairs (0, 1),
    (2, 3), ...; then a = a[perm][:, perm] brings in the next round's
    pairs. The m-1 rounds of a sweep meet every pair once and end back in
    the starting order.

    Pairs are slots (k, m-1-k) of a ring in which slot 0 stays and the
    other slots turn by one each round; slot k sits at position 2k, slot
    m-1-k at 2k+1."""
    half = m // 2
    pos = np.concatenate([2 * np.arange(half), 2 * np.arange(half - 1, -1, -1) + 1])
    src = np.concatenate([[0, m - 1], np.arange(1, m - 1)])[:m]  # src[j]: the slot that moves to j
    perm = np.empty(m, dtype=np.intp)
    perm[pos] = pos[src]
    return perm


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 64):
    """Eigendecomposition of a symmetric matrix by Jacobi rotations in
    parallel (Brent-Luk round-robin) order.

    Each round rotates n/2 disjoint index pairs at once: the pairs sit in
    adjacent columns, so viewing a column pair as one complex number turns
    the rotation of all columns of A (and of V) into one complex multiply;
    the rows of A follow by transposing. An odd n is padded with a zero
    dummy index, which pairs with a zero entry and so is never rotated,
    and is dropped at the end.

    Sweeps stop once the off-diagonal Frobenius norm, summed directly over
    the strict upper triangle, is at most tol x ||A||_F. The tolerance is
    relative, so scaling the matrix does not change the iteration; a zero
    matrix returns at once.

    Returns (eigenvalues desc, eigenvectors as columns in matching order).
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"jacobi_eigh expects a square matrix, got {a.shape}")
    n = a.shape[0]
    m = n + n % 2
    if m != n:
        a = np.pad(a, ((0, 1), (0, 1)))
    v = np.eye(m)
    perm = _round_robin_perm(m)
    upper = np.triu_indices(m, 1)
    bound = tol * float(np.sqrt((a * a).sum()))
    for _ in range(max_sweeps):
        if math.sqrt(2.0 * float(np.square(a[upper]).sum())) <= bound:
            break
        for _ in range(m - 1):
            diag = np.diagonal(a)
            apq = np.diagonal(a, 1)[0::2]
            d = diag[1::2] - diag[0::2]
            # t = tan(angle) that zeroes a[p, q], the smaller root, written
            # without d / apq so it neither overflows nor divides by zero
            denom = np.abs(d) + np.hypot(d, 2.0 * apq)
            t = np.where(d < 0, -2.0, 2.0) * apq / np.where(denom > 0, denom, 1.0)
            rot = (1.0 + 1j * t) / np.sqrt(t * t + 1.0)  # c + i s
            a.view(np.complex128)[...] *= rot  # A J
            a = a.T.take(perm, axis=0)  # relabelled rows of (A J)^T = J^T A
            a.view(np.complex128)[...] *= rot  # J^T A J
            a = a.take(perm, axis=1)
            v.view(np.complex128)[...] *= rot
            v = v.take(perm, axis=1)
    vals = np.diag(a)[:n].copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:n, :n][:, order]


def _sign_normalize(components: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = components.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


# pixels per row block of fit_pca: a 103-band block of centred pixels is
# 6.7 MB, against 172 MB for the centred copy of a Pavia-scale cube
_PCA_BLOCK_ROWS = 8192


def fit_pca(cube: HsiCube, n_components: int):
    """Top-P eigenpairs of the pixel covariance; returns (PcaModel, reduced).

    The covariance is formed explicitly over all pixels (labeled and
    unlabeled), as a sum of c^T c over row blocks of centred pixels c, and
    decomposed with the Jacobi solver, so every eigenpair is directly
    checkable against the dense eigenproblem. `reduced` is projected block
    by block into one preallocated array, so no centred copy of the whole
    cube is ever held.
    """
    b = cube.bands
    if not (1 <= n_components <= b):
        raise ConfigError(f"pca_components: need 1 <= P <= {b}, got {n_components}")
    pixels = cube.values.as_array().reshape(-1, b)
    n = pixels.shape[0]
    if n < 2:
        raise DataError("fit_pca: need at least 2 pixels")
    # float64 arithmetic on a float32 cube too: the float64 mean of float32
    # values, and float64 centred blocks, are bit for bit those of the same
    # values held as float64
    mean = pixels.mean(axis=0, dtype=np.float64)
    blocks = [slice(i, i + _PCA_BLOCK_ROWS) for i in range(0, n, _PCA_BLOCK_ROWS)]
    buf = np.empty((min(n, _PCA_BLOCK_ROWS), b))  # one centred block, reused

    def centered(rows):
        block = pixels[rows]
        return np.subtract(block, mean, out=buf[: block.shape[0]])

    cov = np.zeros((b, b))
    for rows in blocks:
        c = centered(rows)
        cov += c.T @ c
    cov /= n - 1
    if not np.all(np.isfinite(cov)):
        raise NumericError("fit_pca: covariance is not finite")
    vals, vecs = jacobi_eigh(cov)
    vals = np.maximum(vals, 0.0)
    components = _sign_normalize(vecs[:, :n_components])
    reduced = np.empty((n, n_components))
    for rows in blocks:
        np.matmul(centered(rows), components, out=reduced[rows])
    reduced.flags.writeable = False  # read-only, so Tensor keeps it uncopied
    model = PcaModel(mean, components, vals[:n_components])
    return model, Tensor.from_array(reduced.reshape(cube.height, cube.width, n_components))


# well above Jacobi roundoff (about 1e-14 of the widest band on a
# rank-deficient noiseless cube), far below any real band
_DEGENERATE_STD_RATIO = 1e-9


def standardize(reduced: Tensor) -> Tensor:
    """Zero-mean unit-std per band over all pixels; degenerate bands are
    only centered.

    A band is degenerate when its std is at most 1e-9 of the widest
    band's std. The rule is relative, not `std > 0`, because `jacobi_eigh`
    stops once the off-diagonal norm is at most 1e-12 of the covariance's
    Frobenius norm, not at exact zero: PCA of a rank-deficient cube leaves
    its null bands holding roundoff rather than exact zeros, and scaling
    that roundoff to unit variance would feed pure noise to the model.
    """
    if len(reduced.shape) != 3:
        raise DimensionError(f"standardize expects [H,W,P], got {reduced.shape}")
    arr = reduced.as_array()
    out = arr - arr.mean(axis=(0, 1))
    # np.std's own arithmetic on the centred values it would compute again
    std = np.sqrt(np.square(out).sum(axis=(0, 1)) / (arr.shape[0] * arr.shape[1]))
    out /= np.where(std > _DEGENERATE_STD_RATIO * std.max(initial=0.0), std, 1.0)
    out.flags.writeable = False  # Tensor keeps a read-only array without a copy
    return Tensor.from_array(out)


# ---------------------------------------------------------------------------
# patch extraction


def extract_patches_array(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray, patch_size: int):
    """Batched zero-padded window copy: [N, S, S, P], each S x S window
    with its target pixel at (S/2, S/2)."""
    if arr.ndim != 3:
        raise DimensionError(f"patch extraction expects [H,W,P], got {arr.shape}")
    h, w, p = arr.shape
    if rows.size and not (0 <= rows.min() and rows.max() < h and 0 <= cols.min() and cols.max() < w):
        raise DimensionError(f"patch centres out of bounds for {h}x{w}")
    if patch_size < 2 or (patch_size & (patch_size - 1)) != 0:
        raise DimensionError(f"patch_size must be an even power of two, got {patch_size}")
    half = patch_size // 2
    n = rows.shape[0]
    out = np.zeros((n, patch_size, patch_size, p), dtype=arr.dtype)
    for i in range(n):
        r0 = int(rows[i]) - half
        c0 = int(cols[i]) - half
        rs, re = max(r0, 0), min(r0 + patch_size, h)
        cs, ce = max(c0, 0), min(c0 + patch_size, w)
        if rs < re and cs < ce:
            out[i, rs - r0 : re - r0, cs - c0 : ce - c0, :] = arr[rs:re, cs:ce, :]
    return out


# ---------------------------------------------------------------------------
# stratified split


def stratified_split(
    label_map: LabelMap,
    train_frac: float = 0.01,
    val_frac_of_train: float = 0.10,
    seed: int = 0,
):
    """Per-class sampling: max(2, round(train_frac * n_c)) pixels form the
    training pool, of which max(1, round(val_frac * pool)) become the
    validation slice; everything else is test."""
    labels = label_map.labels
    classes = sorted(int(c) for c in np.unique(labels) if c != 0)
    if not classes:
        raise DataError("stratified_split: no labeled pixels")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    parts = {"train": [], "val": [], "test": []}
    for cls in classes:
        coords = np.argwhere(labels == cls)  # row-major order
        n_c = coords.shape[0]
        if n_c < 2:
            raise DataError(f"class {cls} has {n_c} labeled pixel(s); need at least 2")
        pool = min(max(2, _round_half_up(train_frac * n_c)), n_c)
        n_val = min(max(1, _round_half_up(val_frac_of_train * pool)), pool - 1) if pool > 1 else 0
        perm = rng.permutation(n_c)
        selected = coords[perm[:pool]]
        rest = coords[perm[pool:]]
        parts["train"].append((selected[: pool - n_val], cls))
        parts["val"].append((selected[pool - n_val :], cls))
        parts["test"].append((rest, cls))

    def build(role):
        rows, cols, labs = [], [], []
        for coords, cls in parts[role]:
            rows.append(coords[:, 0])
            cols.append(coords[:, 1])
            labs.append(np.full(coords.shape[0], cls, dtype=np.int32))
        return SampleSet(
            np.concatenate(rows).astype(np.int32),
            np.concatenate(cols).astype(np.int32),
            np.concatenate(labs),
        )

    return build("train"), build("val"), build("test")


# ---------------------------------------------------------------------------
# synthetic dataset


def _gaussian_mixture_signature(rng: np.random.Generator, bands: int) -> np.ndarray:
    axis = np.arange(bands, dtype=np.float64)
    sig = np.zeros(bands)
    for _ in range(3):
        amp = rng.uniform(0.5, 1.5)
        center = rng.uniform(0, bands - 1)
        width = rng.uniform(bands / 10.0, bands / 4.0)
        sig += amp * np.exp(-((axis - center) ** 2) / (2.0 * width * width))
    return sig


_MIN_SIGNATURE_DISTANCE = 1.0
_COHERENCE_WINDOW = 8  # matches the default patch size


def _guillotine_blocks(n_classes: int, r0: int, r1: int, c0: int, c1: int, out: np.ndarray, first: int):
    """Recursively split the rectangle along its longer side into
    contiguous class blocks with near-balanced areas."""
    if n_classes == 1:
        out[r0:r1, c0:c1] = first
        return
    left = n_classes // 2
    frac = left / n_classes
    if (r1 - r0) >= (c1 - c0):
        cut = r0 + max(1, min(r1 - r0 - 1, _round_half_up(frac * (r1 - r0))))
        _guillotine_blocks(left, r0, cut, c0, c1, out, first)
        _guillotine_blocks(n_classes - left, cut, r1, c0, c1, out, first + left)
    else:
        cut = c0 + max(1, min(c1 - c0 - 1, _round_half_up(frac * (c1 - c0))))
        _guillotine_blocks(left, r0, r1, c0, cut, out, first)
        _guillotine_blocks(n_classes - left, r0, r1, cut, c1, out, first + left)


def _foreign_context_counts(labels: np.ndarray, window: int) -> np.ndarray:
    """Per pixel: how many positions of its patch window belong to another
    class (zero padding does not count)."""
    h, w = labels.shape
    half = window // 2
    counts = np.zeros((h, w), dtype=np.int64)
    # integral image per class over the asymmetric window [p-half, p+half-1]
    for cls in np.unique(labels):
        mask = (labels == cls).astype(np.int64)
        integral = np.zeros((h + 1, w + 1), dtype=np.int64)
        integral[1:, 1:] = mask.cumsum(axis=0).cumsum(axis=1)
        rs = np.clip(np.arange(h) - half, 0, h)
        re = np.clip(np.arange(h) + half, 0, h)
        cs = np.clip(np.arange(w) - half, 0, w)
        ce = np.clip(np.arange(w) + half, 0, w)
        window_sum = (
            integral[re[:, None], ce[None, :]]
            - integral[rs[:, None], ce[None, :]]
            - integral[re[:, None], cs[None, :]]
            + integral[rs[:, None], cs[None, :]]
        )
        in_window = (re - rs)[:, None] * (ce - cs)[None, :]
        counts[labels == cls] = (in_window - window_sum)[labels == cls]
    return counts


def synth_dataset(n_classes: int, height: int, width: int, bands: int, noise_std: float, seed: int):
    """Blocky synthetic scene: one smooth spectral signature per class,
    i.i.d. per-band Gaussian noise, contiguous rectangular class blocks,
    and 5% unlabeled pixels spent on the patch centers with the most
    foreign in-image window positions (zero padding does not count).

    The budget makes most labeled patches class coherent, but does not
    promise it: at 32x32 with 3 classes, 58 pixels have no majority class
    in their window against a 51-pixel budget, so 10 border pixels whose
    in-image half window is split evenly between two classes stay
    labeled."""
    if n_classes < 2:
        raise ConfigError(f"synth_dataset: need >= 2 classes, got {n_classes}")
    if height * width < 10 * n_classes:
        raise ConfigError(
            f"synth_dataset: {height}x{width} too small for {n_classes} classes"
        )
    if noise_std < 0:
        raise ConfigError(f"synth_dataset: noise_std must be >= 0, got {noise_std}")
    if max(height, width) < n_classes:
        raise ConfigError(
            f"synth_dataset: cannot lay {n_classes} contiguous blocks in {height}x{width}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D]))

    # distinct signatures: redraw the whole set until pairwise separation holds
    for _ in range(2000):
        sigs = np.stack([_gaussian_mixture_signature(rng, bands) for _ in range(n_classes)])
        dists = [
            np.linalg.norm(sigs[i] - sigs[j])
            for i in range(n_classes)
            for j in range(i + 1, n_classes)
        ]
        if min(dists) >= _MIN_SIGNATURE_DISTANCE:
            break
    else:
        raise ConfigError(
            f"synth_dataset: could not separate {n_classes} signatures over {bands} bands"
        )

    blocks = np.zeros((height, width), dtype=np.int32)
    _guillotine_blocks(n_classes, 0, height, 0, width, blocks, 1)
    if len(np.unique(blocks)) != n_classes:
        raise ConfigError(
            f"synth_dataset: {height}x{width} cannot host {n_classes} contiguous blocks"
        )

    values = sigs[blocks - 1].astype(np.float64)
    if noise_std > 0:
        values = values + rng.normal(0.0, noise_std, size=values.shape)
    # quantize to f32 so the file round trip is lossless
    values = values.astype(np.float32).astype(np.float64)

    # spend the 5% unlabeled budget on the patch centers with the most
    # foreign in-image window positions; border pixels whose window is
    # half padding rank low and may stay labeled without a majority class
    n_unlab = _round_half_up(0.05 * height * width)
    mixing = _foreign_context_counts(blocks, _COHERENCE_WINDOW)
    order = np.lexsort((rng.permutation(height * width), -mixing.reshape(-1)))
    labels = blocks.copy()
    labels.reshape(-1)[order[:n_unlab]] = 0

    names = tuple(f"class_{c}" for c in range(1, n_classes + 1))
    return HsiCube(Tensor.from_array(values)), LabelMap(labels, names)
