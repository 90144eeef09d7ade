"""HSI cube and label ingestion, PCA reduction, standardization, patch
extraction with zero border padding, the stratified 1%/99% split, and the
synthetic desk-scale dataset generator.

File format: a JSON header {height, width, bands, dtype, interleave,
data} next to a raw little-endian payload. Cubes are float32 BSQ (all of
band 0, then band 1, ...); label maps are uint16 row-major.
"""

from __future__ import annotations

import contextlib
import math
import mmap
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


# pixels per block of a pass over a cube: a 103-band block of float64
# pixels is 6.7 MB, against 85 MB for the float32 Pavia-scale payload
_PCA_BLOCK_ROWS = 8192
# values per read of a loaded cube's finiteness check: 1 MiB of float32
_CHECK_CHUNK_VALUES = 1 << 18


@dataclass(frozen=True)
class HsiCube:
    """H x W x B reflectance cube in arbitrary linear units: its values
    (synth_dataset), or the absolute path of its float32 BSQ payload and
    its shape (load_cube), read again on each pass. PCA and standardize
    compute in float64, a block at a time."""

    source: object  # a Tensor [H, W, B], or the path of a float32 BSQ payload
    shape: tuple = ()

    def __post_init__(self):
        if isinstance(self.source, Tensor):
            object.__setattr__(self, "shape", self.source.shape)
        if len(self.shape) != 3:
            raise DimensionError(f"cube must be [H,W,B], got {self.shape}")
        # min and max propagate NaN and an infinity is one of them (initial=0
        # passes an empty array). A payload is read front to back into an
        # anonymous mapping: mapped itself, its pages would add to peak RSS
        finite = np.ones(self.bands, dtype=bool)
        if isinstance(self.source, Tensor):
            arr = self.source.as_array()
            finite &= np.isfinite(arr.min(axis=(0, 1), initial=0)) & np.isfinite(arr.max(axis=(0, 1), initial=0))
        else:
            n, chunk = self.height * self.width, np.frombuffer(mmap.mmap(-1, 4 * _CHECK_CHUNK_VALUES), dtype="<f4")
            with self._open() as fh:
                for v0 in range(0, n * self.bands, chunk.size):
                    part = chunk[: n * self.bands - v0]
                    if (got := fh.readinto(part)) != part.nbytes:
                        raise IngestionError(f"payload {self.source}: ended inside band {(v0 + got // 4) // n}")
                    for band, run in enumerate(np.split(part, range(n - v0 % n, part.size, n)), v0 // n):
                        finite[band] &= np.isfinite(run.min()) and np.isfinite(run.max())
        if not finite.all():
            raise DataError(f"band {np.argmin(finite)} (counting from 0) of the cube holds a non-finite value")

    @property
    def height(self):
        return self.shape[0]

    @property
    def width(self):
        return self.shape[1]

    @property
    def bands(self):
        return self.shape[2]

    @property
    def values(self) -> Tensor:
        """The whole cube; a loaded cube reads its payload, as float32."""
        if isinstance(self.source, Tensor):
            return self.source
        with self._open() as fh:
            arr = np.fromfile(fh, dtype="<f4").reshape(self.bands, -1).T.reshape(self.shape)
        arr.flags.writeable = False  # read-only, so Tensor keeps it uncopied
        return Tensor.from_array(arr)

    def block_buffer(self) -> np.ndarray:
        """[B, M] float64 for pixel_blocks, mapped anonymously and not taken
        from malloc: freed, it leaves no resident heap behind and does not
        raise glibc's mmap threshold for the cube-sized arrays after it."""
        m = max(1, min(self.height * self.width, _PCA_BLOCK_ROWS))
        buf = mmap.mmap(-1, max(8, 8 * self.bands * m))
        return np.frombuffer(buf, dtype=np.float64, count=self.bands * m).reshape(-1, m)

    def _open(self):
        """The payload, opened once it is checked to still hold the cube's bytes."""
        _check_payload_size(self.source, 4 * math.prod(self.shape))
        return open(self.source, "rb", buffering=0)  # each read one system call

    def pixel_blocks(self, buf: np.ndarray):
        """One pass over the pixels in row-major order. Yields (p0, block):
        block is a band-major [B, m] view of buf ([B, M], from block_buffer)
        holding pixels p0 .. p0 + m - 1, m = M but in the last block. Each
        band's part of a block of a payload is one positioned read."""
        b, n, m = self.bands, self.height * self.width, buf.shape[1]
        memory = isinstance(self.source, Tensor)
        stage = np.empty(m, dtype="<f4")  # a band's part of a block, as the file holds it
        with contextlib.nullcontext() if memory else self._open() as fh:
            for p0 in range(0, n, m):
                k = min(m, n - p0)
                block = buf.reshape(-1)[: b * k].reshape(b, k)
                if memory:
                    block[...] = self.source.as_array().reshape(n, b)[p0 : p0 + k].T
                else:
                    for band in range(b):
                        fh.seek((band * n + p0) * 4)
                        if fh.readinto(stage[:k]) != 4 * k:
                            raise IngestionError(f"payload {self.source}: ended inside band {band}")
                        block[band] = stage[:k]
                yield p0, block


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


def _header_field(header: dict, header_path: str, key: str, kind, default=MISSING, meta=None):
    """header[key] read as the JSON type kind; an absent key takes default."""
    return schema.read(header.get(key, default), kind, f"header {header_path}: {key}", IngestionError, meta)


def _check_payload_size(payload_path: str, expected_bytes: int):
    size = os.path.getsize(payload_path)
    if size != expected_bytes:
        raise IngestionError(f"payload {payload_path}: expected {expected_bytes} bytes, found {size}")


def _payload_path(header_path: str, header: dict, expected_bytes: int) -> str:
    """The payload file the header names, checked to hold exactly
    expected_bytes before anything is read."""
    data_name = _header_field(header, header_path, "data", str, meta={"bound": ("must name the payload file", len)})
    payload_path = os.path.join(os.path.dirname(header_path), data_name)
    if not os.path.exists(payload_path):
        raise IngestionError(f"payload not found: {payload_path}")
    _check_payload_size(payload_path, expected_bytes)
    return payload_path


def load_cube(header_path: str) -> HsiCube:
    """A float32 BSQ cube declared by its JSON header, as its payload's
    path and shape. The payload's size is checked, and its values in one
    pass: a non-finite value raises DataError naming the header and the
    lowest band that holds one."""
    header = schema.load(header_path, dict, f"header {header_path}", IngestionError)
    h, w, b = (_header_field(header, header_path, k, int, meta=at_least(1))
               for k in ("height", "width", "bands"))
    dtype = _header_field(header, header_path, "dtype", str, "f32")
    if dtype != "f32":
        raise IngestionError(f"unknown cube dtype {dtype!r} in {header_path}")
    if _header_field(header, header_path, "interleave", str, "bsq") != "bsq":
        raise IngestionError(f"header {header_path}: interleave: only 'bsq' is supported")
    payload_path = _payload_path(header_path, header, h * w * b * 4)
    try:
        return HsiCube(os.path.abspath(payload_path), (h, w, b))
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
    header = schema.load(header_path, dict, f"header {header_path}", IngestionError)
    h, w = (_header_field(header, header_path, k, int, meta=at_least(1)) for k in ("height", "width"))
    dtype = _header_field(header, header_path, "dtype", str, "u16")
    if dtype != "u16":
        raise IngestionError(f"unknown label dtype {dtype!r} in {header_path}")
    classes = _header_field(header, header_path, "classes", list[str], [])
    labels = np.fromfile(_payload_path(header_path, header, h * w * 2), dtype="<u2")
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


_JACOBI_TOL, _JACOBI_SWEEPS = 1e-12, 64


def jacobi_eigh(matrix: np.ndarray):
    """Eigendecomposition of a symmetric matrix by Jacobi rotations in
    parallel, odd-even order (Luk & Park 1989).

    Round r rotates the disjoint pairs of adjacent columns from column
    r % 2 on. Viewing a column pair as one complex number turns the
    rotation of all columns of A (and of V) into one complex multiply; the
    rows of A follow by transposing. Each rotation is times i, which swaps
    the pair (one column negated), so the indices travel as in odd-even
    transposition and the m rounds of a sweep meet every pair once. An odd
    n is padded with a zero dummy index, which pairs with a zero entry and
    so is only ever swapped; its column of V, +-e_n, is dropped at the end.

    Sweeps stop once the off-diagonal Frobenius norm, summed directly over
    the strict upper triangle, is at most _JACOBI_TOL x ||A||_F, or after
    _JACOBI_SWEEPS sweeps. The tolerance is relative, so scaling the matrix
    does not change the iteration; a zero matrix returns at once.

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
    upper = np.triu_indices(m, 1)
    bound = _JACOBI_TOL * float(np.sqrt((a * a).sum()))
    for _ in range(_JACOBI_SWEEPS):
        if math.sqrt(2.0 * float(np.square(a[upper]).sum())) <= bound:
            break
        for r in range(m):
            cols = slice(r % 2, m - r % 2)
            diag = np.diagonal(a)[cols]
            apq = np.diagonal(a, 1)[cols][0::2]
            d = diag[1::2] - diag[0::2]
            # t = tan(angle) that zeroes a[p, q], the smaller root, written
            # without d / apq so it neither overflows nor divides by zero
            denom = np.abs(d) + np.hypot(d, 2.0 * apq)
            t = np.where(d < 0, -2.0, 2.0) * apq / np.where(denom > 0, denom, 1.0)
            rot = (1j - t) / np.sqrt(t * t + 1.0)  # i (c + i s)
            a[:, cols].view(np.complex128)[...] *= rot  # A J
            a = a.T.copy()  # (A J)^T = J^T A
            a[:, cols].view(np.complex128)[...] *= rot  # J^T A J
            v[:, cols].view(np.complex128)[...] *= rot
    keep = ~np.any(v[n:], axis=0)  # every column but the dummy's
    vals = np.diag(a)[keep]
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:n, keep][:, order]


def _sign_normalize(components: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    top = components[np.argmax(np.abs(components), axis=0), np.arange(components.shape[1])]
    return np.where(top < 0, -components, components)


def fit_pca(cube: HsiCube, n_components: int):
    """Top-P eigenpairs of the pixel covariance; returns (PcaModel, reduced).

    The covariance is formed explicitly over all pixels (labeled and
    unlabeled) and decomposed with the Jacobi solver, so every eigenpair
    is directly checkable against the dense eigenproblem. One pass of
    pixel blocks through one held buffer gives the mean and the
    covariance, a second gives `reduced`, so no copy of the whole cube is
    ever held. Each block c is centred on its own mean and its scatter
    c c^T merged into the running one by the pairwise update of Chan,
    Golub & LeVeque (1983), as stable as centring on the final mean.
    """
    b = cube.bands
    if not (1 <= n_components <= b):
        raise ConfigError(f"pca_components: need 1 <= P <= {b}, got {n_components}")
    n = cube.height * cube.width
    if n < 2:
        raise DataError("fit_pca: need at least 2 pixels")
    buf = cube.block_buffer()
    total, cov = np.zeros(b), np.zeros((b, b))
    for p0, c in cube.pixel_blocks(buf):
        k = c.shape[1]
        s = c.sum(axis=1)  # numpy's pairwise sum along each band's run
        c -= (s / k)[:, None]
        cov += c @ c.T
        if p0:  # the scatter of the block's mean about the p0 pixels' mean
            d = s / k - total / p0
            cov += np.outer(d, d) * (p0 * k / (p0 + k))
        total += s
    mean = total / n
    cov /= n - 1
    if not np.all(np.isfinite(cov)):
        raise NumericError("fit_pca: covariance is not finite")
    vals, vecs = jacobi_eigh(cov)
    vals = np.maximum(vals, 0.0)
    components = _sign_normalize(vecs[:, :n_components])
    reduced = np.empty((n, n_components))
    for p0, c in cube.pixel_blocks(buf):
        c -= mean[:, None]
        np.matmul(c.T, components, out=reduced[p0 : p0 + c.shape[1]])
    reduced.flags.writeable = False  # read-only, so Tensor keeps it uncopied
    model = PcaModel(mean, components, vals[:n_components])
    return model, Tensor.from_array(reduced.reshape(cube.height, cube.width, n_components))


# well above Jacobi roundoff (about 1e-14 of the widest band on a
# rank-deficient noiseless cube), far below any real band
_DEGENERATE_STD_RATIO = 1e-9


# values per row block of standardize's passes: 32 KiB of float64 scratch,
# and as much again in the buffer a broadcast numpy op allocates
_STD_BLOCK_VALUES = 4096


def _centred_blocks(arr: np.ndarray, mean: np.ndarray):
    """(rows, block) over arr's pixels in row-major order: block is the
    [N, P] pixels' rows minus mean, in one held float64 scratch."""
    flat = arr.reshape(-1, arr.shape[-1])
    scratch = np.empty((max(1, _STD_BLOCK_VALUES // flat.shape[1]), flat.shape[1]))
    for r0 in range(0, flat.shape[0], scratch.shape[0]):
        rows = slice(r0, min(r0 + scratch.shape[0], flat.shape[0]))
        yield rows, np.subtract(flat[rows], mean, out=scratch[: rows.stop - r0])


def standard_scale(reduced: Tensor):
    """(mean, scale), float64 [P]: each band's mean over all pixels and the
    divisor that gives it unit std, or 1 for a degenerate band, one whose
    std is at most 1e-9 of the widest band's. The rule is relative, not
    `std > 0`, because `jacobi_eigh` stops once the off-diagonal norm is at
    most 1e-12 of the covariance's Frobenius norm, not at exact zero: PCA
    of a rank-deficient cube leaves its null bands holding roundoff, and
    scaling that roundoff to unit variance would feed noise to the model."""
    arr = reduced.as_array()
    mean, sq = arr.mean(axis=(0, 1), dtype=np.float64), 0.0
    for _, c in _centred_blocks(arr, mean):
        sq += np.square(c, out=c).sum(axis=0)
    std = np.sqrt(sq / (arr.size // arr.shape[-1]))
    return mean, np.where(std > _DEGENERATE_STD_RATIO * std.max(initial=0.0), std, 1.0)


def standardize(reduced: Tensor) -> Tensor:
    """The reduced cube at zero mean and unit std per band (degenerate
    bands only centred) as a float32 cube, the model's precision: each
    value is (x - mean) / scale of standard_scale in float64, rounded once."""
    if len(reduced.shape) != 3:
        raise DimensionError(f"standardize expects [H,W,P], got {reduced.shape}")
    mean, scale = standard_scale(reduced)
    out = np.empty(reduced.shape, dtype=np.float32)
    for rows, c in _centred_blocks(reduced.as_array(), mean):
        np.divide(c, scale, out=out.reshape(-1, out.shape[-1])[rows])
    out.flags.writeable = False  # Tensor keeps a read-only array without a copy
    return Tensor.from_array(out)


# ---------------------------------------------------------------------------
# patch extraction


def extract_patches_array(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray, patch_size: int):
    """Batched zero-padded window copy: [N, S, S, P], each S x S window
    with its target pixel at (S/2, S/2). One gather at coordinates clipped
    into the scene, then the window positions outside it are zeroed, so
    the scene is never padded or copied."""
    if arr.ndim != 3:
        raise DimensionError(f"patch extraction expects [H,W,P], got {arr.shape}")
    h, w = arr.shape[:2]
    if rows.size and not (0 <= rows.min() and rows.max() < h and 0 <= cols.min() and cols.max() < w):
        raise DimensionError(f"patch centres out of bounds for {h}x{w}")
    if patch_size < 2 or (patch_size & (patch_size - 1)) != 0:
        raise DimensionError(f"patch_size must be a power of two >= 2, got {patch_size}")
    offsets = np.arange(patch_size) - patch_size // 2
    r = np.asarray(rows, dtype=np.intp)[:, None] + offsets  # [N, S] window rows
    c = np.asarray(cols, dtype=np.intp)[:, None] + offsets
    out = arr[np.clip(r, 0, h - 1)[:, :, None], np.clip(c, 0, w - 1)[:, None, :]]
    out[((r < 0) | (r >= h))[:, :, None] | ((c < 0) | (c >= w))[:, None, :]] = 0
    return out


# ---------------------------------------------------------------------------
# stratified split


_TRAIN_FRAC, _VAL_FRAC_OF_TRAIN = 0.01, 0.10  # the protocol's 1% / 10% split


def stratified_split(label_map: LabelMap, seed: int = 0):
    """Per-class sampling: max(2, round(_TRAIN_FRAC * n_c)) pixels form the
    training pool, of which max(1, round(_VAL_FRAC_OF_TRAIN * pool)) become
    the validation slice; everything else is test."""
    labels = label_map.labels
    classes = sorted(int(c) for c in np.unique(labels) if c != 0)
    if not classes:
        raise DataError("stratified_split: no labeled pixels")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    roles = ([], [], [])  # train, val, test: [row, col, class] per pixel
    for cls in classes:
        coords = np.argwhere(labels == cls)  # row-major order
        n_c = coords.shape[0]
        if n_c < 3:  # at least one pixel each for train, val and test
            raise DataError(f"class {cls} has {n_c} labeled pixel(s); need at least 3")
        pool = min(max(2, _round_half_up(_TRAIN_FRAC * n_c)), n_c)
        n_val = min(max(1, _round_half_up(_VAL_FRAC_OF_TRAIN * pool)), pool - 1)
        keyed = np.column_stack([coords, np.full(n_c, cls)])[rng.permutation(n_c)]
        for role, part in zip(roles, np.split(keyed, [pool - n_val, pool])):
            role.append(part)
    # each set's rows, cols and labels: C-contiguous int32
    return tuple(SampleSet(*np.concatenate(role).T.astype(np.int32, order="C")) for role in roles)


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
    """Per pixel: how many positions of its patch window [p - half,
    p + half - 1] belong to another class (zero padding does not count)."""
    half = window // 2
    padded = np.pad(labels, (half, half - 1), constant_values=-1)
    win = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    return (win >= 0).sum(axis=(2, 3)) - (win == labels[:, :, None, None]).sum(axis=(2, 3))


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
