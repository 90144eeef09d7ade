"""Correctness checks written apart from the program, in plain numpy.

Each check returns a list of error strings; an empty list is a pass.
The readers here parse the documented file formats themselves, and the
reference forward pass re-derives the model from its checkpoint rather
than calling the program's layers.
"""

from __future__ import annotations

import json
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# a pixel whose two most likely classes differ by less than this in the
# reference softmax is a near-tie: float32 checkpoint weights against the
# float64 weights training predicted with may flip it
TIE_MARGIN = 1e-4

# the map palette as the README documents it
PALETTE = np.array([
    (0, 0, 0), (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230), (210, 245, 60),
    (250, 190, 212), (0, 128, 128), (220, 190, 255), (170, 110, 40), (255, 250, 200),
    (128, 0, 0),
], dtype=np.uint8)


def colour(cls: np.ndarray) -> np.ndarray:
    """Palette entry of 1-based classes (class 0 is black)."""
    cls = np.asarray(cls)
    return PALETTE[np.where(cls > 0, 1 + (cls - 1) % 15, 0)]


# ---------------------------------------------------------------------------
# file readers


def _header(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_cube(path) -> np.ndarray:
    """[H, W, B] float64 from a float32 BSQ cube."""
    h = _header(path)
    raw = np.fromfile(os.path.join(os.path.dirname(path), h["data"]), dtype="<f4")
    return raw.reshape(h["bands"], h["height"], h["width"]).transpose(1, 2, 0).astype(np.float64)


def read_labels(path) -> np.ndarray:
    h = _header(path)
    raw = np.fromfile(os.path.join(os.path.dirname(path), h["data"]), dtype="<u2")
    return raw.reshape(h["height"], h["width"]).astype(np.int64)


def read_checkpoint(path):
    """(config dict, {name: float64 array}) from a checkpoint manifest."""
    m = _header(path)
    raw = open(os.path.join(os.path.dirname(path), m["params_file"]), "rb").read()
    weights = {}
    for e in m["layers"]:
        count = int(np.prod(e["shape"]))
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=e["offset"])
        weights[e["name"]] = arr.reshape(e["shape"]).astype(np.float64)
    return m["config"], weights


def read_ppm(path):
    """(width, height, [H, W, 3] uint8) of a binary P6 image; raises on a bad header."""
    blob = open(path, "rb").read()
    magic, size, maxval, pixels = blob.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"not a P6/255 image: {magic!r} {maxval!r}")
    w, h = (int(v) for v in size.split())
    if len(pixels) != w * h * 3:
        raise ValueError(f"{len(pixels)} pixel bytes for {w}x{h}")
    return w, h, np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# PCA, standardization, report


def check_pca(pixels: np.ndarray, components, eigenvalues, reduced) -> list:
    """Properties that hold for any correct top-P eigenbasis: orthonormal
    components, a small eigen-residual, eigenvalues equal to the dense
    solver's, and reduced = centered pixels @ components. Eigenvectors are
    not compared: near-equal trailing eigenvalues leave them ill-defined."""
    errors = []
    v = np.asarray(components)
    lam = np.asarray(eigenvalues)
    p = v.shape[1]
    centered = pixels - pixels.mean(axis=0)
    cov = centered.T @ centered / (pixels.shape[0] - 1)
    dense = np.linalg.eigvalsh(cov)[::-1]
    scale = float(dense[0])
    ortho = float(np.abs(v.T @ v - np.eye(p)).max())
    if ortho > 1e-9:
        errors.append(f"pca: components not orthonormal (max |V'V - I| = {ortho:.2e})")
    resid = float(np.linalg.norm(cov @ v - v * lam, axis=0).max())
    if resid > 1e-9 * scale:
        errors.append(f"pca: eigen-residual {resid:.2e} exceeds 1e-9 x {scale:.3e}")
    gap = float(np.abs(dense[:p] - lam).max())
    if gap > 1e-9 * scale:
        errors.append(f"pca: eigenvalues differ from eigvalsh by {gap:.2e}")
    ref = centered @ v
    diff = float(np.abs(ref - np.asarray(reduced).reshape(ref.shape)).max())
    if diff > 1e-9 * np.sqrt(scale):
        errors.append(f"pca: reduced cube differs from centered @ components by {diff:.2e}")
    return errors


def standardized(reduced: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-std bands over all pixels (no band here is degenerate)."""
    flat = reduced.reshape(-1, reduced.shape[-1])
    return (reduced - flat.mean(axis=0)) / flat.std(axis=0)


def check_report(report: dict, truth: np.ndarray, pred: np.ndarray, min_oa: float) -> list:
    """The report's confusion matrix against the test-set predictions, and
    OA, AA and kappa recomputed from it."""
    cm = np.asarray(report["confusion"], dtype=np.int64)
    n = int(cm.sum())
    errors = []
    if n != report["n_test"]:
        errors.append(f"report: confusion counts sum to {n}, n_test is {report['n_test']}")
    seen = np.zeros_like(cm)
    np.add.at(seen, (truth - 1, pred - 1), 1)
    if not np.array_equal(seen, cm):
        errors.append("report: confusion matrix differs from the test-set predictions")
    po = float(np.trace(cm)) / n
    pe = float((cm.sum(axis=0) * cm.sum(axis=1)).sum()) / (n * n)
    expect = {"oa": po, "aa": float(np.mean(np.diag(cm) / cm.sum(axis=1))),
              "kappa": (po - pe) / (1.0 - pe)}
    for key, value in expect.items():
        if abs(report[key] - value) > 1e-12:
            errors.append(f"report: {key} {report[key]!r}, confusion gives {value!r}")
    if report["oa"] < min_oa:
        errors.append(f"report: OA {report['oa']:.4f} < {min_oa}")
    return errors


# ---------------------------------------------------------------------------
# reference forward pass


def _windows(x, kernel_shape):
    """[N, H', W', D', C, mh, mw, md] valid windows of [N, H, W, D, C]."""
    return sliding_window_view(x, tuple(kernel_shape[:3]), axis=(1, 2, 3))


def _conv(x, kernels, bias):
    return np.einsum("nxyzcijk,ijkco->nxyzo", _windows(x, kernels.shape), kernels,
                     optimize=True) + bias


def reference_probs(config: dict, w: dict, std: np.ndarray, rows, cols) -> np.ndarray:
    """Class probabilities of the dual-stream model at the given pixels."""
    s = config["patch_size"]
    half = s // 2
    padded = np.pad(std, ((half, half), (half, half), (0, 0)))
    # window rows r - S/2 .. r + S/2 - 1, zero outside the scene
    xr = np.stack([padded[r : r + s, c : c + s] for r, c in zip(rows, cols)])
    spec = np.fft.fft2(xr, axes=(1, 2)) / (s * s)

    a = xr[..., None]
    for i in range(len(config["real_convs"])):
        a = np.maximum(_conv(a, w[f"real_conv{i}.kernels"], w[f"real_conv{i}.bias"]), 0.0)
    z = spec[..., None]
    for i in range(len(config["complex_convs"])):
        k = w[f"cplx_conv{i}.kernels_re"] + 1j * w[f"cplx_conv{i}.kernels_im"]
        b = w[f"cplx_conv{i}.bias_re"] + 1j * w[f"cplx_conv{i}.bias_im"]
        z = _conv(z, k, b)
        z = np.maximum(z.real, 0.0) + 1j * np.maximum(z.imag, 0.0)

    n, h, wd = a.shape[:3]
    u = np.concatenate([a.reshape(n, h, wd, -1), z.real.reshape(n, h, wd, -1),
                        z.imag.reshape(n, h, wd, -1)], axis=3)
    if config["se_enabled"]:
        squeeze = u.mean(axis=(1, 2))
        gate = 1.0 / (1.0 + np.exp(-(np.maximum(squeeze @ w["se.w1"].T, 0.0) @ w["se.w2"].T)))
        u = u * gate[:, None, None, :]
    x = u.reshape(n, -1)
    for i in range(len(config["dense_widths"])):
        x = np.maximum(x @ w[f"dense{i}.weights"].T + w[f"dense{i}.bias"], 0.0)
    logits = x @ w["head.weights"].T + w["head.bias"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_predictions(probs: np.ndarray, pred: np.ndarray, what: str) -> tuple:
    """(errors, pixels compared): the program's 1-based classes against the
    reference argmax, skipping near-ties."""
    top2 = np.sort(probs, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] >= TIE_MARGIN
    ref = np.argmax(probs, axis=1) + 1
    bad = np.flatnonzero(clear & (ref != pred))
    errors = []
    if bad.size:
        errors.append(f"{what}: {bad.size} of {int(clear.sum())} sampled pixels disagree with "
                      f"the reference forward pass (first: program {pred[bad[0]]}, "
                      f"reference {ref[bad[0]]})")
    if clear.sum() < probs.shape[0] // 2:
        errors.append(f"{what}: only {int(clear.sum())} of {probs.shape[0]} sampled pixels "
                      f"are clear of the {TIE_MARGIN} tie margin")
    return errors, int(clear.sum())


def check_map(ppm_path, labels: np.ndarray, rows, cols, probs) -> tuple:
    """(errors, pixels compared) for a map of labelled pixels: P6 of the
    scene's size, black off the labels, the reference class colour on the
    sampled pixels."""
    try:
        w, h, rgb = read_ppm(ppm_path)
    except (OSError, ValueError) as exc:
        return [f"map: {exc}"], 0
    if (h, w) != labels.shape:
        return [f"map: {w}x{h} image for a {labels.shape[1]}x{labels.shape[0]} scene"], 0
    errors = []
    off = rgb[labels == 0]
    if off.any():
        errors.append(f"map: {int(off.any(axis=1).sum())} unlabelled pixels are not black")
    if not rgb[labels != 0].any(axis=1).all():
        errors.append("map: a labelled pixel is black")
    drawn = rgb[rows, cols]
    # recover each drawn pixel's class through its colour (classes 1..15
    # have distinct colours)
    classes = np.arange(1, probs.shape[1] + 1)
    match = (drawn[:, None, :] == colour(classes)[None, :, :]).all(axis=2)
    pred = np.where(match.any(axis=1), classes[match.argmax(axis=1)], 0)
    more, compared = check_predictions(probs, pred, "map")
    return errors + more, compared


# ---------------------------------------------------------------------------
# training


def check_fit(history: list, params, epochs: int) -> list:
    errors = []
    if len(history) != epochs:
        errors.append(f"fit: {len(history)} epochs, expected {epochs}")
    if history and not history[-1]["train_loss"] < history[0]["train_loss"]:
        errors.append(f"fit: training loss did not fall ({history[0]['train_loss']:.4f} -> "
                      f"{history[-1]['train_loss']:.4f})")
    bad = [name for name, arr in params if not np.all(np.isfinite(arr))]
    if bad:
        errors.append(f"fit: non-finite parameters {bad}")
    return errors
