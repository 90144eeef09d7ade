"""Benchmark inputs: the two synthetic scenes, the Pavia-shaped cube with
its checkpoint, and the per-seed label sample that `map_pu` maps.

Everything lands under `.perfbench/` in the checkout. The fixed inputs
are made once per checkout (a stamp file marks a finished set); the
label sample is written per run from `--seed`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

WORK = ".perfbench"
INPUTS = os.path.join(WORK, "inputs")
STAMP = os.path.join(INPUTS, "done.json")

# criterion 8's noisy scene
DESK = {"classes": 3, "height": 32, "width": 32, "bands": 16, "noise": 0.1, "seed": 0}
# at 124 x 124 the 1% split gives 128 training pixels (8 full batches
# of 16) and 18 validation pixels
FIT = {"classes": 9, "height": 124, "width": 124, "bands": 16, "noise": 0.1, "seed": 0}

# Pavia University's shape and class count
PU_HEIGHT, PU_WIDTH, PU_BANDS, PU_CLASSES = 610, 340, 103, 9
PU_CELL = 10  # class regions are 10 x 10 pixel cells
PU_SIGMA0 = 0.05  # std of the leading within-class component
PU_TAIL = 1e-3  # std of the last component relative to the first
PU_SAMPLE_PER_CLASS = 112  # 1008 mapped pixels: chunks of 256, 256, 256, 240
PU_TRAIN_PER_CLASS = 400  # labels the checkpoint is trained on
PU_SCENE_SEED = 0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """Environment of every process the benchmark starts: the program on
    the path, and every BLAS/OpenMP pool pinned to one thread before
    numpy loads."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def paths() -> dict:
    return {
        "desk_cube": os.path.join(INPUTS, "desk", "cube.json"),
        "desk_labels": os.path.join(INPUTS, "desk", "labels.json"),
        "fit_cube": os.path.join(INPUTS, "fit", "cube.json"),
        "fit_labels": os.path.join(INPUTS, "fit", "labels.json"),
        "pu_cube": os.path.join(INPUTS, "pu", "cube.json"),
        "pu_classes": os.path.join(INPUTS, "pu", "classes.npy"),
        "pu_train_labels": os.path.join(INPUTS, "pu", "train_labels.json"),
        "pu_checkpoint": os.path.join(INPUTS, "pu", "run", "checkpoint.json"),
    }


def _hsiduo(args):
    subprocess.run([sys.executable, "-m", "hsiduo", *args, "--threads", "1"],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)


def _synth(spec, out_dir):
    _hsiduo(["synth", *[f"--{k}={v}" for k, v in spec.items()], "--out", out_dir])


def write_labels(labels: np.ndarray, header_path: str):
    """u16 row-major label map plus its JSON header (the repo's format)."""
    os.makedirs(os.path.dirname(header_path), exist_ok=True)
    raw_name = os.path.splitext(os.path.basename(header_path))[0] + ".raw"
    labels.astype("<u2").tofile(os.path.join(os.path.dirname(header_path), raw_name))
    header = {"height": labels.shape[0], "width": labels.shape[1], "dtype": "u16",
              "data": raw_name, "classes": [f"class_{c}" for c in range(1, PU_CLASSES + 1)]}
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, sort_keys=True)


def pu_scene(seed: int = PU_SCENE_SEED):
    """Class map and f32 BSQ cube of Pavia University's shape.

    Each class has a smooth mean spectrum. Within a class, pixels vary
    along the orthonormal DCT-II basis with std PU_SIGMA0 * PU_TAIL**(k/102)
    on component k, so the band covariance is full rank with a spectrum
    that decays over six orders of magnitude, as reflectance does, rather
    than the flat i.i.d. noise floor of the synthetic generator.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A7]))
    h, w, b = PU_HEIGHT, PU_WIDTH, PU_BANDS
    cells = rng.integers(1, PU_CLASSES + 1, size=(-(-h // PU_CELL), -(-w // PU_CELL)))
    classes = np.repeat(np.repeat(cells, PU_CELL, axis=0), PU_CELL, axis=1)[:h, :w].astype(np.int32)

    axis = np.arange(b, dtype=np.float64)
    means = np.empty((PU_CLASSES + 1, b))
    for c in range(PU_CLASSES + 1):
        centers = rng.uniform(0, b - 1, size=3)
        widths = rng.uniform(b / 10, b / 4, size=3)
        amps = rng.uniform(0.05, 0.2, size=3)
        means[c] = 0.2 + (amps[:, None] * np.exp(-((axis - centers[:, None]) ** 2)
                                                / (2 * widths[:, None] ** 2))).sum(axis=0)
    basis = np.cos(np.pi * (axis[:, None] + 0.5) * axis[None, :] / b)
    basis /= np.linalg.norm(basis, axis=0)
    sigma = PU_SIGMA0 * PU_TAIL ** (axis / (b - 1))

    bsq = np.empty((b, h, w), dtype="<f4")
    step = 61  # rows per chunk keeps the float64 temporaries near 17 MB
    for r0 in range(0, h, step):
        rows = classes[r0 : r0 + step]
        z = rng.standard_normal((rows.size, b)) * sigma
        block = means[rows.reshape(-1)] + z @ basis.T
        bsq[:, r0 : r0 + step, :] = block.T.reshape(b, rows.shape[0], w)
    return classes, bsq


def sample_labels(classes: np.ndarray, per_class: int, seed: int, salt: int) -> np.ndarray:
    """Label map marking `per_class` seeded pixels of each class; 0 elsewhere."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
    out = np.zeros_like(classes)
    flat = classes.reshape(-1)
    for c in range(1, PU_CLASSES + 1):
        idx = np.flatnonzero(flat == c)
        out.reshape(-1)[rng.choice(idx, size=per_class, replace=False)] = c
    return out


def _make_pu(p):
    out_dir = os.path.dirname(p["pu_cube"])
    os.makedirs(out_dir, exist_ok=True)
    classes, bsq = pu_scene()
    bsq.tofile(os.path.join(out_dir, "cube.raw"))
    with open(p["pu_cube"], "w", encoding="utf-8") as fh:
        json.dump({"height": PU_HEIGHT, "width": PU_WIDTH, "bands": PU_BANDS, "dtype": "f32",
                   "interleave": "bsq", "data": "cube.raw"}, fh, sort_keys=True)
    np.save(p["pu_classes"], classes)
    write_labels(sample_labels(classes, PU_TRAIN_PER_CLASS, PU_SCENE_SEED, 0x7A1),
                 p["pu_train_labels"])
    # the program under test trains the checkpoint that map_pu maps with
    _hsiduo(["train", "--cube", p["pu_cube"], "--labels", p["pu_train_labels"],
             "--seed", "0", "--out", os.path.dirname(p["pu_checkpoint"])])


def ensure_inputs() -> dict:
    """Make the fixed inputs unless a finished set is already there."""
    p = paths()
    if os.path.exists(STAMP):
        return p
    shutil.rmtree(INPUTS, ignore_errors=True)
    # the checks must reject corrupted outputs before any run relies on them
    subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "selftest.py")],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)
    _synth(DESK, os.path.dirname(p["desk_cube"]))
    _synth(FIT, os.path.dirname(p["fit_cube"]))
    _make_pu(p)
    with open(STAMP, "w", encoding="utf-8") as fh:
        json.dump({"desk": DESK, "fit": FIT, "pu_seed": PU_SCENE_SEED}, fh)
    return p


def map_labels(p: dict, seed: int, out_dir: str) -> str:
    """The per-seed sparse label map `map_pu` renders."""
    classes = np.load(p["pu_classes"])
    header = os.path.join(out_dir, "labels.json")
    write_labels(sample_labels(classes, PU_SAMPLE_PER_CLASS, seed, 0x5A3), header)
    return header
