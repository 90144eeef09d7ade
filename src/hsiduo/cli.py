"""The commands hsiduo.__main__ runs (synth, train, trial, map) and the
pipeline they share.

Other hsiduo modules are called through their module attributes
(data.fit_pca, model.load_checkpoint, train.fit, ...), and predict_samples
and write_ppm through this module's globals, so a wrapper set on any of
them is seen.
"""

from __future__ import annotations

import datetime
import os
import sys
from dataclasses import replace

import numpy as np

from . import data, metrics, model, schema, spectral, train
from .errors import ConfigError, DataError, IngestionError, NumericError

# class 0 is black; classes cycle through the remaining 16 entries
PALETTE = (
    (0, 0, 0),
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 245, 60),
    (250, 190, 212),
    (0, 128, 128),
    (220, 190, 255),
    (170, 110, 40),
    (255, 250, 200),
    (128, 0, 0),
    (170, 255, 195),
)


def _palette_index(labels):
    """PALETTE index of a label, or of every entry of an integer array:
    0 for unlabelled (<= 0), else the 16 class colours in turn."""
    return (labels > 0) * (1 + (labels - 1) % 16)


def class_color(cls: int):
    return PALETTE[_palette_index(cls)]


def class_colors(labels):
    """class_color of every entry of an integer array, as uint8 [..., 3]:
    one index into the palette, not a call per pixel."""
    return np.array(PALETTE, dtype=np.uint8)[_palette_index(labels)]


# ---------------------------------------------------------------------------
# pipeline shared by train/trial/map


def _patch_stacks(std_array, rows, cols, patch_size):
    """Real patches and their band-wise FFTs (re, im), in std_array's
    precision: float32, the model's, for the cube standardize returns."""
    xr = data.extract_patches_array(std_array, rows, cols, patch_size)
    return (xr, *spectral.bandwise_fft_arrays(xr))


def build_patchset(std_array, samples, patch_size):
    """Patch stacks plus labels for a sample set."""
    stacks = _patch_stacks(std_array, samples.rows, samples.cols, patch_size)
    return train.PatchSet(*stacks, np.asarray(samples.labels, dtype=np.int32))


_PREDICT_BATCH = 64


def predict_samples(net, std_array, rows, cols, patch_size):
    """Streamed prediction in std_array's precision, float32 for the cube
    standardize returns; returns 1-based class labels.

    The weights are net.flat, the values the checkpoint stores, so
    training's test-set report is what `map` of its checkpoint predicts.
    The conv kernels run a batch a few samples at a time (50 at the first
    layer, 28 at the second, at the default shapes), so a batch of 64
    holds a quarter of batch 256's patch stacks and activations at about
    the same speed (see README)."""
    out = np.zeros(rows.shape[0], dtype=np.int32)
    for lo in range(0, rows.shape[0], _PREDICT_BATCH):
        hi = min(lo + _PREDICT_BATCH, rows.shape[0])
        stacks = _patch_stacks(std_array, rows[lo:hi], cols[lo:hi], patch_size)
        out[lo:hi] = net.predict_batch(*stacks) + 1
    return out


def _check_scene(cube, label_map):
    """The label map must cover the cube pixel for pixel."""
    if (label_map.height, label_map.width) != (cube.height, cube.width):
        raise DataError(
            f"labels: {label_map.height}x{label_map.width} label map does not match "
            f"the {cube.height}x{cube.width} cube"
        )


def _standardized(cube, n_components):
    """The cube reduced to n_components by PCA and standardized, as the
    array that patches are cut from."""
    _, reduced = data.fit_pca(cube, n_components)
    return data.standardize(reduced).as_array()


def run_training(cube, label_map, config, seed: int):
    """split -> PCA -> standardize -> patch/FFT -> fit -> test evaluation.

    Returns (model, history, report_dict, class_names). Every input check,
    the split's class sizes included, comes before any work.
    """
    config.validate()
    train_cfg = replace(config.train, seed=seed)
    train_cfg.validate()  # a --seed override meets the config's bound
    _check_scene(cube, label_map)
    n_classes = label_map.n_classes
    if n_classes < 2:
        raise DataError(f"need at least 2 labeled classes, found {n_classes}")
    gaps = np.flatnonzero(np.bincount(label_map.labels.ravel())[1:] == 0)
    if gaps.size:  # the class would have no test pixel for AA to average
        raise DataError(f"labels: class {gaps[0] + 1} has no labeled pixel")
    class_names = list(label_map.class_names) or [f"class_{c}" for c in range(1, n_classes + 1)]

    train_samples, val_samples, test_samples = data.stratified_split(label_map, seed=seed)
    std_array = _standardized(cube, config.pca_components)
    train_ps = build_patchset(std_array, train_samples, config.patch_size)
    val_ps = build_patchset(std_array, val_samples, config.patch_size)

    net = model.DualStreamModel.build(
        config, n_classes, rng=np.random.default_rng(np.random.SeedSequence([seed, 0x1D17]))
    )
    net, history = train.fit(net, train_ps, val_ps, train_cfg)

    pred = predict_samples(net, std_array, test_samples.rows, test_samples.cols, config.patch_size)
    cm = metrics.ConfusionMatrix.from_predictions(test_samples.labels, pred, n_classes)
    report = {
        "classes": class_names,
        "confusion": cm.counts.tolist(),
        "per_class": [float(x) for x in metrics.per_class(cm)],
        "oa": metrics.oa(cm),
        "aa": metrics.aa(cm),
        "kappa": metrics.kappa(cm),
        "n_train": len(train_samples),
        "n_val": len(val_samples),
        "n_test": len(test_samples),
        "seed": seed,
    }
    return net, history, report, class_names


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        schema.dump(doc, fh)


def _load_config(path):
    if path is None:
        return model.ModelConfig()
    try:
        config = model.ModelConfig.from_json_dict(schema.load(path, dict, f"config {path}", IngestionError))
        config.validate()  # its cross-field checks too name the file
        return config
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None


def _run_inputs(args):
    """A train or trial run's config, seed (--seed over the config's), cube
    and label map."""
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else config.train.seed
    return config, seed, data.load_cube(args.cube), data.load_labels(args.labels)


def _train_run(args, cube, label_map, config, seed):
    """run_training, with a numeric failure prefixed by the run's inputs."""
    try:
        return run_training(cube, label_map, config, seed)
    except NumericError as exc:
        source = f"config {args.config}" if args.config else "built-in config"
        raise NumericError(f"{source}, header {args.cube}: {exc}") from None


def _write_run(out, net, history, report, class_names):
    """One run's checkpoint, history and report, in the directory out."""
    os.makedirs(out, exist_ok=True)
    model.save_checkpoint(net, os.path.join(out, "checkpoint.json"), class_names)
    _write_json(os.path.join(out, "history.json"), history)
    _write_json(os.path.join(out, "report.json"), report)


def _run_manifest(args, seed, config, outputs, **extra):
    return {
        "command": args.command,
        "seed": seed,
        "config_hash": model.config_hash(config),
        "inputs": {"cube": os.path.abspath(args.cube), "labels": os.path.abspath(args.labels)},
        "outputs": outputs,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **extra,
    }


def write_ppm(path, rgb):
    """P6 binary image; rgb is [H, W, 3] uint8."""
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    h, w, b = args.height, args.width, args.bands
    if 8 * h * w * b > sys.maxsize:  # numpy refuses the float64 scene outright
        raise ConfigError(f"--height {h} --width {w} --bands {b}: a cube larger than numpy can allocate")
    cube, label_map = data.synth_dataset(args.classes, h, w, b, args.noise, args.seed)
    os.makedirs(args.out, exist_ok=True)
    data.save_cube(cube, os.path.join(args.out, "cube.json"))
    data.save_labels(label_map, os.path.join(args.out, "labels.json"))
    _write_json(
        os.path.join(args.out, "synth_manifest.json"),
        {
            "command": "synth",
            **{key: getattr(args, key) for key in ("classes", "height", "width", "bands", "noise", "seed")},
            "outputs": {"cube": "cube.json", "labels": "labels.json"},
        },
    )
    return 0


def cmd_train(args) -> int:
    config, seed, cube, label_map = _run_inputs(args)
    net, history, report, class_names = _train_run(args, cube, label_map, config, seed)
    _write_run(args.out, net, history, report, class_names)
    outputs = {"checkpoint": "checkpoint.json", "history": "history.json", "report": "report.json"}
    _write_json(os.path.join(args.out, "run_manifest.json"), _run_manifest(args, seed, config, outputs))
    return 0


def cmd_trial(args) -> int:
    """`--repeats` runs at seeds --seed, --seed + 1, ..., each written to
    trial_XX/ as train writes one run; then the best run's report with the
    aggregate `trials` block (nothing is written before the first run)."""
    config, master_seed, cube, label_map = _run_inputs(args)
    seeds = [master_seed + i for i in range(args.repeats)]
    reports = []
    for i, seed in enumerate(seeds):
        net, history, report, class_names = _train_run(args, cube, label_map, config, seed)
        _write_run(os.path.join(args.out, f"trial_{i:02d}"), net, history, report, class_names)
        reports.append(report)

    trials = metrics.aggregate_trials(reports)
    best = reports[trials["best_trial"]]
    _write_json(
        os.path.join(args.out, "trial_report.json"),
        {
            "classes": class_names,
            **{key: best[key] for key in ("confusion", "per_class", "oa", "aa", "kappa")},
            "trials": trials,
            "per_trial": [{key: r[key] for key in ("oa", "aa", "kappa", "per_class")} for r in reports],
        },
    )
    manifest = _run_manifest(args, master_seed, config, {"trial_report": "trial_report.json"},
                             per_trial_seeds=seeds, repeats=args.repeats)
    _write_json(os.path.join(args.out, "run_manifest.json"), manifest)
    return 0


def cmd_map(args) -> int:
    net, _ = model.load_checkpoint(args.checkpoint)
    config = net.config
    cube = data.load_cube(args.cube)
    label_map = data.load_labels(args.labels)
    _check_scene(cube, label_map)
    if config.pca_components > cube.bands:
        raise ConfigError(
            f"checkpoint manifest {args.checkpoint}: config.pca_components: {config.pca_components} "
            f"components, more than the {cube.bands} bands of header {args.cube}"
        )

    std_array = _standardized(cube, config.pca_components)

    h, w = label_map.height, label_map.width
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    if args.full:
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        rows, cols = rows.reshape(-1), cols.reshape(-1)
    else:
        coords = np.argwhere(label_map.labels != 0)
        rows, cols = coords[:, 0], coords[:, 1]
    if rows.size:
        pred = predict_samples(net, std_array, rows, cols, config.patch_size)
        rgb[rows, cols] = class_colors(pred)
    write_ppm(args.out, rgb)
    return 0
