"""Command-line entry point: dataset synthesis, training, repeated
trials, and classification-map rendering.

Exit codes: 0 success, 2 usage/validation problem, 3 numeric failure.
Heavy imports are deferred until after thread setup so --threads (or the
HSIDUO_THREADS env var) can pin the BLAS pool before numpy loads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

# class 0 is black; classes cycle through the remaining 15 entries
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
)


def class_color(cls: int):
    if cls <= 0:
        return PALETTE[0]
    return PALETTE[1 + (cls - 1) % 15]


def _setup_threads(argv):
    """Pin BLAS/OpenMP pools before numpy is imported anywhere.

    This only sets environment variables, which the pools read when numpy
    loads. The pin therefore applies only when hsiduo is the process entry
    point (`python -m hsiduo`); a caller that has already imported numpy
    keeps the thread counts it started with.
    """
    threads = os.environ.get("HSIDUO_THREADS")
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def _default_config_json() -> str:
    from .model import ModelConfig

    return json.dumps(ModelConfig().to_json_dict(), sort_keys=True, indent=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsiduo",
        description="dual-branch real/complex HSI classifier harness",
    )
    parser.add_argument("--emit-default-config", action="store_true", help="print the default config JSON and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic cube + labels")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--bands", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None)

    for name in ("train", "trial"):
        p = sub.add_parser(name, help=f"{name} on a cube/labels pair")
        p.add_argument("--cube", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--config", default=None, help="config JSON path (defaults used if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True)
        p.add_argument("--threads", type=int, default=None)
        if name == "trial":
            p.add_argument("--repeats", type=int, default=10)

    p = sub.add_parser("map", help="render a classification map from a checkpoint")
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint manifest JSON")
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--full", action="store_true", help="predict every pixel, not only labeled ones")
    p.add_argument("--threads", type=int, default=None)
    return parser


# ---------------------------------------------------------------------------
# pipeline shared by train/trial/map


def _patch_stacks(std_array, rows, cols, patch_size):
    """Real patches and their band-wise FFTs (re, im)."""
    from . import data, spectral

    xr = data.extract_patches_array(std_array, rows, cols, patch_size)
    return (xr, *spectral.bandwise_fft_arrays(xr))


def build_patchset(std_array, samples, patch_size):
    """Patch stacks plus labels for a sample set."""
    import numpy as np

    from .train import PatchSet

    stacks = _patch_stacks(std_array, samples.rows, samples.cols, patch_size)
    return PatchSet(*stacks, np.asarray(samples.labels, dtype=np.int32))


def predict_samples(model, std_array, rows, cols, patch_size, chunk=256):
    """Streamed prediction; returns 1-based class labels."""
    import numpy as np

    out = np.zeros(rows.shape[0], dtype=np.int32)
    for lo in range(0, rows.shape[0], chunk):
        hi = min(lo + chunk, rows.shape[0])
        stacks = _patch_stacks(std_array, rows[lo:hi], cols[lo:hi], patch_size)
        out[lo:hi] = model.predict_batch(*stacks) + 1
    return out


def _check_scene(cube, label_map):
    """The label map must cover the cube pixel for pixel."""
    from .errors import DataError

    if (label_map.height, label_map.width) != (cube.height, cube.width):
        raise DataError(
            f"labels: {label_map.height}x{label_map.width} label map does not match "
            f"the {cube.height}x{cube.width} cube"
        )


def _check_inputs(cube, label_map, config, seed: int):
    """Every check a training run makes before any work; returns the train
    config with the seed applied."""
    from dataclasses import replace

    from .errors import DataError

    config.validate()
    train_cfg = replace(config.train, seed=seed)
    train_cfg.validate()  # a --seed override meets the config's bound
    _check_scene(cube, label_map)
    if label_map.n_classes < 2:
        raise DataError(f"need at least 2 labeled classes, found {label_map.n_classes}")
    return train_cfg


def run_training(cube, label_map, config, seed: int):
    """PCA -> standardize -> split -> patch/FFT -> fit -> test evaluation.

    Returns (model, history, report_dict, class_names).
    """
    import numpy as np

    from . import metrics
    from .data import fit_pca, standardize, stratified_split
    from .model import DualStreamModel
    from .train import fit

    train_cfg = _check_inputs(cube, label_map, config, seed)
    n_classes = label_map.n_classes
    class_names = list(label_map.class_names) or [f"class_{c}" for c in range(1, n_classes + 1)]

    _, reduced = fit_pca(cube, config.pca_components)
    std = standardize(reduced)
    std_array = std.as_array()

    train_samples, val_samples, test_samples = stratified_split(label_map, seed=seed)
    train_ps = build_patchset(std_array, train_samples, config.patch_size)
    val_ps = build_patchset(std_array, val_samples, config.patch_size)

    model = DualStreamModel.build(
        config, n_classes, rng=np.random.default_rng(np.random.SeedSequence([seed, 0x1D17]))
    )
    model, history = fit(model, train_ps, val_ps, train_cfg)

    pred = predict_samples(model, std_array, test_samples.rows, test_samples.cols, config.patch_size)
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
    return model, history, report, class_names


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_config(path):
    from .errors import IngestionError
    from .model import ModelConfig

    if path is None:
        return ModelConfig()
    if not os.path.exists(path):
        raise IngestionError(f"config not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"malformed config {path}: {exc}") from exc
    return ModelConfig.from_json_dict(doc)


def _run_manifest(command, seed, config, inputs, outputs, extra=None):
    from .model import config_hash

    doc = {
        "command": command,
        "seed": seed,
        "config_hash": config_hash(config),
        "inputs": inputs,
        "outputs": outputs,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        doc.update(extra)
    return doc


def write_ppm(path, rgb):
    """P6 binary image; rgb is [H, W, 3] uint8."""
    import numpy as np

    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    from .data import save_cube, save_labels, synth_dataset

    if args.classes < 2:
        print("error: need >= 2 classes", file=sys.stderr)
        return 2
    for flag, value in (("--height", args.height), ("--width", args.width), ("--bands", args.bands)):
        if value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    if not (math.isfinite(args.noise) and args.noise >= 0):
        print(f"error: --noise must be a finite number >= 0, got {args.noise}", file=sys.stderr)
        return 2
    cube, label_map = synth_dataset(
        args.classes, args.height, args.width, args.bands, args.noise, args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    cube_path = os.path.join(args.out, "cube.json")
    labels_path = os.path.join(args.out, "labels.json")
    save_cube(cube, cube_path)
    save_labels(label_map, labels_path)
    _write_json(
        os.path.join(args.out, "synth_manifest.json"),
        {
            "command": "synth",
            "classes": args.classes,
            "height": args.height,
            "width": args.width,
            "bands": args.bands,
            "noise": args.noise,
            "seed": args.seed,
            "outputs": {"cube": "cube.json", "labels": "labels.json"},
        },
    )
    return 0


def cmd_train(args) -> int:
    from .data import load_cube, load_labels
    from .model import save_checkpoint

    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else config.train.seed
    cube = load_cube(args.cube)
    label_map = load_labels(args.labels)
    model, history, report, class_names = run_training(cube, label_map, config, seed)

    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    save_checkpoint(model, ckpt_path, class_names)
    _write_json(os.path.join(args.out, "history.json"), history)
    _write_json(os.path.join(args.out, "report.json"), report)
    _write_json(
        os.path.join(args.out, "run_manifest.json"),
        _run_manifest(
            "train",
            seed,
            config,
            {"cube": os.path.abspath(args.cube), "labels": os.path.abspath(args.labels)},
            {
                "checkpoint": "checkpoint.json",
                "history": "history.json",
                "report": "report.json",
            },
        ),
    )
    return 0


def cmd_trial(args) -> int:
    from . import metrics
    from .data import load_cube, load_labels
    from .model import save_checkpoint

    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    config = _load_config(args.config)
    master_seed = args.seed if args.seed is not None else config.train.seed
    cube = load_cube(args.cube)
    label_map = load_labels(args.labels)
    _check_inputs(cube, label_map, config, master_seed)  # a rejected input leaves no --out behind
    os.makedirs(args.out, exist_ok=True)

    trial_metrics = []
    trial_reports = []
    trial_seeds = []
    for i in range(args.repeats):
        seed_i = master_seed + i
        trial_seeds.append(seed_i)
        model, history, report, class_names = run_training(cube, label_map, config, seed_i)
        tdir = os.path.join(args.out, f"trial_{i:02d}")
        os.makedirs(tdir, exist_ok=True)
        save_checkpoint(model, os.path.join(tdir, "checkpoint.json"), class_names)
        _write_json(os.path.join(tdir, "history.json"), history)
        _write_json(os.path.join(tdir, "report.json"), report)
        trial_reports.append(report)
        trial_metrics.append(
            {"oa": report["oa"], "aa": report["aa"], "kappa": report["kappa"], "per_class": report["per_class"]}
        )

    agg = metrics.aggregate_trials(trial_metrics)
    best = trial_reports[agg.best_trial]
    # full EvalReport: the best trial's metrics plus the aggregate block
    _write_json(
        os.path.join(args.out, "trial_report.json"),
        {
            "classes": class_names,
            "confusion": best["confusion"],
            "per_class": best["per_class"],
            "oa": best["oa"],
            "aa": best["aa"],
            "kappa": best["kappa"],
            "trials": agg.to_json_dict(),
            "per_trial": trial_metrics,
        },
    )
    _write_json(
        os.path.join(args.out, "run_manifest.json"),
        _run_manifest(
            "trial",
            master_seed,
            config,
            {"cube": os.path.abspath(args.cube), "labels": os.path.abspath(args.labels)},
            {"trial_report": "trial_report.json"},
            extra={"per_trial_seeds": trial_seeds, "repeats": args.repeats},
        ),
    )
    return 0


def cmd_map(args) -> int:
    import numpy as np

    from .data import fit_pca, load_cube, load_labels, standardize
    from .errors import ConfigError
    from .model import load_checkpoint

    model, _ = load_checkpoint(args.checkpoint)
    config = model.config
    cube = load_cube(args.cube)
    label_map = load_labels(args.labels)
    _check_scene(cube, label_map)
    if config.pca_components > cube.bands:
        raise ConfigError(
            f"checkpoint expects {config.pca_components} components but cube has {cube.bands} bands"
        )

    _, reduced = fit_pca(cube, config.pca_components)
    std_array = standardize(reduced).as_array()

    h, w = label_map.height, label_map.width
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    if args.full:
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        rows, cols = rows.reshape(-1), cols.reshape(-1)
    else:
        coords = np.argwhere(label_map.labels != 0)
        rows, cols = coords[:, 0], coords[:, 1]
    if rows.size:
        pred = predict_samples(model, std_array, rows, cols, config.patch_size)
        rgb[rows, cols] = np.array([class_color(int(c)) for c in pred], dtype=np.uint8)
    write_ppm(args.out, rgb)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _setup_threads(argv)
    if "--emit-default-config" in argv:
        print(_default_config_json())
        return 0
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 2

    from .errors import (
        ConfigError,
        DataError,
        DimensionError,
        IngestionError,
        MetricError,
        NumericError,
    )

    handlers = {"synth": cmd_synth, "train": cmd_train, "trial": cmd_trial, "map": cmd_map}
    try:
        return handlers[args.command](args)
    except (ConfigError, DataError, DimensionError, IngestionError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
