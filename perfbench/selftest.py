"""Shows that every correctness check passes on the program's own output
and fails on a deliberately corrupted copy of it.

    python3 perfbench/selftest.py     # from the root of the checkout

Small inputs only: a 16 x 16 x 20 synthetic scene and an untrained model.
Exits 1 if any check misses a corruption or rejects a good output.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.abspath("src"))

import checks  # noqa: E402
from hsiduo import cli, data, metrics, model  # noqa: E402

failures = []


def expect(what, errors, should_fail):
    ok = bool(errors) == should_fail
    print(f"{'ok  ' if ok else 'MISS'} {what}: {errors[0] if errors else 'passes'}")
    if not ok:
        failures.append(what)


def pca_cases(cube):
    pixels = cube.values.as_array().reshape(-1, cube.bands)
    pca, reduced = data.fit_pca(cube, 16)
    v, lam, red = pca.components, pca.explained_variance, reduced.as_array()
    expect("pca, program output", checks.check_pca(pixels, v, lam, red), False)
    bent = v.copy()
    bent[:, 0] += 1e-3 * v[:, 1]
    expect("pca, component bent off orthonormal", checks.check_pca(pixels, bent, lam, red), True)
    c, s = np.cos(0.01), np.sin(0.01)
    turned = v.copy()
    turned[:, 0], turned[:, 1] = c * v[:, 0] - s * v[:, 1], s * v[:, 0] + c * v[:, 1]
    expect("pca, orthonormal but not eigenvectors", checks.check_pca(pixels, turned, lam, red), True)
    scaled = lam.copy()
    scaled[2] *= 1.001
    expect("pca, eigenvalue off by 0.1%", checks.check_pca(pixels, v, scaled, red), True)
    moved = red.copy()
    moved[3, 4, 0] += 1e-6
    expect("pca, one reduced value moved", checks.check_pca(pixels, v, lam, moved), True)
    return red


def report_cases(truth, pred, k):
    cm = metrics.ConfusionMatrix.from_predictions(truth, pred, k)
    report = {"confusion": cm.counts.tolist(), "n_test": int(truth.size),
              "oa": metrics.oa(cm), "aa": metrics.aa(cm), "kappa": metrics.kappa(cm)}
    expect("report, program metrics", checks.check_report(report, truth, pred, 0.0), False)
    for key, delta in (("oa", 0.01), ("aa", -0.01), ("kappa", 1e-9)):
        expect(f"report, {key} moved by {delta}",
               checks.check_report(dict(report, **{key: report[key] + delta}), truth, pred, 0.0), True)
    counts = cm.counts.copy()
    counts[0, 0] += 1
    expect("report, a count too many",
           checks.check_report(dict(report, confusion=counts.tolist()), truth, pred, 0.0), True)
    swapped = pred.copy()
    swapped[0] = 1 + pred[0] % k
    expect("report, predictions it was not made from",
           checks.check_report(report, truth, swapped, 0.0), True)
    expect("report, OA below the bar",
           checks.check_report(report, truth, pred, report["oa"] + 0.01), True)


def forward_and_map_cases(red, label_map, tmp):
    std = checks.standardized(red)
    net = model.DualStreamModel.build(model.ModelConfig(), label_map.n_classes,
                                      rng=np.random.default_rng(3))
    ckpt = os.path.join(tmp, "checkpoint.json")
    model.save_checkpoint(net, ckpt)
    net, _ = model.load_checkpoint(ckpt)
    coords = np.argwhere(label_map.labels != 0)[::5]
    rows, cols = coords[:, 0], coords[:, 1]
    pred = cli.predict_samples(net, std, rows, cols, net.config.patch_size)
    config, weights = checks.read_checkpoint(ckpt)
    probs = checks.reference_probs(config, weights, std, rows, cols)
    expect("forward, program predictions", checks.check_predictions(probs, pred, "forward")[0], False)
    top2 = np.sort(probs, axis=1)[:, -2:]
    clear = int(np.argmax(top2[:, 1] - top2[:, 0]))
    wrong = pred.copy()
    wrong[clear] = 1 + pred[clear] % label_map.n_classes
    expect("forward, one clear pixel relabelled", checks.check_predictions(probs, wrong, "forward")[0], True)

    labels = np.zeros(label_map.labels.shape, dtype=np.int64)
    labels[rows, cols] = pred
    ppm = os.path.join(tmp, "map.ppm")

    def map_errors(rgb):
        cli.write_ppm(ppm, rgb)
        return checks.check_map(ppm, labels, rows, cols, probs)[0]

    rgb = np.zeros(labels.shape + (3,), dtype=np.uint8)
    rgb[rows, cols] = np.array([cli.class_color(int(c)) for c in pred], dtype=np.uint8)
    expect("map, program colours", map_errors(rgb), False)
    bad = rgb.copy()
    bad[rows[clear], cols[clear]] = cli.class_color(int(wrong[clear]))
    expect("map, one clear pixel in another class's colour", map_errors(bad), True)
    bad = rgb.copy()
    off = np.argwhere(labels == 0)[0]
    bad[off[0], off[1]] = (1, 2, 3)
    expect("map, an unlabelled pixel drawn", map_errors(bad), True)
    bad = rgb.copy()
    bad[rows[0], cols[0]] = 0
    expect("map, a labelled pixel left black", map_errors(bad), True)
    expect("map, image a row short", map_errors(rgb[:-1]), True)
    with open(ppm, "wb") as fh:
        fh.write(b"P5\n16 16\n255\n" + bytes(256))
    expect("map, not a P6 image", checks.check_map(ppm, labels, rows, cols, probs)[0], True)
    return net


def fit_cases(net):
    history = [{"train_loss": 1.1}, {"train_loss": 0.9}, {"train_loss": 0.7}]
    params = net.param_entries()
    expect("fit, falling loss", checks.check_fit(history, params, 3), False)
    expect("fit, loss that rose", checks.check_fit(history[::-1], params, 3), True)
    expect("fit, an epoch short", checks.check_fit(history[:2], params, 3), True)
    broken = [(name, arr.copy()) for name, arr in params]
    broken[-1][1][0] = np.nan
    expect("fit, a NaN parameter", checks.check_fit(history, broken, 3), True)


def main() -> int:
    cube, label_map = data.synth_dataset(3, 16, 16, 20, 0.1, 0)
    red = pca_cases(cube)
    rng = np.random.default_rng(0)
    truth = rng.integers(1, 4, size=200)
    pred = np.where(rng.random(200) < 0.8, truth, rng.integers(1, 4, size=200))
    report_cases(truth, pred, 3)
    os.makedirs(".perfbench", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench") as tmp:
        fit_cases(forward_and_map_cases(red, label_map, tmp))
    print(f"{len(failures)} check(s) missed a corruption or rejected good output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
