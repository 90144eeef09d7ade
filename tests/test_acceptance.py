"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
drive the real CLI on synthetic data under --threads 1.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from hsiduo.__main__ import main
from hsiduo.metrics import ConfusionMatrix, aa, kappa, oa, per_class
from hsiduo.tensor import Tensor


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number:>2}: {name}: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_criterion_1_gradient_oracle():
    from test_gradients import clean_instance, fd_check
    from hsiduo.train import backward

    start = time.monotonic()
    model, batch, onehot, _ = clean_instance(100, n=2)
    _, grads = backward(model, batch, onehot)
    fd_check(model, batch, onehot, grads)  # every parameter of every layer type
    for seed in range(20):
        model, batch, onehot, rng = clean_instance(seed, n=1)
        _, grads = backward(model, batch, onehot)
        fd_check(model, batch, onehot, grads, indices_per_param=4, rng=rng)
    elapsed = time.monotonic() - start
    report(1, "gradient finite-difference oracle", elapsed < 60.0, f"({elapsed:.1f}s, rel tol 1e-4)")


# ---------------------------------------------------------------------------
# 2. FFT oracle


def test_criterion_2_fft_oracle():
    from test_spectral import fft, fft2, naive_dft

    rng = np.random.default_rng(0)
    worst_dft = 0.0
    for n in (1, 2, 4, 8, 16):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = fft(x)
        worst_dft = max(worst_dft, np.abs(got - np.array(naive_dft(list(x)))).max())
    assert worst_dft < 1e-9

    worst_rt = 0.0
    for n in (2, 8, 16, 64):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = fft(fft(x), inverse=True)
        worst_rt = max(worst_rt, np.abs(back - x).max())
    assert worst_rt < 1e-12

    worst_parseval = 0.0
    worst_sym = 0.0
    for n in (4, 16, 64):
        x = rng.normal(size=n)
        spec = fft(x)
        lhs = (np.abs(x) ** 2).sum()
        rhs = (np.abs(spec) ** 2).sum() / n
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / lhs)
        for k in range(n):
            worst_sym = max(worst_sym, abs(spec[k] - spec[(n - k) % n].conjugate()))
    assert worst_parseval < 1e-10
    assert worst_sym < 1e-10

    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    from test_spectral import naive_dft_2d

    got2 = fft2(mat)
    assert np.abs(got2 - naive_dft_2d(mat)).max() < 1e-9
    report(2, "FFT vs naive DFT / roundtrip / Parseval / symmetry", True,
           f"(dft {worst_dft:.1e}, rt {worst_rt:.1e})")


# ---------------------------------------------------------------------------
# 3. convolution oracle


def test_criterion_3_convolution_oracle():
    from test_layers import complex_conv_oracle, conv_complex, conv_oracle, conv_real
    from hsiduo.layers import ComplexWeights

    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(3):
        x = rng.normal(size=(5, 5, 5, 3))
        k = rng.normal(size=(3, 3, 3, 3, 4))
        b = rng.normal(size=4)
        got = conv_real(x, k, b)
        worst = max(worst, np.abs(got - conv_oracle(x, k, b)).max())

        xr = rng.normal(size=(5, 5, 5, 3))
        xi = rng.normal(size=(5, 5, 5, 3))
        kr = rng.normal(size=(3, 3, 3, 3, 4))
        ki = rng.normal(size=(3, 3, 3, 3, 4))
        br, bi = rng.normal(size=4), rng.normal(size=4)
        out_re, out_im = conv_complex(xr, xi, ComplexWeights(kr, ki, br, bi))
        want_re, want_im = complex_conv_oracle(xr, xi, kr, ki, br, bi)
        worst = max(worst, np.abs(out_re - want_re).max())
        worst = max(worst, np.abs(out_im - want_im).max())
    report(3, "conv3d real/complex vs nested-loop oracle", worst < 1e-12, f"(max err {worst:.1e})")


# ---------------------------------------------------------------------------
# 4. complex-real reduction and structural gradient equality


def test_criterion_4_complex_real_reduction():
    from test_layers import conv_complex, conv_real
    from hsiduo.layers import (
        ComplexWeights,
        conv3d_real_batch_backward,
        conv3d_complex_batch_backward,
    )

    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4, 4, 2))
    k = rng.normal(size=(2, 2, 2, 2, 3))
    b = rng.normal(size=3)
    out_re, out_im = conv_complex(x, np.zeros_like(x), ComplexWeights(k, np.zeros_like(k), b, np.zeros(3)))
    want = conv_real(x, k, b)
    re_err = np.abs(out_re - want).max()
    im_err = np.abs(out_im).max()
    assert re_err < 1e-14 and im_err < 1e-14

    xr = rng.normal(size=(2, 4, 4, 4, 2))
    xi = rng.normal(size=(2, 4, 4, 4, 2))
    kr = rng.normal(size=(2, 2, 2, 2, 3))
    ki = rng.normal(size=(2, 2, 2, 2, 3))
    p = ComplexWeights(kr, ki, rng.normal(size=3), rng.normal(size=3))
    dre = rng.normal(size=(2, 3, 3, 3, 3))
    dim = rng.normal(size=(2, 3, 3, 3, 3))
    dxr, dxi, dkr, dki, dbr, dbi = conv3d_complex_batch_backward(xr, xi, p, dre, dim)
    dxr_a, dkr_a, dbr_a = conv3d_real_batch_backward(xr, kr, dre)
    dxi_b, dki_b, _ = conv3d_real_batch_backward(xi, ki, dre)
    dxr_c, dki_c, _ = conv3d_real_batch_backward(xr, ki, dim)
    dxi_d, dkr_d, dbi_d = conv3d_real_batch_backward(xi, kr, dim)
    grad_err = max(
        np.abs(dxr - (dxr_a + dxr_c)).max(),
        np.abs(dxi - (dxi_d - dxi_b)).max(),
        np.abs(dkr - (dkr_a + dkr_d)).max(),
        np.abs(dki - (dki_c - dki_b)).max(),
        np.abs(dbr - dbr_a).max(),
        np.abs(dbi - dbi_d).max(),
    )
    report(4, "complex conv reduces to real / four-real-convs gradients",
           grad_err < 1e-10, f"(fwd {re_err:.1e}, grad {grad_err:.1e})")


# ---------------------------------------------------------------------------
# 5. SE semantics


def test_criterion_5_se_semantics():
    from test_layers import se_single

    rng = np.random.default_rng(3)
    u = rng.normal(size=(5, 7, 8))
    _, z, s = se_single(u, rng.normal(size=(4, 8)), rng.normal(size=(8, 4)))
    worst = max(abs(z[c] - u[:, :, c].sum() / 35.0) for c in range(8))
    assert worst < 1e-14
    assert np.all((s > 0.0) & (s < 1.0))

    assert np.all(se_single(u, np.zeros((4, 8)), np.zeros((8, 4)))[2] == 0.5)
    report(5, "SE squeeze/excite semantics", True, f"(squeeze err {worst:.1e})")


# ---------------------------------------------------------------------------
# 6. metrics


def test_criterion_6_metrics():
    assert kappa(ConfusionMatrix([[1, 1], [1, 1]])) == 0.0
    assert kappa(ConfusionMatrix(np.diag([3, 4, 5]))) == 1.0
    assert kappa(ConfusionMatrix([[4, 1], [2, 3]])) == 0.4
    m = ConfusionMatrix([[4, 1], [2, 3]])
    assert oa(m) == 0.7
    assert np.array_equal(per_class(m), [0.8, 0.6])
    assert abs(aa(m) - 0.7) < 1e-12

    rng = np.random.default_rng(4)
    for _ in range(100):
        k = rng.integers(2, 6)
        counts = rng.integers(0, 25, size=(k, k)) + np.diag(rng.integers(1, 8, size=k))
        perm = rng.permutation(k)
        a_m = ConfusionMatrix(counts)
        b_m = ConfusionMatrix(counts[np.ix_(perm, perm)])
        assert abs(oa(a_m) - oa(b_m)) < 1e-15
        assert abs(aa(a_m) - aa(b_m)) < 1e-12
        assert abs(kappa(a_m) - kappa(b_m)) < 1e-15
    report(6, "kappa/oa/aa exact cases + permutation invariance", True)


# ---------------------------------------------------------------------------
# 7. PCA oracle


def test_criterion_7_pca_oracle():
    from hsiduo.data import HsiCube, fit_pca

    rng = np.random.default_rng(5)
    vals = rng.normal(size=(10, 10, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.25])
    cube = HsiCube(Tensor.from_array(vals))
    model, reduced = fit_pca(cube, 6)

    pixels = vals.reshape(-1, 6)
    cov = np.cov(pixels, rowvar=False, ddof=1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    worst = 0.0
    for j in range(6):
        ref = v[:, j]
        if ref[np.argmax(np.abs(ref))] < 0:
            ref = -ref
        worst = max(worst, np.abs(model.components[:, j] - ref).max())
        worst = max(worst, abs(model.explained_variance[j] - w[j]))
    assert worst < 1e-8

    recon = model.mean + reduced.as_array().reshape(-1, 6) @ model.components.T
    recon_err = np.abs(recon - pixels).max()
    report(7, "PCA eigenpairs + lossless full-rank reconstruction",
           recon_err < 1e-8, f"(eig {worst:.1e}, recon {recon_err:.1e})")


# ---------------------------------------------------------------------------
# 8. end-to-end synthetic


def default_config_with(tmp_path, name="config.json", **train_overrides):
    from hsiduo.model import ModelConfig

    doc = ModelConfig().to_json_dict()
    doc["train"].update(train_overrides)
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def synth_and_train(tmp_path, noise, config_path, tag):
    data = str(tmp_path / f"data_{tag}")
    run = str(tmp_path / f"run_{tag}")
    assert main(["synth", "--classes", "3", "--height", "32", "--width", "32", "--bands", "16",
                 "--noise", str(noise), "--seed", "0", "--out", data]) == 0
    code = main(["train", "--cube", os.path.join(data, "cube.json"),
                 "--labels", os.path.join(data, "labels.json"),
                 "--config", config_path, "--seed", "0", "--out", run, "--threads", "1"])
    assert code == 0
    rep = json.load(open(os.path.join(run, "report.json")))
    hist = json.load(open(os.path.join(run, "history.json")))
    return rep, hist, data, run


def test_criterion_8_end_to_end_noisy(tmp_path):
    config = default_config_with(tmp_path, epochs=50)
    start = time.monotonic()
    rep, hist, _, _ = synth_and_train(tmp_path, 0.1, config, "noisy")
    elapsed = time.monotonic() - start
    ok = rep["oa"] >= 0.95 and len(hist) <= 50 and elapsed < 300.0
    report(8, "end-to-end synthetic (sigma=0.1, OA >= 0.95, <=50 epochs, <5min)",
           ok, f"(oa {rep['oa']:.4f}, {len(hist)} epochs, {elapsed:.0f}s)")


def majority_mask(truth, patch_size):
    """Pixels whose own class holds a strict majority of the in-image part
    of their patch window (rows r-S/2 .. r+S/2-1, likewise for columns)."""
    h, w = truth.shape
    half = patch_size // 2
    mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            window = truth[max(r - half, 0) : r + half, max(c - half, 0) : c + half]
            mask[r, c] = 2 * np.count_nonzero(window == truth[r, c]) > window.size
    return mask


def test_criterion_8_end_to_end_noiseless(tmp_path, monkeypatch):
    import hsiduo.cli as cli
    from hsiduo.data import load_cube, load_labels
    from hsiduo.model import ModelConfig

    predictions = []
    real_predict = cli.predict_samples

    def recording_predict(model, std_array, rows, cols, patch_size):
        pred = real_predict(model, std_array, rows, cols, patch_size)
        predictions.append((rows.copy(), cols.copy(), pred.copy()))
        return pred

    monkeypatch.setattr(cli, "predict_samples", recording_predict)
    monkeypatch.setattr(cli, "_PREDICT_BATCH", 256)
    config = default_config_with(tmp_path)
    rep, hist, data, _ = synth_and_train(tmp_path, 0.0, config, "clean")
    assert len(predictions) == 1  # the test-set evaluation
    rows, cols, pred = predictions[0]

    # noiseless: each class is exactly one spectrum, so the cube gives the
    # true class of every pixel, unlabeled ones included
    values = load_cube(os.path.join(data, "cube.json")).values.as_array()
    labels = load_labels(os.path.join(data, "labels.json")).labels
    truth = np.zeros(labels.shape, dtype=np.int32)
    for cls in np.unique(labels[labels > 0]):
        spectra = np.unique(values[labels == cls], axis=0)
        assert spectra.shape[0] == 1
        truth[np.all(values == spectra[0], axis=2)] = cls
    assert np.all(truth > 0)
    assert np.array_equal(truth[rows, cols], labels[rows, cols])

    # border pixels whose in-image window has no majority class are
    # reported, not asserted: the generator's unlabeled budget cannot
    # cover all of them, and their context is evenly split
    coherent = majority_mask(truth, ModelConfig().patch_size)[rows, cols]
    correct = pred == truth[rows, cols]
    coherent_oa = float(correct[coherent].mean())
    print(f"    full-set OA {rep['oa']:.6f} over {rows.size} test pixels;"
          f" {np.count_nonzero(~coherent)} no-majority pixels excluded,"
          f" {np.count_nonzero(~correct[~coherent])} of them wrong")
    report(8, "end-to-end synthetic noiseless (OA = 1.0 on class-coherent pixels)",
           coherent_oa == 1.0,
           f"(coherent oa {coherent_oa:.6f} over {np.count_nonzero(coherent)},"
           f" full oa {rep['oa']:.6f}, {len(hist)} epochs)")


# ---------------------------------------------------------------------------
# 9. SE ablation harness


def test_criterion_9_se_ablation(tmp_path):
    from hsiduo.model import ModelConfig

    data = str(tmp_path / "data")
    assert main(["synth", "--classes", "3", "--height", "32", "--width", "32", "--bands", "16",
                 "--noise", "0.1", "--seed", "0", "--out", data]) == 0

    aggregates = {}
    for se_enabled in (True, False):
        doc = ModelConfig().to_json_dict()
        doc["se_enabled"] = se_enabled
        doc["train"]["epochs"] = 50
        config = str(tmp_path / f"config_se_{se_enabled}.json")
        json.dump(doc, open(config, "w"))
        out = str(tmp_path / f"trials_se_{se_enabled}")
        code = main(["trial", "--cube", os.path.join(data, "cube.json"),
                     "--labels", os.path.join(data, "labels.json"),
                     "--config", config, "--seed", "0", "--repeats", "5",
                     "--out", out, "--threads", "1"])
        assert code == 0
        aggregates[se_enabled] = json.load(open(os.path.join(out, "trial_report.json")))["trials"]

        # the ablation is structurally clean: no SE entries without the block
        manifest = json.load(open(os.path.join(out, "trial_00", "checkpoint.json")))
        se_layers = [e for e in manifest["layers"] if e["name"].startswith("se.")]
        other = sorted(e["name"] for e in manifest["layers"] if not e["name"].startswith("se."))
        if se_enabled:
            assert len(se_layers) == 2
            with_se_other = other
        else:
            assert se_layers == []
            assert other == with_se_other

    on, off = aggregates[True], aggregates[False]
    delta = on["oa"]["mean"] - off["oa"]["mean"]
    # the direction/magnitude is reported, not asserted
    print(
        f"    SE ablation over 5 trials: OA with SE {on['oa']['mean']:.4f}"
        f" +/- {on['oa']['std']:.4f}, without SE {off['oa']['mean']:.4f}"
        f" +/- {off['oa']['std']:.4f}, delta {delta * 100:+.2f} pp"
    )
    report(9, "SE ablation harness emits both aggregates", True, f"(delta {delta * 100:+.2f} pp)")


# ---------------------------------------------------------------------------
# 10. determinism


def hsiduo_child(*args):
    """Run `python -m hsiduo ARGS` in a fresh process, so that --threads pins
    the BLAS pools before numpy loads; returns the exit code."""
    import subprocess
    import sys

    import hsiduo

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hsiduo.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hsiduo", *args], env=env, timeout=900).returncode


def test_criterion_10_determinism(tmp_path):
    config = default_config_with(tmp_path, epochs=50)
    data = str(tmp_path / "data")
    assert main(["synth", "--classes", "3", "--height", "32", "--width", "32", "--bands", "16",
                 "--noise", "0.1", "--seed", "0", "--out", data]) == 0

    outputs = []
    for tag in ("a", "b"):
        run = str(tmp_path / f"run_{tag}")
        assert hsiduo_child("train", "--cube", os.path.join(data, "cube.json"),
                            "--labels", os.path.join(data, "labels.json"),
                            "--config", config, "--seed", "0", "--out", run, "--threads", "1") == 0
        ppm = str(tmp_path / f"map_{tag}.ppm")
        assert hsiduo_child("map", "--cube", os.path.join(data, "cube.json"),
                            "--labels", os.path.join(data, "labels.json"),
                            "--checkpoint", os.path.join(run, "checkpoint.json"),
                            "--out", ppm, "--threads", "1") == 0
        outputs.append((run, ppm))

    run_a, map_a = outputs[0]
    run_b, map_b = outputs[1]
    same = True
    for name in ("checkpoint.json", "checkpoint.bin", "report.json", "history.json"):
        same &= open(os.path.join(run_a, name), "rb").read() == open(os.path.join(run_b, name), "rb").read()
    same &= open(map_a, "rb").read() == open(map_b, "rb").read()
    report(10, "byte-identical checkpoints, reports, maps", same)


# ---------------------------------------------------------------------------
# 11. optional: Pavia University


@pytest.mark.skipif(
    "HSIDUO_PU_CUBE" not in os.environ or "HSIDUO_PU_LABELS" not in os.environ,
    reason="optional criterion: set HSIDUO_PU_CUBE/HSIDUO_PU_LABELS to converted Pavia files",
)
def test_criterion_11_pavia_university(tmp_path):
    run = str(tmp_path / "pavia")
    start = time.monotonic()
    code = main(["train", "--cube", os.environ["HSIDUO_PU_CUBE"],
                 "--labels", os.environ["HSIDUO_PU_LABELS"],
                 "--seed", "0", "--out", run, "--threads", "1"])
    assert code == 0
    rep = json.load(open(os.path.join(run, "report.json")))
    elapsed = time.monotonic() - start
    report(11, "Pavia University single trial OA >= 0.90",
           rep["oa"] >= 0.90 and elapsed < 7200, f"(oa {rep['oa']:.4f}, {elapsed:.0f}s)")
