"""The benchmark under perfbench/ drives the program through its module
attributes and public functions. These child processes, run from the repo
root as the benchmark runs, fail when a rename or a signature change
breaks it."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_from_root(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_benchmark_selftest_passes():
    proc = run_from_root(os.path.join("perfbench", "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_spans_install():
    code = (
        "import sys, time\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "from spans import Tracer\n"
        "Tracer(time.monotonic).install()\n"
    )
    proc = run_from_root("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_counters_read_a_traced_fit():
    # the FLOP counters read the complex conv's argument and check_fit reads
    # param_entries; two epochs, because check_fit wants the loss to fall
    code = (
        "import sys, time\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "import numpy as np\n"
        "import checks\n"
        "from spans import Tracer\n"
        "tracer = Tracer(time.monotonic)\n"
        "tracer.install()\n"
        "from hsiduo import model, train\n"
        "conv = [model.ConvLayerSpec((3, 3, 3), 2)]\n"
        "cfg = model.ModelConfig(pca_components=4, patch_size=8, real_convs=conv, complex_convs=conv,\n"
        "                        se_ratio=2, dense_widths=[4], dropout_rate=0.2)\n"
        "rng = np.random.default_rng(0)\n"
        "labels = 1 + np.arange(8) % 2\n"
        "xr = rng.normal(0.0, 0.2, size=(8, 8, 8, 4)) + 3.0 * (labels - 1.5)[:, None, None, None]\n"
        "patches = train.PatchSet(xr, labels)\n"
        "net = model.DualStreamModel.build(cfg, 2, rng)\n"
        "start = time.monotonic()\n"
        "net, history = train.fit(net, patches, patches,\n"
        "                         train.TrainConfig(epochs=2, patience=2, batch_size=4, lr=1e-2))\n"
        "metrics = tracer.layer_metrics(start, time.monotonic() - start)\n"
        "errors = checks.check_fit(history, net.param_entries(), 2)\n"
        "assert metrics['layers.conv_fwd_gflop'] > 0, metrics\n"
        "assert metrics['layers.conv_bwd_gflop'] > 0, metrics\n"
        "assert not errors, errors\n"
    )
    proc = run_from_root("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_counts_prediction_in_the_traced_forward():
    # prediction runs through DualStreamModel.forward_batch, the one forward
    # that perfbench traces, so its per-layer figures cover the map workload
    code = (
        "import sys, time\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "import numpy as np\n"
        "from spans import Tracer\n"
        "tracer = Tracer(time.monotonic)\n"
        "tracer.install()\n"
        "from hsiduo import cli, model, train\n"
        "conv = [model.ConvLayerSpec((3, 3, 3), 2)]\n"
        "cfg = model.ModelConfig(pca_components=4, patch_size=8, real_convs=conv, complex_convs=conv,\n"
        "                        se_ratio=2, dense_widths=[4])\n"
        "net = model.DualStreamModel.build(cfg, 3, np.random.default_rng(0))\n"
        "std = np.random.default_rng(1).normal(size=(12, 10, 4))\n"
        "rows, cols = np.divmod(np.arange(0, 120, 2), 10)\n"
        "start = time.monotonic()\n"
        "train.INFER_BATCH = 16\n"
        "pred = cli.predict_samples(net, std, rows, cols, 8)\n"
        "metrics = tracer.layer_metrics(start, time.monotonic() - start)\n"
        "assert pred.shape == (60,), pred.shape\n"
        "assert metrics['model.forward_px'] == 60, metrics\n"
        "assert metrics['layers.conv_fwd_gflop'] > 0, metrics\n"
    )
    proc = run_from_root("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_pca_check_reads_a_loaded_cube():
    # map_pu's correctness check, as worker._pca_errors runs it, on the
    # cube that load_cube streams from its payload rather than holds
    code = (
        "import os, sys, tempfile, time\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "import numpy as np\n"
        "import checks\n"
        "from spans import Tracer\n"
        "tracer = Tracer(time.monotonic)\n"
        "tracer.install()\n"
        "from hsiduo import data\n"
        "from hsiduo.tensor import Tensor\n"
        "h, w, b = 40, 30, 24\n"
        "rng = np.random.default_rng(4)\n"
        "vals = (rng.normal(size=(h, w, b)) * np.geomspace(2.0, 0.05, b) + 1.0).astype(np.float32)\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    path = os.path.join(tmp, 'cube.json')\n"
        "    data.save_cube(data.HsiCube(Tensor.from_array(vals)), path)\n"
        "    cube = data.load_cube(path)\n"
        "    pca, reduced = data.fit_pca(cube, 16)\n"
        "    errors = checks.check_pca(checks.read_cube(path).reshape(-1, b), pca.components,\n"
        "                              pca.explained_variance, reduced.as_array())\n"
        "assert not errors, errors\n"
        "names = {span[0] for span in tracer.spans}\n"
        "assert {'data.load', 'data.fit_pca', 'data.jacobi_eigh'} <= names, names\n"
    )
    proc = run_from_root("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
