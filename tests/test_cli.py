import json
import os

import numpy as np
import pytest

from hsiduo.__main__ import main


def read(path):
    return open(path, "rb").read()


def small_config_doc(epochs=3, seed=0):
    return {
        "pca_components": 8,
        "patch_size": 8,
        "real_convs": [
            {"kernel": [3, 3, 8], "channels": 4},
            {"kernel": [3, 3, 1], "channels": 4},
            {"kernel": [4, 4, 1], "channels": 8},
        ],
        "complex_convs": [
            {"kernel": [3, 3, 8], "channels": 4},
            {"kernel": [3, 3, 1], "channels": 4},
            {"kernel": [4, 4, 1], "channels": 8},
        ],
        "se_ratio": 4,
        "se_enabled": True,
        "dense_widths": [8],
        "dropout_rate": 0.2,
        "train": {
            "epochs": epochs,
            "batch_size": 16,
            "patience": epochs,
            "lr": 0.001,
            "seed": seed,
        },
    }


@pytest.fixture()
def dataset(tmp_path):
    out = str(tmp_path / "data")
    code = main(
        ["synth", "--classes", "3", "--height", "16", "--width", "16", "--bands", "8",
         "--noise", "0.05", "--seed", "5", "--out", out]
    )
    assert code == 0
    return out


def write_config(tmp_path, doc):
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_emit_default_config_is_valid_json(capsys):
    assert main(["--emit-default-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    from hsiduo.model import ModelConfig

    cfg = ModelConfig.from_json_dict(doc)
    cfg.validate()
    assert doc == cfg.to_json_dict()


def test_synth_is_byte_deterministic(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        assert main(["synth", "--seed", "1", "--out", out]) == 0
    for name in ("cube.json", "cube.raw", "labels.json", "labels.raw"):
        assert read(os.path.join(a, name)) == read(os.path.join(b, name))


def test_synth_rejects_single_class(tmp_path, capsys):
    code = main(["synth", "--classes", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--bands", "0"), ("--height", "0"), ("--width", "-3"),
    ("--noise", "-0.1"), ("--noise", "nan"), ("--noise", "inf"), ("--seed", "-1"),
])
def test_synth_rejects_bad_scene_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    assert main(["synth", flag, value, "--out", str(out)]) == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not out.exists()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads=-4"]], ids=["flag-0", "flag=-4"])
def test_bad_thread_count_exits_2_and_sets_nothing(tmp_path, capsys, monkeypatch, flags):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "x"
    assert main(["synth", *flags, "--out", str(out)]) == 2
    assert "argument --threads: must be >= 1" in capsys.readouterr().err
    assert not any(var in os.environ for var in THREAD_VARS)
    assert not out.exists()


def test_thread_count_sets_every_pool_variable(tmp_path, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")  # registered, so teardown restores each
    assert main(["synth", "--height", "8", "--width", "8", "--bands", "4", "--threads", "2",
                 "--out", str(tmp_path / "x")]) == 0
    assert [os.environ.get(var) for var in THREAD_VARS] == ["2", "2", "2"]


def test_entry_point_pins_the_pools_before_numpy_loads(tmp_path):
    """In a fresh interpreter, importing hsiduo.__main__ loads no numpy, and
    `--threads 1` has set OPENBLAS_NUM_THREADS (preset to 2) when numpy's
    first import reads it."""
    import subprocess
    import sys

    script = (
        "import os, sys\n"
        "sys.path.insert(0, 'src')\n"
        "from hsiduo.__main__ import main\n"
        "assert 'numpy' not in sys.modules, 'importing hsiduo.__main__ loaded numpy'\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "print(main(sys.argv[1:]), *seen)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = ["synth", "--height", "8", "--width", "8", "--bands", "4", "--threads", "1", "--out", str(tmp_path / "x")]
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="2"), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_console_script_runs_the_module_entry_point():
    """pyproject's `hsiduo` script resolves to the main that `python -m
    hsiduo` runs; no test installs the package, so nothing else would see
    a stale target."""
    import importlib

    import hsiduo.__main__

    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        module, _, attr = tomllib.load(fh)["project"]["scripts"]["hsiduo"].partition(":")
    assert getattr(importlib.import_module(module), attr) is hsiduo.__main__.main


def test_synth_output_loads_back(dataset):
    from hsiduo.data import load_cube, load_labels

    cube = load_cube(os.path.join(dataset, "cube.json"))
    labels = load_labels(os.path.join(dataset, "labels.json"))
    assert (cube.height, cube.width, cube.bands) == (16, 16, 8)
    assert labels.n_classes == 3


def test_train_missing_cube_exits_2(tmp_path, capsys):
    code = main(
        ["train", "--cube", str(tmp_path / "nope.json"), "--labels", str(tmp_path / "nope2.json"),
         "--out", str(tmp_path / "run")]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_train_invalid_config_names_field(tmp_path, dataset, capsys):
    doc = small_config_doc()
    doc["se_ratio"] = 7
    config = write_config(tmp_path, doc)
    code = main(
        ["train", "--cube", os.path.join(dataset, "cube.json"),
         "--labels", os.path.join(dataset, "labels.json"),
         "--config", config, "--out", str(tmp_path / "run")]
    )
    assert code == 2
    assert "se_ratio" in capsys.readouterr().err


def test_train_writes_outputs_and_is_deterministic(tmp_path, dataset):
    config = write_config(tmp_path, small_config_doc())
    args = ["train", "--cube", os.path.join(dataset, "cube.json"),
            "--labels", os.path.join(dataset, "labels.json"),
            "--config", config, "--seed", "3"]
    run1, run2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(args + ["--out", run1]) == 0
    assert main(args + ["--out", run2]) == 0
    for name in ("checkpoint.json", "checkpoint.bin", "history.json", "report.json"):
        assert read(os.path.join(run1, name)) == read(os.path.join(run2, name))

    report = json.load(open(os.path.join(run1, "report.json")))
    assert set(report) >= {"classes", "confusion", "per_class", "oa", "aa", "kappa"}
    assert report["classes"] == ["class_1", "class_2", "class_3"]
    history = json.load(open(os.path.join(run1, "history.json")))
    assert all(set(h) == {"epoch", "train_loss", "val_loss", "val_oa"} for h in history)
    manifest = json.load(open(os.path.join(run1, "run_manifest.json")))
    assert manifest["seed"] == 3 and "config_hash" in manifest
    assert manifest["command"] == "train"
    assert manifest["inputs"] == {"cube": os.path.abspath(os.path.join(dataset, "cube.json")),
                                  "labels": os.path.abspath(os.path.join(dataset, "labels.json"))}
    assert manifest["outputs"] == {"checkpoint": "checkpoint.json", "history": "history.json",
                                   "report": "report.json"}


def test_trial_single_repeat_matches_train(tmp_path, dataset):
    config = write_config(tmp_path, small_config_doc())
    base = ["--cube", os.path.join(dataset, "cube.json"),
            "--labels", os.path.join(dataset, "labels.json"),
            "--config", config, "--seed", "4"]
    train_out = str(tmp_path / "train")
    trial_out = str(tmp_path / "trial")
    assert main(["train"] + base + ["--out", train_out]) == 0
    assert main(["trial"] + base + ["--repeats", "1", "--out", trial_out]) == 0
    train_report = json.load(open(os.path.join(train_out, "report.json")))
    agg = json.load(open(os.path.join(trial_out, "trial_report.json")))
    assert agg["trials"]["n"] == 1
    assert agg["trials"]["oa"]["mean"] == train_report["oa"]
    assert agg["trials"]["oa"]["std"] == 0.0
    assert agg["per_trial"][0]["kappa"] == train_report["kappa"]
    # the aggregate document is a full report for the best trial
    assert agg["oa"] == train_report["oa"]
    assert agg["confusion"] == train_report["confusion"]
    assert set(agg) >= {"classes", "confusion", "per_class", "oa", "aa", "kappa", "trials"}


def test_trial_aggregate_cross_checks_per_trial_reports(tmp_path, dataset, monkeypatch):
    config = write_config(tmp_path, small_config_doc())
    out = str(tmp_path / "trials")
    monkeypatch.chdir(dataset)  # relative inputs, which the manifest records as absolute paths
    assert main(
        ["trial", "--cube", "cube.json", "--labels", "labels.json",
         "--config", config, "--seed", "7", "--repeats", "3", "--out", out]
    ) == 0
    agg = json.load(open(os.path.join(out, "trial_report.json")))
    oas = []
    for i in range(3):
        rep = json.load(open(os.path.join(out, f"trial_{i:02d}", "report.json")))
        assert rep["seed"] == 7 + i
        oas.append(rep["oa"])
    assert abs(agg["trials"]["oa"]["mean"] - sum(oas) / 3) < 1e-12
    assert agg["trials"]["oa"]["best"] == max(oas)
    manifest = json.load(open(os.path.join(out, "run_manifest.json")))
    assert manifest["per_trial_seeds"] == [7, 8, 9]
    assert manifest["command"] == "trial" and manifest["seed"] == 7 and manifest["repeats"] == 3
    assert manifest["inputs"] == {"cube": os.path.join(os.getcwd(), "cube.json"),
                                  "labels": os.path.join(os.getcwd(), "labels.json")}
    assert manifest["outputs"] == {"trial_report": "trial_report.json"}


def test_trial_whose_first_run_fails_leaves_no_output(tmp_path, dataset, monkeypatch, capsys):
    import hsiduo.cli as cli_module
    from hsiduo.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("non-finite loss; first bad layer: dense0")

    monkeypatch.setattr(cli_module, "run_training", boom)
    out = tmp_path / "trials"
    assert main(["trial", "--cube", os.path.join(dataset, "cube.json"),
                 "--labels", os.path.join(dataset, "labels.json"), "--out", str(out)]) == 3
    assert "dense0" in capsys.readouterr().err
    assert not out.exists()


def test_trial_with_no_repeats_exits_2_and_writes_nothing(tmp_path, dataset, capsys):
    out = tmp_path / "trials"
    assert main(["trial", "--cube", os.path.join(dataset, "cube.json"), "--labels", os.path.join(dataset, "labels.json"),
                 "--repeats", "0", "--out", str(out)]) == 2
    assert "argument --repeats: must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_every_json_file_is_in_the_one_layout(tmp_path, dataset, capsys):
    """synth, train, trial and --emit-default-config all write sorted keys,
    indent 1 and a final newline."""
    config = write_config(tmp_path, small_config_doc(epochs=1))
    base = ["--cube", os.path.join(dataset, "cube.json"), "--labels", os.path.join(dataset, "labels.json"),
            "--config", config]
    assert main(["train", *base, "--out", str(tmp_path / "train")]) == 0
    assert main(["trial", *base, "--repeats", "2", "--out", str(tmp_path / "trial")]) == 0
    capsys.readouterr()
    assert main(["--emit-default-config"]) == 0
    texts = {"--emit-default-config": capsys.readouterr().out}
    for top in ("data", "train", "trial"):
        for root, _, names in os.walk(tmp_path / top):
            for name in names:
                if name.endswith(".json"):
                    path = os.path.join(root, name)
                    texts[os.path.relpath(path, tmp_path)] = open(path, encoding="utf-8").read()
    run = {"checkpoint.json", "history.json", "report.json"}
    assert set(texts) == {
        "--emit-default-config",
        *(os.path.join("data", n) for n in ("cube.json", "labels.json", "synth_manifest.json")),
        *(os.path.join("train", n) for n in run | {"run_manifest.json"}),
        *(os.path.join("trial", n) for n in ("trial_report.json", "run_manifest.json")),
        *(os.path.join("trial", t, n) for t in ("trial_00", "trial_01") for n in run),
    }
    for name, text in texts.items():
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n", name


def test_map_header_and_all_background(tmp_path, dataset):
    from hsiduo.data import LabelMap, save_labels

    config = write_config(tmp_path, small_config_doc())
    run = str(tmp_path / "run")
    assert main(
        ["train", "--cube", os.path.join(dataset, "cube.json"),
         "--labels", os.path.join(dataset, "labels.json"),
         "--config", config, "--seed", "1", "--out", run]
    ) == 0

    blank = str(tmp_path / "blank.json")
    save_labels(LabelMap(np.zeros((16, 16), dtype=int)), blank)
    ppm = str(tmp_path / "map.ppm")
    assert main(
        ["map", "--cube", os.path.join(dataset, "cube.json"), "--labels", blank,
         "--checkpoint", os.path.join(run, "checkpoint.json"), "--out", ppm]
    ) == 0
    data = read(ppm)
    assert data.startswith(b"P6\n16 16\n255\n")
    body = data[len(b"P6\n16 16\n255\n"):]
    assert len(body) == 16 * 16 * 3
    assert body == b"\x00" * len(body)

    # with labels, the labeled pixels get palette colors
    colored = str(tmp_path / "map2.ppm")
    assert main(
        ["map", "--cube", os.path.join(dataset, "cube.json"),
         "--labels", os.path.join(dataset, "labels.json"),
         "--checkpoint", os.path.join(run, "checkpoint.json"), "--out", colored]
    ) == 0
    body2 = read(colored)[len(b"P6\n16 16\n255\n"):]
    assert body2 != b"\x00" * len(body2)

    # --full predicts every pixel: no black left
    full = str(tmp_path / "map3.ppm")
    assert main(
        ["map", "--cube", os.path.join(dataset, "cube.json"),
         "--labels", os.path.join(dataset, "labels.json"),
         "--checkpoint", os.path.join(run, "checkpoint.json"), "--out", full, "--full"]
    ) == 0
    body3 = read(full)[len(b"P6\n16 16\n255\n"):]
    pixels = np.frombuffer(body3, dtype=np.uint8).reshape(-1, 3)
    assert not np.any(np.all(pixels == 0, axis=1))


def test_report_is_what_map_of_the_checkpoint_predicts(tmp_path, dataset, monkeypatch):
    # train's test-set prediction, the one its report counts, runs on the
    # float32 weights the checkpoint stores, so map paints the same classes
    from hsiduo import cli

    seen = []
    real_predict = cli.predict_samples

    def recording_predict(model, std_array, rows, cols, patch_size):
        pred = real_predict(model, std_array, rows, cols, patch_size)
        seen.append((rows.copy(), cols.copy(), pred.copy()))
        return pred

    monkeypatch.setattr(cli, "predict_samples", recording_predict)
    scene = ["--cube", os.path.join(dataset, "cube.json"), "--labels", os.path.join(dataset, "labels.json")]
    run = tmp_path / "run"
    assert main(["train", *scene, "--config", write_config(tmp_path, small_config_doc()), "--out", str(run)]) == 0
    (rows, cols, pred), = seen
    ppm = tmp_path / "map.ppm"
    assert main(["map", *scene, "--checkpoint", str(run / "checkpoint.json"), "--out", str(ppm)]) == 0
    rgb = np.frombuffer(read(ppm)[len(b"P6\n16 16\n255\n"):], dtype=np.uint8).reshape(16, 16, 3)
    assert np.array_equal(rgb[rows, cols], cli.class_colors(pred))


def test_map_checkpoint_config_mismatch_exits_2(tmp_path, dataset, capsys):
    config = write_config(tmp_path, small_config_doc())
    run = str(tmp_path / "run")
    assert main(
        ["train", "--cube", os.path.join(dataset, "cube.json"),
         "--labels", os.path.join(dataset, "labels.json"),
         "--config", config, "--seed", "1", "--out", run]
    ) == 0
    manifest_path = os.path.join(run, "checkpoint.json")
    manifest = json.load(open(manifest_path))
    manifest["config"]["real_convs"][0]["channels"] = 16
    json.dump(manifest, open(manifest_path, "w"))
    code = main(
        ["map", "--cube", os.path.join(dataset, "cube.json"),
         "--labels", os.path.join(dataset, "labels.json"),
         "--checkpoint", manifest_path, "--out", str(tmp_path / "m.ppm")]
    )
    assert code == 2


def test_numeric_error_maps_to_exit_3(tmp_path, dataset, monkeypatch, capsys):
    import hsiduo.cli as cli_module
    from hsiduo.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("non-finite loss; first bad layer: dense0")

    monkeypatch.setattr(cli_module, "run_training", boom)
    code = main(
        ["train", "--cube", os.path.join(dataset, "cube.json"),
         "--labels", os.path.join(dataset, "labels.json"),
         "--out", str(tmp_path / "run")]
    )
    assert code == 3
    assert "dense0" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "hsiduo" in capsys.readouterr().out


def test_unknown_flag_exits_2(capsys):
    assert main(["synth", "--bogus", "1", "--out", "x"]) == 2


def untrained_checkpoint(tmp_path, n_classes=3):
    """A small model's checkpoint, saved without training."""
    from hsiduo.model import DualStreamModel, ModelConfig, save_checkpoint

    net = DualStreamModel.build(ModelConfig.from_json_dict(small_config_doc()), n_classes,
                                rng=np.random.default_rng(0))
    path = str(tmp_path / "ckpt" / "checkpoint.json")
    os.makedirs(os.path.dirname(path))
    save_checkpoint(net, path)
    return path


def break_manifest_json(ckpt, dataset, doc):
    open(ckpt, "w").write('{"format": "hsiduo-checkpoint-v1", ')
    return "map", "checkpoint manifest"


def break_layer_offset(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    payload = os.path.getsize(os.path.join(os.path.dirname(ckpt), manifest["params_file"]))
    manifest["layers"][-1]["offset"] = payload - 4  # head.bias holds 3 floats
    json.dump(manifest, open(ckpt, "w"))
    return "map", "head.bias"


def break_manifest_not_object(ckpt, dataset, doc):
    open(ckpt, "w").write("[]")
    return "map", "checkpoint.json: expected an object, got []"


def break_manifest_no_config(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    del manifest["config"]
    json.dump(manifest, open(ckpt, "w"))
    return "map", "config: expected an object, got nothing"


def break_layer_no_shape(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    del manifest["layers"][0]["shape"]
    json.dump(manifest, open(ckpt, "w"))
    return "map", "layers[0].shape"


def break_cube_data_entry(ckpt, dataset, doc):
    path = os.path.join(dataset, "cube.json")
    header = json.load(open(path))
    header["data"] = [header["data"]]
    json.dump(header, open(path, "w"))
    return "train", "data: expected a string"


def break_labels_data_entry(ckpt, dataset, doc):
    path = os.path.join(dataset, "labels.json")
    header = json.load(open(path))
    header["data"] = {"file": header["data"]}
    json.dump(header, open(path, "w"))
    return "map", "data: expected a string"


def break_config_pca_text(ckpt, dataset, doc):
    doc["pca_components"] = "abc"
    return "train", "pca_components"


def break_config_pca_fraction(ckpt, dataset, doc):
    doc["pca_components"] = 2.7
    return "train", "pca_components"


def break_config_dense_scalar(ckpt, dataset, doc):
    doc["dense_widths"] = 5
    return "train", "dense_widths"


def break_config_se_text(ckpt, dataset, doc):
    doc["se_enabled"] = "false"
    return "train", "se_enabled"


def break_config_kernel_fraction(ckpt, dataset, doc):
    doc["real_convs"][0]["kernel"] = [3, 3, 8.5]
    return "train", "real_convs[0].kernel[2]"


def break_config_lr_text(ckpt, dataset, doc):
    doc["train"]["lr"] = "fast"
    return "train", "train.lr"


def break_config_epochs_bool(ckpt, dataset, doc):
    doc["train"]["epochs"] = True
    return "train", "train.epochs"


def set_header_field(dataset, name, key, value):
    path = os.path.join(dataset, name)
    header = json.load(open(path))
    header[key] = value
    json.dump(header, open(path, "w"))


def break_cube_height_negative(ckpt, dataset, doc):
    set_header_field(dataset, "cube.json", "height", -32)
    return "train", "cube.json: height: must be >= 1"


def break_cube_width_fraction(ckpt, dataset, doc):
    set_header_field(dataset, "cube.json", "width", 32.7)
    return "train", "cube.json: width: expected an integer"


def break_cube_bands_text(ckpt, dataset, doc):
    set_header_field(dataset, "cube.json", "bands", "32")
    return "map", "cube.json: bands: expected an integer"


def break_labels_classes_scalar(ckpt, dataset, doc):
    set_header_field(dataset, "labels.json", "classes", 5)
    return "train", "labels.json: classes: expected a list"


def break_labels_classes_text(ckpt, dataset, doc):
    set_header_field(dataset, "labels.json", "classes", "abc")
    return "map", "labels.json: classes: expected a list"


def break_labels_classes_short(ckpt, dataset, doc):
    set_header_field(dataset, "labels.json", "classes", ["a"])  # the labels reach 3
    return "train", "labels.json: classes: names 1 classes, the labels reach 3"


def break_config_seed_negative(ckpt, dataset, doc):
    doc["train"]["seed"] = -1
    return "train", "train.seed: must be >= 0"


def break_config_lr_infinite(ckpt, dataset, doc):
    doc["train"]["lr"] = float("inf")  # written as Infinity; a JSON 1e400 reads the same
    return "train", "train.lr: expected a finite number"


def break_config_dropout_nan(ckpt, dataset, doc):
    doc["dropout_rate"] = float("nan")
    return "train", "dropout_rate: expected a finite number"


def break_config_conv_unknown_key(ckpt, dataset, doc):
    doc["real_convs"][0]["stride"] = 2
    return "train", "real_convs[0].stride: unknown config field"


def break_config_epochs_text(ckpt, dataset, doc):
    doc["train"]["epochs"] = "x"
    return "train", "config.json: train.epochs: expected an integer, got 'x'"


def break_config_kernel_geometry(ckpt, dataset, doc):
    doc["complex_convs"][0]["kernel"] = [9, 3, 8]  # the patch is 8 wide
    return "train", "config.json: complex_convs[0]: valid padding exhausts the input"


def break_manifest_config_type(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    manifest["config"]["dense_widths"] = 5
    json.dump(manifest, open(ckpt, "w"))
    return "map", f"checkpoint manifest {ckpt}: config.dense_widths"


def break_manifest_config_geometry(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    manifest["config"]["complex_convs"][0]["kernel"] = [9, 3, 8]  # the patch is 8 wide
    json.dump(manifest, open(ckpt, "w"))
    return "map", f"checkpoint manifest {ckpt}: config.complex_convs[0]: valid padding exhausts the input"


def break_config_channels_unallocatable(ckpt, dataset, doc):
    doc["real_convs"][2]["channels"] = 2**62  # more float32 parameters than numpy allocates
    return "train", "config.json: real_convs[2]: takes the model past"


def break_manifest_channels_unallocatable(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    manifest["config"]["real_convs"][2]["channels"] = 2**62
    json.dump(manifest, open(ckpt, "w"))
    return "map", f"checkpoint manifest {ckpt}: config.real_convs[2]: takes the model past"


def break_synth_size_unallocatable(ckpt, dataset, doc):
    side = str(2**40)  # a 2**80-pixel scene, more than numpy allocates
    return f"synth --height {side} --width {side}", f"--height {side} --width {side} --bands 16: a cube larger"


def break_manifest_classes_unallocatable(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    manifest["n_classes"] = 2**62  # a head with more float32 weights than numpy allocates
    json.dump(manifest, open(ckpt, "w"))
    return "map", f"checkpoint manifest {ckpt}: n_classes: takes the model past"


def break_cube_fewer_bands_than_components(ckpt, dataset, doc):
    cube = os.path.join(dataset, "cube.json")  # the checkpoint reduces to 8 components
    assert main(["synth", "--classes", "3", "--height", "16", "--width", "16", "--bands", "4", "--out", dataset]) == 0
    return "map", (f"checkpoint manifest {ckpt}: config.pca_components: 8 components, "
                   f"more than the 4 bands of header {cube}")


def break_manifest_one_class(ckpt, dataset, doc):
    manifest = json.load(open(ckpt))
    manifest["n_classes"] = 1
    json.dump(manifest, open(ckpt, "w"))
    return "map", f"checkpoint manifest {ckpt}: n_classes: need >= 2 classes, got 1"


@pytest.mark.parametrize(
    "corrupt",
    [break_manifest_json, break_manifest_not_object, break_manifest_no_config, break_layer_no_shape,
     break_layer_offset, break_cube_data_entry, break_labels_data_entry,
     break_config_pca_text, break_config_pca_fraction, break_config_dense_scalar, break_config_se_text,
     break_config_kernel_fraction, break_config_lr_text, break_config_epochs_bool,
     break_config_epochs_text, break_config_kernel_geometry, break_manifest_config_type,
     break_manifest_config_geometry, break_config_channels_unallocatable,
     break_manifest_channels_unallocatable, break_synth_size_unallocatable,
     break_manifest_classes_unallocatable, break_manifest_one_class, break_cube_height_negative, break_cube_width_fraction,
     break_cube_bands_text, break_labels_classes_scalar, break_labels_classes_text, break_labels_classes_short,
     break_config_seed_negative, break_config_lr_infinite, break_config_dropout_nan,
     break_config_conv_unknown_key, break_cube_fewer_bands_than_components],
)
def test_malformed_input_exits_2_and_names_field(tmp_path, dataset, capsys, corrupt):
    ckpt = untrained_checkpoint(tmp_path)
    doc = small_config_doc(epochs=1)
    command, field = corrupt(ckpt, dataset, doc)
    inputs = ["--cube", os.path.join(dataset, "cube.json"), "--labels", os.path.join(dataset, "labels.json")]
    if command == "map":
        args = ["map", *inputs, "--checkpoint", ckpt, "--out", str(tmp_path / "m.ppm")]
    elif command == "train":
        config = write_config(tmp_path, doc)
        args = ["train", *inputs, "--config", config, "--out", str(tmp_path / "run")]
    else:  # a synth command line
        args = [*command.split(), "--out", str(tmp_path / "synth")]
    assert main(args) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("top, found", [("[]", "[]"), ("5", "5"), ('"fast"', "'fast'")])
def test_config_that_is_not_an_object_names_the_file(tmp_path, dataset, capsys, top, found):
    config = tmp_path / "c.json"
    config.write_text(top)
    args = ["train", "--cube", os.path.join(dataset, "cube.json"), "--labels", os.path.join(dataset, "labels.json"),
            "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(args) == 2
    assert f"config {config}: expected an object, got {found}" in capsys.readouterr().err


# JSON that Python's parser cannot take: a first byte that is not UTF-8,
# and nesting deeper than its recursion limit
UNREADABLE_JSON = {"not-utf8": b'\xff{"height": 16}', "too-deep": b"[" * 100_000 + b"]" * 100_000}


@pytest.mark.parametrize("flaw", sorted(UNREADABLE_JSON))
@pytest.mark.parametrize("kind", ["header", "config", "checkpoint manifest"])
def test_unreadable_json_input_exits_2_and_names_the_file(tmp_path, dataset, capsys, kind, flaw):
    inputs = ["--cube", os.path.join(dataset, "cube.json"), "--labels", os.path.join(dataset, "labels.json")]
    config = write_config(tmp_path, small_config_doc(epochs=1))
    if kind == "checkpoint manifest":
        bad = untrained_checkpoint(tmp_path)
        args = ["map", *inputs, "--checkpoint", bad, "--out", str(tmp_path / "m.ppm")]
    else:
        bad = inputs[1] if kind == "header" else config
        args = ["train", *inputs, "--config", config, "--out", str(tmp_path / "run")]
    with open(bad, "wb") as fh:
        fh.write(UNREADABLE_JSON[flaw])
    assert main(args) == 2
    assert f"malformed {kind} {bad}: " in capsys.readouterr().err


def test_checkpoint_with_a_nan_weight_exits_2_and_names_it(tmp_path, dataset, capsys):
    # a NaN in head.bias alone: without the check every pixel took class 1
    ckpt = untrained_checkpoint(tmp_path)
    manifest = json.load(open(ckpt))
    entry = next(e for e in manifest["layers"] if e["name"] == "head.bias")
    payload = os.path.join(os.path.dirname(ckpt), manifest["params_file"])
    with open(payload, "r+b") as fh:
        fh.seek(entry["offset"] + 4)
        fh.write(np.float32(np.nan).tobytes())
    out = tmp_path / "m.ppm"
    assert main(["map", "--cube", os.path.join(dataset, "cube.json"), "--labels",
                 os.path.join(dataset, "labels.json"), "--checkpoint", ckpt, "--out", str(out)]) == 2
    assert f"checkpoint payload {payload}: head.bias holds a NaN or an infinity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_loss_exits_3_and_names_its_inputs_and_step(tmp_path, capsys):
    # the desk scene at the default config with lr 1e30: epoch 1's one
    # Adam step moves every weight by about 1e30, so the next forward
    # overflows float32 in the first layer
    from hsiduo.model import ModelConfig

    assert main(["synth", "--out", str(tmp_path / "desk")]) == 0
    doc = ModelConfig().to_json_dict()
    doc["train"]["lr"] = 1e30
    config = write_config(tmp_path, doc)
    cube = str(tmp_path / "desk" / "cube.json")
    scene = ["--cube", cube, "--labels", str(tmp_path / "desk" / "labels.json"), "--config", config]
    for command in (["train"], ["trial", "--repeats", "2"]):
        assert main([*command, *scene, "--out", str(tmp_path / command[0])]) == 3
        assert (f"numeric error: config {config}, header {cube}: epoch 2 step 1: non-finite loss; "
                "first bad layer: real_conv1") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "trial"])
def test_negative_seed_override_exits_2_and_names_field(tmp_path, dataset, capsys, command):
    args = [command, "--cube", os.path.join(dataset, "cube.json"),
            "--labels", os.path.join(dataset, "labels.json"),
            "--config", write_config(tmp_path, small_config_doc(epochs=1)),
            "--seed", "-1", "--out", str(tmp_path / "run")]
    assert main(args) == 2
    assert "train.seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")  # rejected before any output


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_checkpoint_with_legacy_precision_maps_identically(tmp_path, dataset, precision):
    # manifests written while train.precision existed carry it in their
    # config; they load, and map paints the same bytes
    ckpt = untrained_checkpoint(tmp_path)
    inputs = ["--cube", os.path.join(dataset, "cube.json"), "--labels", os.path.join(dataset, "labels.json")]
    plain, legacy = str(tmp_path / "plain.ppm"), str(tmp_path / "legacy.ppm")
    assert main(["map", *inputs, "--checkpoint", ckpt, "--out", plain]) == 0
    manifest = json.load(open(ckpt))
    manifest["config"]["train"]["precision"] = precision
    json.dump(manifest, open(ckpt, "w"))
    assert main(["map", *inputs, "--checkpoint", ckpt, "--out", legacy]) == 0
    assert read(legacy) == read(plain)


def test_label_map_must_match_cube(tmp_path, dataset, capsys):
    from hsiduo.data import LabelMap, save_labels

    labels = np.zeros((24, 20), dtype=int)
    labels[:8], labels[8:16], labels[16:] = 1, 2, 3
    path = str(tmp_path / "big_labels.json")
    save_labels(LabelMap(labels), path)
    cube = os.path.join(dataset, "cube.json")
    config = write_config(tmp_path, small_config_doc(epochs=1))
    runs = [
        ["train", "--cube", cube, "--labels", path, "--config", config, "--out", str(tmp_path / "run")],
        ["map", "--cube", cube, "--labels", path, "--checkpoint", untrained_checkpoint(tmp_path),
         "--out", str(tmp_path / "m.ppm")],
    ]
    for args in runs:
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "labels" in err and "24x20" in err and "16x16" in err
    assert not os.path.exists(tmp_path / "run") and not os.path.exists(tmp_path / "m.ppm")


@pytest.mark.parametrize("command", ["train", "map"])
def test_non_finite_cube_exits_2_and_names_header_and_band(tmp_path, dataset, capsys, command):
    header = os.path.join(dataset, "cube.json")
    payload = np.fromfile(os.path.join(dataset, "cube.raw"), dtype="<f4").reshape(8, 16, 16)
    payload[5, 3, 11] = np.nan  # band 5 of the BSQ payload; band 6 after it
    payload[6, 0, 0] = np.inf
    payload.tofile(os.path.join(dataset, "cube.raw"))
    inputs = ["--cube", header, "--labels", os.path.join(dataset, "labels.json")]
    if command == "map":
        args = ["map", *inputs, "--checkpoint", untrained_checkpoint(tmp_path), "--out", str(tmp_path / "m.ppm")]
    else:
        args = ["train", *inputs, "--config", write_config(tmp_path, small_config_doc(epochs=1)),
                "--out", str(tmp_path / "run")]
    assert main(args) == 2
    assert f"{header}: band 5 (counting from 0) of the cube holds a non-finite value" in capsys.readouterr().err


def forbid_loading(monkeypatch):
    """Make loading a cube or a checkpoint fail the test."""
    import hsiduo.data as data
    import hsiduo.model as model

    def loaded(*args, **kwargs):
        raise AssertionError("an input was loaded before --out was checked")

    monkeypatch.setattr(data, "load_cube", loaded)
    monkeypatch.setattr(model, "load_checkpoint", loaded)


def test_train_out_under_a_file_exits_2_before_any_work(tmp_path, dataset, monkeypatch, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    before = sorted(os.listdir(tmp_path))
    forbid_loading(monkeypatch)
    out = str(afile / "run")
    assert main(["train", "--cube", os.path.join(dataset, "cube.json"),
                 "--labels", os.path.join(dataset, "labels.json"), "--out", out]) == 2
    assert f"--out {out}: {afile} is not a writable directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before and afile.read_text() == ""


def test_trial_out_that_is_a_file_exits_2_before_any_work(tmp_path, dataset, monkeypatch, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    before = sorted(os.listdir(tmp_path))
    forbid_loading(monkeypatch)
    assert main(["trial", "--cube", os.path.join(dataset, "cube.json"), "--labels",
                 os.path.join(dataset, "labels.json"), "--repeats", "2", "--out", str(afile)]) == 2
    assert f"--out {afile}: {afile} is not a writable directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before and afile.read_text() == ""


@pytest.mark.parametrize("where", ["directory", "no_parent"])
def test_map_out_that_cannot_be_written_exits_2_before_any_work(tmp_path, dataset, monkeypatch, capsys, where):
    ckpt = untrained_checkpoint(tmp_path)
    out = tmp_path / "maps"
    if where == "directory":
        out.mkdir()
        message = f"--out {out} is a directory"
    else:
        out = out / "m.ppm"
        message = f"--out {out}: {out.parent} is not a writable directory"
    before = sorted(os.listdir(tmp_path))
    forbid_loading(monkeypatch)
    assert main(["map", "--cube", os.path.join(dataset, "cube.json"), "--labels",
                 os.path.join(dataset, "labels.json"), "--checkpoint", ckpt, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("case", ["two_pixels", "class_gap"])
def test_class_with_two_pixels_exits_2_before_pca(tmp_path, monkeypatch, capsys, case):
    import time

    import hsiduo.data as data

    cube, label_map = data.synth_dataset(3, 32, 32, 16, 0.1, 0)
    labels = label_map.labels.copy()
    if case == "two_pixels":
        keep = np.argwhere(labels == 3)[:2]
        labels[labels == 3] = 0
        labels[keep[:, 0], keep[:, 1]] = 3
        message = "class 3 has 2 labeled pixel(s); need at least 3"
    else:  # class ids 1 and 3: class 2 would have no test pixel for AA
        labels[labels == 2] = 0
        message = "labels: class 2 has no labeled pixel"
    data.save_cube(cube, str(tmp_path / "cube.json"))
    data.save_labels(data.LabelMap(labels), str(tmp_path / "labels.json"))

    def fit_pca(*args, **kwargs):
        raise AssertionError("PCA ran before the labels were rejected")

    monkeypatch.setattr(data, "fit_pca", fit_pca)
    out = tmp_path / "run"
    start = time.perf_counter()
    assert main(["train", "--cube", str(tmp_path / "cube.json"), "--labels", str(tmp_path / "labels.json"),
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", [100, 8192 + 4])
def test_map_exits_2_when_the_payload_changes_after_load(tmp_path, dataset, monkeypatch, capsys, size):
    import hsiduo.data as data

    load, raw = data.load_cube, os.path.join(dataset, "cube.raw")

    def load_then_resize(path):
        cube = load(path)
        with open(raw, "r+b") as fh:
            fh.truncate(size)  # truncated, or replaced by a payload one value longer
        return cube

    monkeypatch.setattr(data, "load_cube", load_then_resize)
    out = tmp_path / "m.ppm"
    assert main(["map", "--cube", os.path.join(dataset, "cube.json"), "--labels",
                 os.path.join(dataset, "labels.json"), "--checkpoint", untrained_checkpoint(tmp_path),
                 "--out", str(out)]) == 2
    assert f"payload {raw}: expected 8192 bytes, found {size}" in capsys.readouterr().err
    assert not out.exists()


def test_prediction_does_not_depend_on_the_batch(monkeypatch):
    # the desk scene's 963 test pixels: batches of 7, 64 and 256 leave a
    # ragged last batch, and the untrained model predicts all three classes
    from hsiduo import cli, train
    from hsiduo.data import extract_patches_array, stratified_split, synth_dataset
    from hsiduo.model import DualStreamModel, ModelConfig

    cube, label_map = synth_dataset(3, 32, 32, 16, 0.1, 0)
    config = ModelConfig()
    _, _, test = stratified_split(label_map, seed=0)
    assert len(test) == 963
    std = cli._standardized(cube, config.pca_components)
    net = DualStreamModel.build(config, 3, rng=np.random.default_rng(np.random.SeedSequence([0, 0x1D17])))
    ref = cli.predict_samples(net, std, test.rows, test.cols, config.patch_size)
    assert np.unique(ref).size == 3
    for chunk in (1, 7, 256, 1000):
        monkeypatch.setattr(train, "INFER_BATCH", chunk)
        pred = cli.predict_samples(net, std, test.rows, test.cols, config.patch_size)
        assert np.array_equal(pred, ref), chunk

    x = extract_patches_array(std, test.rows, test.cols, config.patch_size)

    def probs(batch):
        # the conv kernels split a batch into pieces of 50 samples at the
        # first layer, so batch 64 runs a piece of 14 that 256 does not
        return np.concatenate([net.forward_batch(x[lo : lo + batch], cache=False)[0]
                               for lo in range(0, len(test), batch)])

    # the predictor's batch and validation's agree bit for bit; fit's batch
    # of 7 runs GEMMs of under 16 rows, whose rows BLAS rounds differently
    # (measured 6.0e-8 apart), so it agrees to float32 roundoff
    at_64 = probs(64)
    assert at_64.dtype == np.float32
    assert np.array_equal(at_64, probs(256))
    at_7 = probs(7)
    assert np.abs(at_7 - at_64).max() < 1e-6
    assert np.array_equal(np.argmax(at_7, axis=1), np.argmax(at_64, axis=1))


def pavia_slice(h, w, seed):
    """A corner of a Pavia-University-shaped scene (103 bands, 9 classes in
    10 x 10 pixel cells), drawn as perfbench's 610 x 340 cube is: smooth
    class mean spectra plus within-class variation along the DCT-II basis
    with a std decaying from 0.05 over three decades. Returns the cube and
    every pixel's class."""
    from hsiduo.data import HsiCube
    from hsiduo.tensor import Tensor

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A7]))
    b, n_classes = 103, 9
    cells = rng.integers(1, n_classes + 1, size=(-(-h // 10), -(-w // 10)))
    classes = np.repeat(np.repeat(cells, 10, axis=0), 10, axis=1)[:h, :w]
    axis = np.arange(b, dtype=np.float64)
    centers = rng.uniform(0, b - 1, size=(n_classes + 1, 3, 1))
    widths = rng.uniform(b / 10, b / 4, size=(n_classes + 1, 3, 1))
    amps = rng.uniform(0.05, 0.2, size=(n_classes + 1, 3, 1))
    means = 0.2 + (amps * np.exp(-((axis - centers) ** 2) / (2 * widths**2))).sum(axis=1)
    basis = np.cos(np.pi * (axis[:, None] + 0.5) * axis[None, :] / b)
    basis /= np.linalg.norm(basis, axis=0)
    z = rng.standard_normal((h * w, b)) * (0.05 * 1e-3 ** (axis / (b - 1)))
    values = (means[classes.reshape(-1)] + z @ basis.T).reshape(h, w, b).astype(np.float32)
    return HsiCube(Tensor.from_array(values)), classes


def predictor_probs(monkeypatch, net, std, rows, cols, patch_size):
    """The labels predict_samples returns and the probabilities its
    forward passes computed, in pixel order."""
    from hsiduo import cli
    from hsiduo.model import DualStreamModel

    seen, forward = [], DualStreamModel.forward_batch

    def recording(self, *args, **kwargs):
        probs, cache = forward(self, *args, **kwargs)
        seen.append(probs)
        return probs, cache

    with monkeypatch.context() as m:
        m.setattr(DualStreamModel, "forward_batch", recording)
        labels = cli.predict_samples(net, std, rows, cols, patch_size)
    return labels, np.concatenate(seen)


# the float32 predictor against the float64 forward of the same weights
# on patches of the float64 standardized cube: measured at most 6.5e-7
# on these scenes
PROB_BOUND = 1e-5
# a pixel whose float64 top two classes are closer than this may take
# either class in float32; perfbench's checks allow the same margin
TIE_MARGIN = 1e-4


@pytest.mark.parametrize("scene", ["desk", "pavia"])
def test_float32_prediction_matches_the_float64_forward(monkeypatch, scene):
    # `train`'s model after 30 epochs of its fit, so the logits are a
    # trained model's rather than the near-uniform ones of Glorot weights;
    # the desk scene's 963 test pixels, or 512 seeded ones of a Pavia slice
    from dataclasses import replace

    from test_gradients import float64_twin

    from hsiduo import cli, data
    from hsiduo.data import LabelMap, stratified_split, synth_dataset
    from hsiduo.model import DualStreamModel, ModelConfig
    from hsiduo.train import fit

    config = ModelConfig()
    if scene == "desk":
        cube, label_map = synth_dataset(3, 32, 32, 16, 0.1, 0)
    else:
        cube, classes = pavia_slice(64, 64, seed=0)
        label_map = LabelMap(classes)
    train_px, val_px, test = stratified_split(label_map, seed=0)
    std = cli._standardized(cube, config.pca_components)
    net = DualStreamModel.build(config, label_map.n_classes,
                                rng=np.random.default_rng(np.random.SeedSequence([0, 0x1D17])))
    net, _ = fit(net, cli.build_patchset(std, train_px, config.patch_size),
                 cli.build_patchset(std, val_px, config.patch_size),
                 replace(config.train, epochs=30, patience=30))
    rows, cols = test.rows, test.cols
    if scene == "pavia":
        pick = np.sort(np.random.default_rng(3).choice(len(test), size=512, replace=False))
        rows, cols = rows[pick], cols[pick]

    flat = net.flat.copy()
    labels, got = predictor_probs(monkeypatch, net, std, rows, cols, config.patch_size)
    assert got.dtype == np.float32 and got.shape == (rows.size, net.n_classes)
    assert np.array_equal(labels, np.argmax(got, axis=1) + 1)
    assert np.array_equal(net.flat, flat)

    # the reference starts from the float64 standardization, which
    # standardize rounds to float32 once
    _, reduced = data.fit_pca(cube, config.pca_components)
    mean, scale = data.standard_scale(reduced)
    xr = data.extract_patches_array((reduced.as_array() - mean) / scale, rows, cols, config.patch_size)
    assert xr.dtype == np.float64
    want, _ = float64_twin(net).forward_batch(xr, cache=False)
    assert want.dtype == np.float64
    assert np.abs(got - want).max() < PROB_BOUND
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] >= TIE_MARGIN
    assert clear.mean() > 0.9
    assert np.array_equal(np.argmax(got, axis=1)[clear], np.argmax(want, axis=1)[clear])


def test_training_and_prediction_run_in_float32(monkeypatch):
    # every conv kernel, forward and backward, reads float32 inputs and
    # weights in train.fit's backward, in its validation and in the
    # predictor; the band-wise FFT reads and returns float32 once per
    # forward: each training step, each validation and predictor batch
    from hsiduo import cli, layers, spectral, train
    from hsiduo.data import stratified_split, synth_dataset
    from hsiduo.model import DualStreamModel, ModelConfig

    config = ModelConfig.from_json_dict(small_config_doc(epochs=2))
    cube, label_map = synth_dataset(3, 16, 16, 8, 0.05, 5)
    train_px, val_px, test_px = stratified_split(label_map, seed=0)
    std = cli._standardized(cube, config.pca_components)
    net = DualStreamModel.build(config, 3, rng=np.random.default_rng(0))

    phase, calls = ["none"], []

    def recording(name):
        kernel = getattr(layers, name)

        def run(*args):
            arrays = [a for arg in args for a in (arg if isinstance(arg, tuple) else (arg,))]
            calls.append((phase[0], name, {a.dtype for a in arrays if a is not None}))
            return kernel(*args)
        return run

    def in_phase(name, fn):
        def run(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "none"
        return run

    kernels = ("conv3d_real_batch", "conv3d_complex_batch",
               "conv3d_real_batch_backward", "conv3d_complex_batch_backward")
    for name in kernels:
        monkeypatch.setattr(layers, name, recording(name))
    monkeypatch.setattr(train, "backward", in_phase("backward", train.backward))
    monkeypatch.setattr(train, "evaluate_loss_accuracy", in_phase("evaluate", train.evaluate_loss_accuracy))
    ffts, fft = [], spectral.bandwise_fft_arrays

    def recording_fft(patches):
        re, im = fft(patches)
        ffts.append((phase[0], {a.dtype for a in (patches, re, im)}))
        return re, im
    monkeypatch.setattr(spectral, "bandwise_fft_arrays", recording_fft)

    sets = [in_phase(name, cli.build_patchset)(std, px, config.patch_size)
            for name, px in (("train set", train_px), ("val set", val_px))]
    net, history = train.fit(net, *sets, config.train)
    flat = net.flat.copy()
    phase[0] = "predict"
    cli.predict_samples(net, std, test_px.rows, test_px.cols, config.patch_size)
    assert net.flat.dtype == np.float32 and net.flat.tobytes() == flat.tobytes()

    want = {"backward": set(kernels), "evaluate": set(kernels[:2]), "predict": set(kernels[:2])}
    assert {c[0] for c in calls} == set(want)
    for name, called in want.items():
        mine = [c for c in calls if c[0] == name]
        assert {kernel for _, kernel, _ in mine} == called, name
        assert all(dtypes == {np.dtype(np.float32)} for _, _, dtypes in mine), (name, mine)
    epoch = (["backward"] * -(-len(train_px) // config.train.batch_size)
             + ["evaluate"] * -(-len(val_px) // train.INFER_BATCH))
    predict = ["predict"] * -(-len(test_px) // train.INFER_BATCH)
    assert [name for name, _ in ffts] == epoch * len(history) + predict
    assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in ffts), ffts
    assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in ffts), ffts


def test_class_colors_is_class_color_per_label():
    from hsiduo.cli import PALETTE, class_color, class_colors

    # unlabelled is PALETTE[0]; classes 1-16 take the rest, then repeat
    assert ([class_color(c) for c in (-2, 0, 1, 15, 16, 17, 32, 33)]
            == [PALETTE[i] for i in (0, 0, 1, 15, 16, 1, 16, 1)])
    labels = np.arange(-2, 40).reshape(6, 7)
    colors = class_colors(labels)
    assert colors.dtype == np.uint8 and colors.shape == (6, 7, 3)
    assert [tuple(c) for c in colors.reshape(-1, 3).tolist()] == [class_color(int(c)) for c in labels.reshape(-1)]



def test_sixteen_classes_get_sixteen_colours():
    from hsiduo.cli import class_color

    # Salinas has 16 classes; classes 1-15 keep the colours of earlier maps
    colours = [class_color(c) for c in range(1, 17)]
    assert len(set(colours)) == 16 and (0, 0, 0) not in colours
    assert colours[:15] == [
        (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200), (245, 130, 48),
        (145, 30, 180), (70, 240, 240), (240, 50, 230), (210, 245, 60), (250, 190, 212),
        (0, 128, 128), (220, 190, 255), (170, 110, 40), (255, 250, 200), (128, 0, 0),
    ]

# a child interpreter's start: hsiduo from src, and peak() its VmHWM in bytes
_PEAK_PRELUDE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "from hsiduo import cli, data, layers, model, spectral, train\n"
    "def peak():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith('VmHWM:'))\n"
)


def run_measured(script, args):
    """Run _PEAK_PRELUDE then script in a fresh interpreter with one BLAS
    thread and args as its sys.argv[1:]; returns the integers it prints."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _PEAK_PRELUDE + script, *args, "--threads", "1"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [int(x) for x in proc.stdout.split()]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM in /proc/self/status")
def test_map_does_not_hold_the_cube(tmp_path):
    """map's peak resident set, read by the process itself, rises by what
    the reduced cube needs and less than half the payload besides: the
    cube is read in pixel blocks and never held."""
    from hsiduo.data import HsiCube, LabelMap, save_cube, save_labels
    from hsiduo.model import DualStreamModel, ModelConfig, save_checkpoint
    from hsiduo.tensor import Tensor

    h, w, b = 256, 256, 103
    rng = np.random.default_rng(0)
    save_cube(HsiCube(Tensor.from_array(rng.normal(size=(h, w, b)).astype(np.float32))), str(tmp_path / "cube.json"))
    labels = np.zeros((h, w), dtype=int)
    labels.reshape(-1)[rng.choice(h * w, 48, replace=False)] = 1 + np.arange(48) % 3
    save_labels(LabelMap(labels), str(tmp_path / "labels.json"))
    config = ModelConfig()
    save_checkpoint(DualStreamModel.build(config, 3, rng=rng), str(tmp_path / "checkpoint.json"))
    script = "from hsiduo.__main__ import main\nstart = peak()\ncode = main(sys.argv[1:])\nprint(code, peak() - start)\n"
    code, rise = run_measured(script, ["map", "--cube", str(tmp_path / "cube.json"), "--labels",
                                     str(tmp_path / "labels.json"), "--checkpoint",
                                     str(tmp_path / "checkpoint.json"), "--out", str(tmp_path / "map.ppm")])
    assert code == 0
    # the reduced cube (8 MiB here) and standardize's float32 output (4 MiB)
    # fit in two reduced-cube sizes, against a 25.75 MiB payload
    reduced = h * w * config.pca_components * 8
    payload = os.path.getsize(tmp_path / "cube.raw")
    assert rise - 2 * reduced < payload / 2, (rise, reduced, payload)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM in /proc/self/status")
def test_train_prediction_does_not_set_the_peak(tmp_path):
    """On the desk scene, train's peak resident set is set by the time
    train.fit returns: predicting the 963 test pixels afterwards, in
    batches of 64, raises it by less than 3 MiB."""
    assert main(["synth", "--out", str(tmp_path / "desk")]) == 0
    script = (
        "fit = train.fit\n"
        "def measured_fit(*args, **kwargs):\n"
        "    global after_fit\n"
        "    out = fit(*args, **kwargs)\n"
        "    after_fit = peak()\n"
        "    return out\n"
        "train.fit = measured_fit\n"
        "from hsiduo.__main__ import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, peak() - after_fit)\n"
    )
    code, rise = run_measured(script, ["train", "--cube", str(tmp_path / "desk" / "cube.json"), "--labels",
                                     str(tmp_path / "desk" / "labels.json"), "--out", str(tmp_path / "run")])
    assert code == 0
    assert json.load(open(tmp_path / "run" / "report.json"))["n_test"] == 963
    assert rise < 3 * 1024 * 1024, rise
