import hashlib
import json
import os
from dataclasses import replace
from math import prod

import numpy as np
import pytest

from hsiduo.errors import ConfigError, IngestionError
from hsiduo.model import (
    ConvLayerSpec,
    DualStreamModel,
    ModelConfig,
    config_hash,
    load_checkpoint,
    save_checkpoint,
)
from hsiduo.train import AdamState, adam_step
from test_layers import fusion_cache


def small_config():
    convs = [ConvLayerSpec((3, 3, 4), 2), ConvLayerSpec((3, 3, 1), 2), ConvLayerSpec((4, 4, 1), 4)]
    return ModelConfig(
        pca_components=4,
        patch_size=8,
        real_convs=convs,
        complex_convs=[ConvLayerSpec(c.kernel, c.channels) for c in convs],
        se_ratio=2,
        dense_widths=[6],
        dropout_rate=0.3,
    )


def test_default_config_is_valid():
    cfg = ModelConfig()
    cfg.validate()
    geo = cfg.stack_geometry(cfg.real_convs)
    assert geo[-1][:2] == (1, 1)
    assert cfg.fused_channels() % cfg.se_ratio == 0


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="patch_size"):
        ModelConfig(patch_size=6).validate()
    with pytest.raises(ConfigError, match="pca_components"):
        ModelConfig(pca_components=0).validate()
    with pytest.raises(ConfigError, match="se_ratio"):
        ModelConfig(se_ratio=5).validate()
    with pytest.raises(ConfigError, match="dropout_rate"):
        ModelConfig(dropout_rate=1.0).validate()
    with pytest.raises(ConfigError, match="real_convs"):
        ModelConfig(real_convs=[ConvLayerSpec((9, 9, 1), 2)]).validate()
    with pytest.raises(ConfigError, match="train.epochs"):
        cfg = ModelConfig()
        cfg.train.epochs = 0
        cfg.validate()


def test_config_json_roundtrip_and_unknown_field():
    cfg = small_config()
    doc = cfg.to_json_dict()
    back = ModelConfig.from_json_dict(json.loads(json.dumps(doc)))
    assert back.to_json_dict() == doc
    with pytest.raises(ConfigError, match="unknown"):
        ModelConfig.from_json_dict({"filters": 3})


def test_config_hash_is_canonical():
    a = small_config()
    b = small_config()
    assert config_hash(a) == config_hash(b)
    b.dropout_rate = 0.4
    assert config_hash(a) != config_hash(b)


def test_param_entries_declaration_order():
    model = DualStreamModel.build(small_config(), 3, np.random.default_rng(0))
    names = [name for name, _ in model.param_entries()]
    assert names[0] == "real_conv0.kernels"
    assert names.index("se.w1") > names.index("cplx_conv2.bias_im")
    assert names[-2:] == ["head.weights", "head.bias"]

    # every parameter is a view into the one flat buffer, and the views
    # tile it
    entries = model.param_entries()
    assert all(np.shares_memory(arr, model.flat) for _, arr in entries)
    assert sum(arr.size for _, arr in entries) == model.flat.size

    # the views, the forward pass's too, follow the buffer: an Adam step on
    # it shows in views taken before the step
    forward_views = [arr for group in model.layer_views().values() for layer in group for arr in layer]
    assert len(forward_views) == len(entries)
    before = [arr.copy() for _, arr in entries]
    adam_step(model.flat, np.ones_like(model.flat), AdamState(model.flat, lr=1e-3))
    for (name, arr), fwd, old in zip(entries, forward_views, before):
        assert not np.array_equal(arr, old), name
        assert np.array_equal(fwd, arr), name

    assert not DualStreamModel(small_config(), 3).flat.any()
    assert all(not arr.any() for _, arr in DualStreamModel(small_config(), 3).param_entries())


def test_init_order_pins_checkpoint_bytes(tmp_path):
    # both files of this seeded build's checkpoint; a reordered declaration
    # or rng draw changes the payload or the manifest's layer table, and
    # with them every trained checkpoint
    model = DualStreamModel.build(small_config(), 3, np.random.default_rng(0))
    save_checkpoint(model, str(tmp_path / "checkpoint.json"))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("checkpoint.bin", "checkpoint.json")}
    assert digests == {
        "checkpoint.bin": "58d6dfc6b537abe95ecf5e746327c9407060eb72b7707896348de30880b0be09",
        "checkpoint.json": "c5153e2ab380cb91d8958cb4f07fe629f3cf72e82bc75e930adfa0db2fb1b486",
    }


def test_parameters_are_float32_and_the_payload_is_their_bytes(tmp_path):
    model = DualStreamModel.build(small_config(), 3, np.random.default_rng(1))
    assert model.flat.dtype == np.float32
    save_checkpoint(model, str(tmp_path / "ckpt.json"))
    assert (tmp_path / "ckpt.bin").read_bytes() == model.flat.tobytes()
    loaded, _ = load_checkpoint(str(tmp_path / "ckpt.json"))
    assert loaded.flat.dtype == np.float32 and loaded.flat.tobytes() == model.flat.tobytes()


def test_checkpoint_roundtrip_and_manifest_layout(tmp_path):
    rng = np.random.default_rng(1)
    model = DualStreamModel.build(small_config(), 3, rng)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(model, path, ["a", "b", "c"])

    manifest = json.load(open(path))
    offset = 0
    for entry, (name, arr) in zip(manifest["layers"], model.param_entries()):
        assert entry["name"] == name
        assert tuple(entry["shape"]) == arr.shape
        assert entry["offset"] == offset
        offset += arr.size * 4  # little-endian float32 records
    assert os.path.getsize(str(tmp_path / "ckpt.bin")) == offset

    loaded, names = load_checkpoint(path)
    assert names == ["a", "b", "c"]
    for (_, got), (_, want) in zip(loaded.param_entries(), model.param_entries()):
        assert np.array_equal(got, want.astype(np.float32).astype(np.float64))


def test_checkpoint_errors(tmp_path):
    model = DualStreamModel.build(small_config(), 3, np.random.default_rng(2))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(model, path)

    with pytest.raises(IngestionError):
        load_checkpoint(str(tmp_path / "missing.json"))

    with open(str(tmp_path / "ckpt.bin"), "ab") as fh:
        fh.write(b"\x00" * 4)
    with pytest.raises(IngestionError, match="bytes"):
        load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = str(tmp_path / "ckpt.json")
    old = DualStreamModel.build(small_config(), 3, np.random.default_rng(1))
    save_checkpoint(old, path)

    def dump_then_fail(doc, fh, **kwargs):
        fh.write('{"format": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        save_checkpoint(DualStreamModel.build(small_config(), 3, np.random.default_rng(2)), path)
    monkeypatch.undo()

    loaded, _ = load_checkpoint(path)
    for (_, got), (_, want) in zip(loaded.param_entries(), old.param_entries()):
        assert np.array_equal(got, want.astype(np.float32).astype(np.float64))
    assert sorted(os.listdir(tmp_path)) == ["ckpt.bin", "ckpt.json"]


def test_se_disabled_manifest_has_no_se_entries(tmp_path):
    cfg = small_config()
    cfg.se_enabled = False
    model = DualStreamModel.build(cfg, 3, np.random.default_rng(3))
    names = [name for name, _ in model.param_entries()]
    assert not any(n.startswith("se.") for n in names)

    cfg_on = small_config()
    model_on = DualStreamModel.build(cfg_on, 3, np.random.default_rng(3))
    shapes_off = {n: a.shape for n, a in model.param_entries()}
    shapes_on = {n: a.shape for n, a in model_on.param_entries() if not n.startswith("se.")}
    assert shapes_off == shapes_on


def test_streams_must_align_spatially():
    convs_a = [ConvLayerSpec((3, 3, 4), 2)]
    convs_b = [ConvLayerSpec((5, 5, 4), 2)]
    cfg = ModelConfig(
        pca_components=4, patch_size=8, real_convs=convs_a, complex_convs=convs_b, se_ratio=1
    )
    with pytest.raises(ConfigError, match="fusion"):
        cfg.validate()


def patch_batch(n, config, seed):
    """A random [N, S, S, P] real patch stack and its band-wise FFT."""
    from hsiduo.spectral import bandwise_fft_arrays

    s, p = config.patch_size, config.pca_components
    xr = np.random.default_rng(seed).normal(size=(n, s, s, p))
    return (xr, *bandwise_fft_arrays(xr))


@pytest.mark.parametrize("config, n", [(ModelConfig(), 256), (small_config(), 40)],
                         ids=["default-batch-256", "dropout"])
def test_cacheless_forward_gives_the_cached_probabilities(config, n):
    model = DualStreamModel.build(config, 9, np.random.default_rng(4))
    batch = patch_batch(n, config, 5)
    before = [x.copy() for x in batch]
    cached, cache = model.forward_batch(*batch)
    bare, none = model.forward_batch(*batch, cache=False)
    assert cache is not None and none is None
    assert np.array_equal(bare, cached)
    assert np.array_equal(model.predict_batch(*batch), np.argmax(cached, axis=1))
    assert all(np.array_equal(x, y) for x, y in zip(batch, before))  # in-place ReLU spares the inputs


def test_warm_prediction_keeps_no_backward_cache():
    from test_tensor import traced_peak

    config = ModelConfig()
    model = DualStreamModel.build(config, 9, np.random.default_rng(6))
    batch = patch_batch(256, config, 7)  # 6 MiB of input
    model.predict_batch(*batch)  # warm: the conv kernels' scratch is held from here on
    _, peak = traced_peak(model.predict_batch, *batch)
    # the cached forward peaks at 42 MiB here, the cacheless one at about 13
    assert peak < 16 * 2**20


def test_training_forward_caches_each_output_as_the_next_input():
    # ReLU, CReLU and dropout all run in place, so every cached conv and
    # dense output is post-activation and is the array the next layer reads
    config = replace(small_config(), dense_widths=[6, 5])
    model = DualStreamModel.build(config, 9, np.random.default_rng(8))
    _, cache = model.forward_batch(*patch_batch(12, config, 9), dropout_seed=(3,))
    chains = [
        [(x, out) for x, out in cache["real"]],
        [(xr, out_re) for xr, _, out_re, _ in cache["cplx"]],
        [(xi, out_im) for _, xi, _, out_im in cache["cplx"]],
        [(h, out) for h, out, _ in cache["dense"]] + [(cache["head_in"], None)],
    ]
    for chain in chains:
        for (_, out), (next_in, _) in zip(chain, chain[1:]):
            assert out is next_in
        assert all(np.all(out >= 0) for _, out in chain if out is not None)
    assert all(np.any(mask == 0) for _, _, mask in cache["dense"])  # dropout did zero some


# ---------------------------------------------------------------------------
# fusion: the real stream, then the [re | im] realization of the complex
# stream, channel-concatenated as DualStreamModel.forward_batch runs it


def value_at(shape, flat, idx):
    """Independent row-major index oracle: explicit stride arithmetic."""
    strides = [1] * len(shape)
    for a in range(len(shape) - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    return flat[sum(i * s for i, s in zip(idx, strides))]


def test_concat_single_elements():
    # one band per stream: every fused pixel is [real, re, im]
    fused = fusion_cache(np.full((1, 2, 2, 1), 2.0), np.full((1, 2, 2, 1), 3.0),
                         np.full((1, 2, 2, 1), 4.0))["fused"]
    assert fused.shape == (1, 2, 2, 3)
    assert list(fused[0, 1, 0]) == [2.0, 3.0, 4.0]


def test_concat_random_against_index_oracle():
    rng = np.random.default_rng(1)
    real = rng.uniform(0.0, 1.0, size=(1, 2, 2, 5))
    re, im = rng.uniform(0.0, 1.0, size=(2, 1, 2, 2, 5))
    cache = fusion_cache(real, re, im, complex_bands=3)
    fused = cache["fused"][0]
    assert fused.shape == (2, 2, 11)
    flat = fused.reshape(-1)
    for i in range(2):
        for j in range(2):
            for c in range(11):
                got = value_at(fused.shape, flat, (i, j, c))
                if c < 5:
                    want = value_at((2, 2, 5), real[0].reshape(-1), (i, j, c))
                elif c < 8:
                    want = value_at((2, 2, 5), re[0].reshape(-1), (i, j, c - 5))
                else:
                    want = value_at((2, 2, 5), im[0].reshape(-1), (i, j, c - 8))
                assert got == want


def test_complex_to_real_unit_case():
    cache = fusion_cache(np.zeros((1, 2, 2, 1)), np.ones((1, 2, 2, 1)), np.zeros((1, 2, 2, 1)))
    fused = cache["fused"]
    assert fused.shape == (1, 2, 2, 3)
    assert np.all(fused[..., 1] == 1.0)
    assert np.all(fused[..., 2] == 0.0)


def test_complex_to_real_zero():
    zeros = np.zeros((2, 2, 2, 2))
    assert np.all(fusion_cache(zeros, zeros, zeros)["fused"] == 0.0)


def test_complex_to_real_random_against_loop():
    rng = np.random.default_rng(2)
    re = rng.uniform(0.0, 1.0, size=(1, 2, 2, 2))
    im = rng.uniform(0.0, 1.0, size=(1, 2, 2, 2))
    fused = fusion_cache(np.zeros((1, 2, 2, 2)), re, im)["fused"][0]
    assert fused.shape == (2, 2, 6)
    for i in range(2):
        for j in range(2):
            for c in range(4):
                got = fused[i, j, 2 + c]
                want = re[0, i, j, c] if c < 2 else im[0, i, j, c - 2]
                assert got == want


def test_concat_then_slice_recovers_inputs():
    # backward splits the fused gradient where each stream's folded
    # channels end, read off the shapes of the cached outputs; the same
    # cut recovers each stream's features from the fused map
    rng = np.random.default_rng(6)
    real, re, im = rng.uniform(0.0, 1.0, size=(3, 2, 2, 2, 4))
    cache = fusion_cache(real, re, im)
    c_real = prod(cache["real"][-1][1].shape[3:])
    c_cplx = prod(cache["cplx"][-1][2].shape[3:])
    assert (c_real, c_cplx) == (4, 4)
    fused = cache["fused"]
    assert np.array_equal(fused[..., :c_real], real)
    assert np.array_equal(fused[..., c_real : c_real + c_cplx], re)
    assert np.array_equal(fused[..., c_real + c_cplx :], im)
