"""Dual-branch model: real conv stack + complex conv stack over the
band-wise FFT patch, channel-concatenation fusion, optional SE
recalibration, and a fully-connected softmax head.

Also owns the run configuration schema and the checkpoint format
(flat little-endian float32 records plus a JSON manifest).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import layers
from .errors import ConfigError, DimensionError
from .train import TrainConfig

CHECKPOINT_FORMAT = "hsiduo-checkpoint-v1"


@dataclass
class ConvLayerSpec:
    kernel: tuple  # (mh, mw, md)
    channels: int


def _default_convs():
    # depth-spanning first kernel, then spatial shrink to a 1x1 map: every
    # fused feature aggregates the whole patch, which keeps the tiny
    # stratified training pools of the 1% protocol learnable
    return [
        ConvLayerSpec((3, 3, 16), 64),
        ConvLayerSpec((3, 3, 1), 64),
        ConvLayerSpec((4, 4, 1), 64),
    ]


@dataclass
class ModelConfig:
    """Every architecture choice left open by the protocol, made explicit.

    Defaults: three conv layers per stream collapsing an 8x8x16 patch to a
    1x1 fused map of 192 channels, a 128-wide hidden layer, SE ratio 4.
    """

    pca_components: int = 16
    patch_size: int = 8
    real_convs: list = field(default_factory=_default_convs)
    complex_convs: list = field(default_factory=_default_convs)
    se_ratio: int = 4
    se_enabled: bool = True
    dense_widths: list = field(default_factory=lambda: [128])
    dropout_rate: float = 0.55
    train: TrainConfig = field(default_factory=TrainConfig)

    # -- geometry -----------------------------------------------------

    def stack_geometry(self, convs):
        """(h, w, d, c) after each conv layer under valid padding."""
        h = w = self.patch_size
        d, c = self.pca_components, 1
        out = []
        for spec in convs:
            mh, mw, md = spec.kernel
            h, w, d, c = h - mh + 1, w - mw + 1, d - md + 1, spec.channels
            out.append((h, w, d, c))
        return out

    def fused_channels(self) -> int:
        rh, rw, rd, rc = self.stack_geometry(self.real_convs)[-1]
        ch, cw, cd, cc = self.stack_geometry(self.complex_convs)[-1]
        return rd * rc + 2 * cd * cc

    def validate(self):
        """Raise ConfigError naming the offending field."""
        s = self.patch_size
        if s < 2 or (s & (s - 1)) != 0:
            raise ConfigError(f"patch_size: must be a power of two >= 2, got {s}")
        if self.pca_components < 1:
            raise ConfigError(f"pca_components: must be >= 1, got {self.pca_components}")
        if not self.real_convs or not self.complex_convs:
            raise ConfigError("real_convs/complex_convs: need at least one conv layer per stream")
        for name, convs in (("real_convs", self.real_convs), ("complex_convs", self.complex_convs)):
            h = w = s
            d = self.pca_components
            for i, spec in enumerate(convs):
                mh, mw, md = spec.kernel
                if min(mh, mw, md) < 1 or spec.channels < 1:
                    raise ConfigError(f"{name}[{i}]: kernel dims and channels must be >= 1")
                h, w, d = h - mh + 1, w - mw + 1, d - md + 1
                if min(h, w, d) < 1:
                    raise ConfigError(
                        f"{name}[{i}]: valid padding exhausts the input "
                        f"(dims become {(h, w, d)})"
                    )
        rgeo = self.stack_geometry(self.real_convs)[-1]
        cgeo = self.stack_geometry(self.complex_convs)[-1]
        if rgeo[:2] != cgeo[:2]:
            raise ConfigError(
                f"complex_convs: spatial output {cgeo[:2]} differs from real stream {rgeo[:2]}; "
                "streams must align for fusion"
            )
        if self.se_enabled:
            cf = self.fused_channels()
            if self.se_ratio < 1 or cf % self.se_ratio != 0:
                raise ConfigError(f"se_ratio: {self.se_ratio} does not divide fused channels {cf}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate: must be in [0,1), got {self.dropout_rate}")
        if any(wd < 1 for wd in self.dense_widths):
            raise ConfigError(f"dense_widths: all widths must be >= 1, got {self.dense_widths}")
        self.train.validate()

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "pca_components": self.pca_components,
            "patch_size": self.patch_size,
            "real_convs": [{"kernel": list(c.kernel), "channels": c.channels} for c in self.real_convs],
            "complex_convs": [
                {"kernel": list(c.kernel), "channels": c.channels} for c in self.complex_convs
            ],
            "se_ratio": self.se_ratio,
            "se_enabled": self.se_enabled,
            "dense_widths": list(self.dense_widths),
            "dropout_rate": self.dropout_rate,
            "train": self.train.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ModelConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        known = {
            "pca_components",
            "patch_size",
            "real_convs",
            "complex_convs",
            "se_ratio",
            "se_enabled",
            "dense_widths",
            "dropout_rate",
            "train",
        }
        for key in doc:
            if key not in known:
                raise ConfigError(f"{key}: unknown config field")
        cfg = ModelConfig()

        def convs(key):
            items = doc.get(key)
            if items is None:
                return _default_convs()
            out = []
            for i, item in enumerate(items):
                try:
                    out.append(ConvLayerSpec(tuple(int(k) for k in item["kernel"]), int(item["channels"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{key}[{i}]: expected {{kernel:[3 ints], channels:int}}") from exc
                if len(out[-1].kernel) != 3:
                    raise ConfigError(f"{key}[{i}].kernel: expected 3 dims")
            return out

        cfg = replace(
            cfg,
            pca_components=int(doc.get("pca_components", cfg.pca_components)),
            patch_size=int(doc.get("patch_size", cfg.patch_size)),
            real_convs=convs("real_convs"),
            complex_convs=convs("complex_convs"),
            se_ratio=int(doc.get("se_ratio", cfg.se_ratio)),
            se_enabled=bool(doc.get("se_enabled", cfg.se_enabled)),
            dense_widths=[int(w) for w in doc.get("dense_widths", cfg.dense_widths)],
            dropout_rate=float(doc.get("dropout_rate", cfg.dropout_rate)),
            train=TrainConfig.from_json_dict(doc.get("train", {})),
        )
        return cfg


def config_hash(config: ModelConfig) -> str:
    canonical = json.dumps(config.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the model


class DualStreamModel:
    """Holds both conv stacks, the optional SE block, and the FC head."""

    def __init__(self, config: ModelConfig, n_classes: int):
        config.validate()
        if n_classes < 2:
            raise ConfigError(f"n_classes: need >= 2 classes, got {n_classes}")
        self.config = config
        self.n_classes = n_classes
        self.real_convs = []
        self.cplx_convs = []
        self.se = None
        self.denses = []
        self.head = None

    @staticmethod
    def build(config: ModelConfig, n_classes: int, rng: np.random.Generator | None = None) -> "DualStreamModel":
        """Construct with Glorot-initialized weights (zeros when rng is None)."""
        model = DualStreamModel(config, n_classes)
        if rng is None:
            rng = np.random.default_rng(0)
            zero = True
        else:
            zero = False

        cin = 1
        for spec in config.real_convs:
            model.real_convs.append(layers.init_conv(rng, spec.kernel, cin, spec.channels))
            cin = spec.channels
        cin = 1
        for spec in config.complex_convs:
            model.cplx_convs.append(layers.init_complex_conv(rng, spec.kernel, cin, spec.channels))
            cin = spec.channels
        cf = config.fused_channels()
        if config.se_enabled:
            model.se = layers.init_se(rng, cf, config.se_ratio)
        rh, rw = config.stack_geometry(config.real_convs)[-1][:2]
        n_in = rh * rw * cf
        for width in config.dense_widths:
            model.denses.append(layers.init_dense(rng, n_in, width))
            n_in = width
        model.head = layers.init_dense(rng, n_in, n_classes)
        if zero:
            for _, arr in model.param_entries():
                arr[...] = 0.0
        return model

    # -- parameters ----------------------------------------------------

    def param_entries(self):
        """Live (name, array) pairs in declaration order."""
        out = []
        for i, p in enumerate(self.real_convs):
            out.append((f"real_conv{i}.kernels", p.kernels))
            out.append((f"real_conv{i}.bias", p.bias))
        for i, p in enumerate(self.cplx_convs):
            out.append((f"cplx_conv{i}.kernels_re", p.kernels_re))
            out.append((f"cplx_conv{i}.kernels_im", p.kernels_im))
            out.append((f"cplx_conv{i}.bias_re", p.bias_re))
            out.append((f"cplx_conv{i}.bias_im", p.bias_im))
        if self.se is not None:
            out.append(("se.w1", self.se.w1))
            out.append(("se.w2", self.se.w2))
        for i, p in enumerate(self.denses):
            out.append((f"dense{i}.weights", p.weights))
            out.append((f"dense{i}.bias", p.bias))
        out.append(("head.weights", self.head.weights))
        out.append(("head.bias", self.head.bias))
        return out

    def cast(self, dtype) -> "DualStreamModel":
        """Convert every parameter array to dtype (f32 fast mode)."""
        for p in self.real_convs:
            p.kernels = p.kernels.astype(dtype)
            p.bias = p.bias.astype(dtype)
        for p in self.cplx_convs:
            p.kernels_re = p.kernels_re.astype(dtype)
            p.kernels_im = p.kernels_im.astype(dtype)
            p.bias_re = p.bias_re.astype(dtype)
            p.bias_im = p.bias_im.astype(dtype)
        if self.se is not None:
            self.se.w1 = self.se.w1.astype(dtype)
            self.se.w2 = self.se.w2.astype(dtype)
        for p in self.denses:
            p.weights = p.weights.astype(dtype)
            p.bias = p.bias.astype(dtype)
        self.head.weights = self.head.weights.astype(dtype)
        self.head.bias = self.head.bias.astype(dtype)
        return self

    def snapshot_params(self) -> dict:
        return {name: arr.copy() for name, arr in self.param_entries()}

    def load_params(self, values: dict):
        for name, arr in self.param_entries():
            src = values[name]
            if src.shape != arr.shape:
                raise DimensionError(f"parameter {name}: shape {src.shape} != expected {arr.shape}")
            arr[...] = src

    # -- forward -------------------------------------------------------

    def forward_batch(self, xr, xc_re, xc_im, training=False, dropout_seed=None):
        """Probabilities plus the cache needed for backpropagation.

        xr, xc_re, xc_im: [N, S, S, P] patch stacks. Dropout masks are
        drawn from a stream keyed by (dropout_seed, layer index) so
        serial and parallel execution produce identical masks.
        """
        n = xr.shape[0]
        cache = {"real": [], "cplx": []}

        a = xr[..., None]
        for p in self.real_convs:
            pre = layers.conv3d_real_batch(a, p.kernels, p.bias)
            cache["real"].append((a, pre))
            a = np.maximum(pre, 0.0)
        real_out = a

        ar, ai = xc_re[..., None], xc_im[..., None]
        for p in self.cplx_convs:
            pre_re, pre_im = layers.conv3d_complex_batch(ar, ai, p)
            cache["cplx"].append((ar, ai, pre_re, pre_im))
            ar = np.maximum(pre_re, 0.0)
            ai = np.maximum(pre_im, 0.0)

        # depth axis folded into channels so the SE block sees [H,W,C]
        rh, rw = real_out.shape[1:3]
        rfold = real_out.reshape(n, rh, rw, -1)
        cr_fold = ar.reshape(n, rh, rw, -1)
        ci_fold = ai.reshape(n, rh, rw, -1)
        cache["fold_shapes"] = (real_out.shape, ar.shape)
        fused = np.concatenate([rfold, cr_fold, ci_fold], axis=3)
        cache["split"] = (rfold.shape[3], cr_fold.shape[3])
        cache["fused"] = fused

        if self.se is not None:
            se_out, se_cache = layers.se_forward_batch(fused, self.se)
            cache["se"] = se_cache
        else:
            se_out = fused

        flat = se_out.reshape(n, -1)
        cache["flat_shape"] = se_out.shape

        h = flat
        for i, p in enumerate(self.denses):
            pre = layers.dense_batch(h, p)
            act = np.maximum(pre, 0.0)
            if training and self.config.dropout_rate > 0.0:
                rng = np.random.default_rng(np.random.SeedSequence(list(dropout_seed or (0,)) + [i]))
                mask = layers.dropout_mask(act.shape, self.config.dropout_rate, rng).astype(act.dtype)
            else:
                mask = None
            cache.setdefault("dense", []).append((h, pre, mask))
            h = act if mask is None else act * mask

        logits = layers.dense_batch(h, self.head)
        cache["head_in"] = h
        probs = layers.softmax(logits)
        cache["probs"] = probs
        return probs, cache

    def predict_batch(self, xr, xc_re, xc_im) -> np.ndarray:
        """Zero-based class indices for a patch stack."""
        probs, _ = self.forward_batch(xr, xc_re, xc_im, training=False)
        return np.argmax(probs, axis=1)

    def find_nonfinite_layer(self, cache) -> str:
        """Name the first stage whose activations went non-finite."""
        for i, (_, pre) in enumerate(cache["real"]):
            if not np.all(np.isfinite(pre)):
                return f"real_conv{i}"
        for i, (_, _, pre_re, pre_im) in enumerate(cache["cplx"]):
            if not (np.all(np.isfinite(pre_re)) and np.all(np.isfinite(pre_im))):
                return f"cplx_conv{i}"
        if not np.all(np.isfinite(cache["fused"])):
            return "fusion"
        for i, (_, pre, _) in enumerate(cache.get("dense", [])):
            if not np.all(np.isfinite(pre)):
                return f"dense{i}"
        if not np.all(np.isfinite(cache["probs"])):
            return "head"
        return "loss"


# ---------------------------------------------------------------------------
# checkpoint serialization


def save_checkpoint(model: DualStreamModel, manifest_path: str, class_names=None):
    """Write the JSON manifest plus flat little-endian float32 records."""
    params_name = os.path.splitext(os.path.basename(manifest_path))[0] + ".bin"
    params_path = os.path.join(os.path.dirname(manifest_path), params_name)
    layer_table = []
    blobs = []
    offset = 0
    for name, arr in model.param_entries():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        layer_table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dtype": "f32",
        "n_classes": model.n_classes,
        "class_names": list(class_names) if class_names is not None else None,
        "config": model.config.to_json_dict(),
        "config_hash": config_hash(model.config),
        "params_file": params_name,
        "layers": layer_table,
    }
    with open(params_path, "wb") as fh:
        for raw in blobs:
            fh.write(raw)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(manifest_path: str):
    """Rebuild the model from a manifest; returns (model, class_names)."""
    from .errors import IngestionError

    if not os.path.exists(manifest_path):
        raise IngestionError(f"checkpoint manifest not found: {manifest_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"malformed checkpoint manifest {manifest_path}: {exc}") from exc
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise IngestionError(f"unknown checkpoint format {manifest.get('format')!r}")
    config = ModelConfig.from_json_dict(manifest["config"])
    model = DualStreamModel.build(config, int(manifest["n_classes"]), rng=None)
    params_path = os.path.join(os.path.dirname(manifest_path), manifest["params_file"])
    if not os.path.exists(params_path):
        raise IngestionError(f"checkpoint payload not found: {params_path}")
    raw = open(params_path, "rb").read()
    entries = dict(model.param_entries())
    table = manifest["layers"]
    if sorted(entries) != sorted(e["name"] for e in table):
        raise ConfigError("checkpoint layer table does not match the config architecture")
    expected = sum(int(np.prod(e["shape"])) * 4 for e in table)
    if len(raw) != expected:
        raise IngestionError(
            f"checkpoint payload {params_path}: expected {expected} bytes, found {len(raw)}"
        )
    for entry in table:
        arr = entries[entry["name"]]
        shape = tuple(entry["shape"])
        if shape != arr.shape:
            raise ConfigError(
                f"checkpoint layer {entry['name']}: shape {shape} incompatible with config {arr.shape}"
            )
        count = int(np.prod(shape))
        offset = entry["offset"]
        if not isinstance(offset, int) or offset < 0 or offset + 4 * count > len(raw):
            raise IngestionError(
                f"checkpoint layer {entry['name']}: offset {offset!r} + {4 * count} bytes "
                f"lies outside the {len(raw)}-byte payload"
            )
        vals = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        arr[...] = vals.reshape(shape).astype(arr.dtype)
    return model, manifest.get("class_names")
