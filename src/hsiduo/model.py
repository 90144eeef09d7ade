"""Dual-branch model: real conv stack over a patch + complex conv stack
over its band-wise FFT, channel-concatenation fusion, optional SE
recalibration, and a fully-connected softmax head: its forward pass and
the backward pass through it.

Also owns the run configuration schema and the checkpoint format
(flat little-endian float32 records plus a JSON manifest).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field

import numpy as np

from . import layers, schema, spectral
from .errors import ConfigError, DimensionError, IngestionError
from .schema import at_least
from .train import TrainConfig

CHECKPOINT_FORMAT = "hsiduo-checkpoint-v1"


@dataclass
class ConvLayerSpec:
    kernel: tuple[int, int, int] = field(metadata=at_least(1))  # (mh, mw, md)
    channels: int = field(metadata=at_least(1))


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
    """Every architecture choice left open by the protocol, made explicit,
    as one field table (see schema).

    Defaults: three conv layers per stream collapsing an 8x8x16 patch to a
    1x1 fused map of 192 channels, a 128-wide hidden layer, SE ratio 4.
    """

    pca_components: int = field(default=16, metadata=at_least(1))
    patch_size: int = 8
    real_convs: list[ConvLayerSpec] = field(default_factory=_default_convs)
    complex_convs: list[ConvLayerSpec] = field(default_factory=_default_convs)
    se_ratio: int = field(default=4, metadata=at_least(1))
    se_enabled: bool = True
    dense_widths: list[int] = field(default_factory=lambda: [128], metadata=at_least(1))
    dropout_rate: float = field(default=0.55, metadata=at_least(0, below=1))
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
        """Raise ConfigError naming the offending field: the per-field types
        and bounds of the table, then the checks that span fields."""
        schema.read(self.to_json_dict(), ModelConfig, "")
        s = self.patch_size
        if s < 2 or (s & (s - 1)) != 0:
            raise ConfigError(f"patch_size: must be a power of two >= 2, got {s}")
        for name, convs in (("real_convs", self.real_convs), ("complex_convs", self.complex_convs)):
            if not convs:
                raise ConfigError(f"{name}: need at least one conv layer per stream")
            for i, (h, w, d, _) in enumerate(self.stack_geometry(convs)):
                if min(h, w, d) < 1:
                    raise ConfigError(
                        f"{name}[{i}]: valid padding exhausts the input (dims become {(h, w, d)})"
                    )
        rgeo = self.stack_geometry(self.real_convs)[-1]
        cgeo = self.stack_geometry(self.complex_convs)[-1]
        if rgeo[:2] != cgeo[:2]:
            raise ConfigError(
                f"complex_convs: spatial output {cgeo[:2]} differs from real stream {rgeo[:2]}; "
                "streams must align for fusion"
            )
        if self.se_enabled and (cf := self.fused_channels()) % self.se_ratio != 0:
            raise ConfigError(f"se_ratio: {self.se_ratio} does not divide fused channels {cf}")
        _param_count(_param_table(self, 2))  # the head counted at 2 classes
        self.train.validate()

    # -- serialization ------------------------------------------------

    to_json_dict = schema.to_json

    @staticmethod
    def from_json_dict(doc: dict) -> "ModelConfig":
        return schema.read(doc, ModelConfig, "")


def config_hash(config: ModelConfig) -> str:
    canonical = json.dumps(config.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the parameter table


def _param_table(config: ModelConfig, n_classes: int) -> list:
    """Every parameter, declared once in checkpoint and rng order, grouped
    by layer: [(kind, path, [(name, shape, glorot), ...]), ...]. path is
    the config field that sizes the layer (n_classes for the head). glorot
    is the (fan_in, fan_out, scale) of a drawn weight and None for a bias,
    which starts at zero and draws nothing. A complex weight is two real
    arrays, re then im, each at scale 1/sqrt(2) so the expected modulus
    variance matches the real initialization."""
    table = []
    for kind, key, parts, scale in (
        ("real_conv", "real_convs", ("",), 1.0),
        ("cplx_conv", "complex_convs", ("_re", "_im"), 1.0 / np.sqrt(2.0)),
    ):
        cin = 1
        for i, spec in enumerate(getattr(config, key)):
            taps = math.prod(spec.kernel)
            glorot = (taps * cin, taps * spec.channels, scale)
            kernels = (*spec.kernel, cin, spec.channels)
            table.append((kind, f"{key}[{i}]", [(f"{kind}{i}.kernels{p}", kernels, glorot) for p in parts]
                          + [(f"{kind}{i}.bias{p}", (spec.channels,), None) for p in parts]))
            cin = spec.channels
    cf = config.fused_channels()
    if config.se_enabled:
        red = cf // config.se_ratio
        table.append(("se", "se_ratio", [("se.w1", (red, cf), (cf, red, 1.0)), ("se.w2", (cf, red), (red, cf, 1.0))]))
    rh, rw = config.stack_geometry(config.real_convs)[-1][:2]
    n_in = rh * rw * cf
    denses = [("dense", f"dense_widths[{i}]", f"dense{i}", width) for i, width in enumerate(config.dense_widths)]
    for kind, path, prefix, width in denses + [("head", "n_classes", "head", n_classes)]:
        table.append((kind, path, [(f"{prefix}.weights", (width, n_in), (n_in, width, 1.0)),
                                   (f"{prefix}.bias", (width,), None)]))
        n_in = width
    return table


def _param_count(table) -> int:
    """The number of parameters in a _param_table. A ConfigError names the
    field of the layer that takes them past the sys.maxsize bytes numpy allocates."""
    total = 0
    for _, path, decls in table:
        total += sum(math.prod(shape) for _, shape, _ in decls)
        if 4 * total > sys.maxsize:
            raise ConfigError(f"{path}: takes the model past {sys.maxsize} bytes, more than numpy can allocate")
    return total


# ---------------------------------------------------------------------------
# the model


class DualStreamModel:
    """Holds both conv stacks, the optional SE block, and the FC head.

    Every parameter is a view into one flat float32 buffer, `flat`, taken
    afresh on each use. The checkpoint stores `flat` bit for bit, and
    training and prediction both compute in float32. The constructor's
    parameters are all zero; build draws them.
    """

    def __init__(self, config: ModelConfig, n_classes: int):
        config.validate()
        if n_classes < 2:
            raise ConfigError(f"n_classes: need >= 2 classes, got {n_classes}")
        self.config = config
        self.n_classes = n_classes
        self._table = _param_table(config, n_classes)
        self.flat = np.zeros(_param_count(self._table), dtype=np.float32)

    @staticmethod
    def build(config: ModelConfig, n_classes: int, rng: np.random.Generator) -> "DualStreamModel":
        """Construct with Glorot-initialized weights, drawn in float64 and
        rounded as they are written into `flat`; the biases stay zero."""
        model = DualStreamModel(config, n_classes)
        decls = [decl for _, _, layer in model._table for decl in layer]
        for (_, arr), (_, shape, glorot) in zip(model.param_entries(), decls):
            if glorot is not None:
                arr[...] = layers.glorot_uniform(rng, shape, *glorot)
        return model

    # -- parameters ----------------------------------------------------

    def param_entries(self, buf: np.ndarray | None = None):
        """(name, view) pairs in declaration order, into the live parameters
        or into a buffer laid out like them, such as a gradient."""
        buf = self.flat if buf is None else buf
        out, end = [], 0
        for _, _, decls in self._table:
            for name, shape, _ in decls:
                start, end = end, end + math.prod(shape)
                out.append((name, buf[start:end].reshape(shape)))
        return out

    def layer_views(self, buf: np.ndarray | None = None) -> dict:
        """The views of param_entries grouped as the layers use them: {kind:
        [views per layer]}, a complex conv's as one layers.ComplexWeights."""
        entries = iter(self.param_entries(buf))
        out = {kind: [] for kind in ("real_conv", "cplx_conv", "se", "dense", "head")}
        for kind, _, decls in self._table:
            views = [next(entries)[1] for _ in decls]
            out[kind].append(layers.ComplexWeights(*views) if kind == "cplx_conv" else views)
        return out

    def snapshot_params(self) -> np.ndarray:
        return self.flat.copy()

    def load_params(self, values: np.ndarray):
        if values.shape != self.flat.shape:
            raise DimensionError(f"parameters: shape {values.shape} != expected {self.flat.shape}")
        self.flat[...] = values

    # -- forward and backward ------------------------------------------

    def forward_batch(self, x, dropout_seed=None, cache=True):
        """Probabilities plus the cache backward_batch reads.

        x: [N, S, S, P] patches. The real stream reads them and the
        complex stream their band-wise FFT scaled 1/S^2, computed here
        (spectral.bandwise_fft_arrays); a row's transform does not depend
        on the rows batched with it. Dropout applies only when a
        dropout_seed is given (a training step); its masks are drawn from
        a stream keyed by (dropout_seed, layer index) so serial and
        parallel execution produce identical masks.

        Every layer, the FFT too, computes in x's dtype: float32 patches
        give a float32 forward.

        Every ReLU and CReLU is applied in place, and dropout in place on
        its output, so the cache keeps each conv and dense layer's input
        and output, and that output is the next layer's input.

        With cache=False (evaluation) no cache is kept and (probs, None)
        is returned: each conv layer's input is dropped once its output
        exists. The probabilities are those of the cached forward bit for
        bit.
        """
        n = x.shape[0]
        store = {"real": [], "cplx": [], "dense": []}
        w = self.layer_views()

        a = x[..., None]
        for kernels, bias in w["real_conv"]:
            out = layers.relu(layers.conv3d_real_batch(a, kernels, bias))
            if cache:
                store["real"].append((a, out))
            a = out

        ar, ai = (part[..., None] for part in spectral.bandwise_fft_arrays(x))
        for p in w["cplx_conv"]:
            out_re, out_im = map(layers.relu, layers.conv3d_complex_batch(ar, ai, p))
            if cache:
                store["cplx"].append((ar, ai, out_re, out_im))
            ar, ai = out_re, out_im

        # depth axis folded into channels so the SE block sees [H,W,C]
        rh, rw = a.shape[1:3]
        fused = np.concatenate([x.reshape(n, rh, rw, -1) for x in (a, ar, ai)], axis=3)

        se_out = fused
        for w1, w2 in w["se"]:
            se_out, store["se"] = layers.se_forward_batch(fused, w1, w2)

        h = se_out.reshape(n, -1)
        for i, (weights, bias) in enumerate(w["dense"]):
            out = layers.relu(layers.dense_batch(h, weights, bias))
            mask = None
            if dropout_seed is not None and self.config.dropout_rate > 0.0:
                rng = np.random.default_rng(np.random.SeedSequence([*dropout_seed, i]))
                # in the activation's dtype, so that the backward's dh * mask stays in it
                mask = layers.dropout_mask(out.shape, self.config.dropout_rate, rng).astype(out.dtype)
                out *= mask
            if cache:
                store["dense"].append((h, out, mask))
            h = out

        probs = layers.softmax(layers.dense_batch(h, *w["head"][0]))
        if not cache:
            return probs, None
        store.update(fused=fused, head_in=h, probs=probs)
        return probs, store

    def backward_batch(self, cache, dlogits, grad):
        """Write the gradient of every parameter into grad, a flat buffer
        laid out like `flat`, from forward_batch's cache and the loss's
        gradient with respect to the logits. Every view of grad is written
        in full, so a held buffer needs no zeroing.

        Each ReLU mask is read off the layer's output as out > 0, which is
        pre > 0: where dropout zeroed a positive output, the gradient is
        already multiplied by the zero of the dropout mask.

        Complex parameters are trained with the real-composite convention:
        the re and im parts of every complex weight are independent real
        parameters, so each gradient is the plain partial derivative of
        the real loss. That is the defined semantics for the
        non-holomorphic split activation, and it is what central finite
        differences check.
        """
        w = self.layer_views()
        g = self.layer_views(grad)

        def put(views, *values):
            for view, value in zip(views, values):
                view[...] = value

        dh, dw, db = layers.dense_batch_backward(cache["head_in"], w["head"][0][0], dlogits)
        put(g["head"][0], dw, db)

        for i in range(len(w["dense"]) - 1, -1, -1):
            h_in, out, mask = cache["dense"][i]
            if mask is not None:
                dh = dh * mask
            dh = dh * (out > 0)
            dh, dw, db = layers.dense_batch_backward(h_in, w["dense"][i][0], dh)
            put(g["dense"][i], dw, db)

        fused = cache["fused"]
        d_fused = dh.reshape(fused.shape)
        for (w1, w2), g_se in zip(w["se"], g["se"]):
            d_fused, dw1, dw2 = layers.se_backward_batch(fused, w1, w2, cache["se"], d_fused)
            put(g_se, dw1, dw2)

        real_out = cache["real"][-1][1]
        cplx_out = cache["cplx"][-1][2]
        c_real, c_cplx = math.prod(real_out.shape[3:]), math.prod(cplx_out.shape[3:])
        d_real = d_fused[..., :c_real].reshape(real_out.shape)
        # ReLU masks apply in place and each kernel gradient is dropped once
        # stored, so neither stays alive through the next layer's backward
        for i in range(len(w["real_conv"]) - 1, -1, -1):
            x_in, out = cache["real"][i]
            d_real *= out > 0
            d_real, dk, db = layers.conv3d_real_batch_backward(x_in, w["real_conv"][i][0], d_real)
            put(g["real_conv"][i], dk, db)
            del dk

        d_re = d_fused[..., c_real : c_real + c_cplx].reshape(cplx_out.shape)
        d_im = d_fused[..., c_real + c_cplx :].reshape(cplx_out.shape)
        for i in range(len(w["cplx_conv"]) - 1, -1, -1):
            xr_in, xi_in, out_re, out_im = cache["cplx"][i]
            d_re *= out_re > 0
            d_im *= out_im > 0
            d_re, d_im, dkr, dki, dbr, dbi = layers.conv3d_complex_batch_backward(
                xr_in, xi_in, w["cplx_conv"][i], d_re, d_im
            )
            put(g["cplx_conv"][i], dkr, dki, dbr, dbi)
            del dkr, dki

    def predict_batch(self, x) -> np.ndarray:
        """Zero-based class indices for a patch stack."""
        probs, _ = self.forward_batch(x, cache=False)
        return np.argmax(probs, axis=1)

    def find_nonfinite_layer(self, cache) -> str:
        """Name the first stage whose outputs went non-finite."""
        for i, (_, out) in enumerate(cache["real"]):
            if not np.all(np.isfinite(out)):
                return f"real_conv{i}"
        for i, (_, _, out_re, out_im) in enumerate(cache["cplx"]):
            if not (np.all(np.isfinite(out_re)) and np.all(np.isfinite(out_im))):
                return f"cplx_conv{i}"
        if not np.all(np.isfinite(cache["fused"])):
            return "fusion"
        for i, (_, out, _) in enumerate(cache["dense"]):
            if not np.all(np.isfinite(out)):
                return f"dense{i}"
        if not np.all(np.isfinite(cache["probs"])):
            return "head"
        return "loss"


# ---------------------------------------------------------------------------
# checkpoint serialization


def _layer_table(model: DualStreamModel) -> list:
    """The manifest's layer records: each parameter's name, shape and byte
    offset in the float32 payload, in declaration order."""
    table, offset = [], 0
    for name, arr in model.param_entries():
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 4 * arr.size
    return table


def save_checkpoint(model: DualStreamModel, manifest_path: str, class_names=None):
    """Write the JSON manifest plus flat little-endian float32 records.

    Both files are written to temporaries in the target directory and then
    renamed over the old pair, the manifest last, so a failed save leaves
    the previous checkpoint loadable.
    """
    params_name = os.path.splitext(os.path.basename(manifest_path))[0] + ".bin"
    params_path = os.path.join(os.path.dirname(manifest_path), params_name)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dtype": "f32",
        "n_classes": model.n_classes,
        "class_names": list(class_names) if class_names is not None else None,
        "config": model.config.to_json_dict(),
        "config_hash": config_hash(model.config),
        "params_file": params_name,
        "layers": _layer_table(model),
    }
    tmp_params, tmp_manifest = params_path + ".tmp", manifest_path + ".tmp"
    try:
        with open(tmp_params, "wb") as fh:
            fh.write(model.flat.astype("<f4", copy=False).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        with open(tmp_manifest, "w", encoding="utf-8") as fh:
            schema.dump(manifest, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_params, params_path)
        os.replace(tmp_manifest, manifest_path)
    finally:
        for tmp in (tmp_params, tmp_manifest):
            if os.path.exists(tmp):
                os.remove(tmp)


def load_checkpoint(manifest_path: str):
    """Rebuild the model from a manifest; returns (model, class_names).

    The layer table must be the one save_checkpoint writes for the
    manifest's config; the error names the first field that differs. A
    parameter holding a NaN or an infinity is refused by name.
    """
    where = f"checkpoint manifest {manifest_path}"
    manifest = schema.load(manifest_path, dict, where, IngestionError)
    for key, kind in (("format", str), ("config", dict), ("n_classes", int),
                      ("params_file", str), ("layers", list)):
        schema.read(manifest.get(key, MISSING), kind, f"{where}: {key}", IngestionError)
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise IngestionError(f"{where}: unknown checkpoint format {manifest['format']!r}")
    config = manifest["config"]
    if type(config.get("train")) is dict:  # the f32 mode is gone; its knob is dropped
        config["train"].pop("precision", None)
    try:
        config = ModelConfig.from_json_dict(config)
        config.validate()
    except ConfigError as exc:  # a config field or validate's cross-field checks
        raise ConfigError(f"{where}: config.{exc}") from None
    try:
        model = DualStreamModel(config, manifest["n_classes"])
    except ConfigError as exc:  # n_classes
        raise ConfigError(f"{where}: {exc}") from None

    expected = _layer_table(model)
    if len(manifest["layers"]) != len(expected):
        raise IngestionError(f"{where}: {len(manifest['layers'])} layers, the config has {len(expected)}")
    for i, (entry, want) in enumerate(zip(manifest["layers"], expected)):
        schema.read(entry, dict, f"{where}: layers[{i}]", IngestionError)
        for key, value in want.items():
            if entry.get(key) != value:
                found = repr(entry[key]) if key in entry else "nothing"
                raise IngestionError(
                    f"{where}: layers[{i}].{key} must be {value!r} for {want['name']}, found {found}"
                )

    params_path = os.path.join(os.path.dirname(manifest_path), manifest["params_file"])
    if not os.path.exists(params_path):
        raise IngestionError(f"checkpoint payload not found: {params_path}")
    with open(params_path, "rb") as fh:
        raw = fh.read()
    if len(raw) != 4 * model.flat.size:
        raise IngestionError(
            f"checkpoint payload {params_path}: expected {4 * model.flat.size} bytes, found {len(raw)}"
        )
    model.flat[...] = np.frombuffer(raw, dtype="<f4")
    bad = next((name for name, arr in model.param_entries() if not np.isfinite(arr).all()), None)
    if bad is not None:
        raise IngestionError(f"checkpoint payload {params_path}: {bad} holds a NaN or an infinity")
    return model, manifest.get("class_names")
