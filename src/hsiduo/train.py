"""Reverse-mode differentiation, categorical cross-entropy, Adam, and the
training loop with early stopping on validation loss.

Complex parameters are trained with the real-composite convention: the re
and im parts of every complex weight are independent real parameters, so
each gradient is the plain partial derivative of the real loss. That is
the defined semantics for the non-holomorphic split activation, and it is
what central finite differences check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from .errors import ConfigError, DataError, DimensionError, NumericError

LOG_CLAMP = 1e-12


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    patience: int = 10
    lr: float = 1e-3
    seed: int = 0
    precision: str = "f64"

    def validate(self):
        if self.epochs < 1:
            raise ConfigError(f"train.epochs: must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size: must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"train.patience: must be >= 1, got {self.patience}")
        if self.patience > self.epochs:
            raise ConfigError(
                f"train.patience: {self.patience} exceeds epochs {self.epochs}"
            )
        if self.lr <= 0:
            raise ConfigError(f"train.lr: must be positive, got {self.lr}")
        if self.precision not in ("f64", "f32"):
            raise ConfigError(f"train.precision: expected 'f64' or 'f32', got {self.precision!r}")

    def to_json_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "patience": self.patience,
            "lr": self.lr,
            "seed": self.seed,
            "precision": self.precision,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ConfigError("train: expected a JSON object")
        cfg = TrainConfig()
        known = {"epochs", "batch_size", "patience", "lr", "seed", "precision"}
        for key in doc:
            if key not in known:
                raise ConfigError(f"train.{key}: unknown config field")
        return TrainConfig(
            epochs=int(doc.get("epochs", cfg.epochs)),
            batch_size=int(doc.get("batch_size", cfg.batch_size)),
            patience=int(doc.get("patience", cfg.patience)),
            lr=float(doc.get("lr", cfg.lr)),
            seed=int(doc.get("seed", cfg.seed)),
            precision=str(doc.get("precision", cfg.precision)),
        )


# ---------------------------------------------------------------------------
# loss


def cross_entropy_batch(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean cross-entropy over a batch of probability rows."""
    return float(-(onehot * np.log(np.maximum(probs, LOG_CLAMP))).sum() / probs.shape[0])


# ---------------------------------------------------------------------------
# backward through the whole graph


def backward(model, batch, targets, training=False, dropout_seed=None):
    """Mean batch loss and gradients for every parameter.

    batch is the (xr, xc_re, xc_im) triple of patch stacks; targets are
    one-hot rows. Gradient keys mirror model.param_entries().
    """
    xr, xc_re, xc_im = batch
    onehot = np.asarray(targets, dtype=np.float64)
    probs, cache = model.forward_batch(
        xr, xc_re, xc_im, training=training, dropout_seed=dropout_seed
    )
    loss = cross_entropy_batch(probs, onehot)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss; first bad layer: {model.find_nonfinite_layer(cache)}")

    n = probs.shape[0]
    grads = {}

    # softmax + cross-entropy, averaged over the batch
    dlogits = (probs - onehot) / n

    dh, dw, db = layers.dense_batch_backward(cache["head_in"], model.head, dlogits)
    grads["head.weights"] = dw
    grads["head.bias"] = db

    for i in range(len(model.denses) - 1, -1, -1):
        h_in, pre, mask = cache["dense"][i]
        if mask is not None:
            dh = dh * mask
        dh = dh * (pre > 0)
        dh, dw, db = layers.dense_batch_backward(h_in, model.denses[i], dh)
        grads[f"dense{i}.weights"] = dw
        grads[f"dense{i}.bias"] = db

    d_se_out = dh.reshape(cache["flat_shape"])

    if model.se is not None:
        d_fused, dw1, dw2 = layers.se_backward_batch(cache["fused"], model.se, cache["se"], d_se_out)
        grads["se.w1"] = dw1
        grads["se.w2"] = dw2
    else:
        d_fused = d_se_out

    c_real, c_cplx = cache["split"]
    d_rfold = d_fused[..., :c_real]
    d_crfold = d_fused[..., c_real : c_real + c_cplx]
    d_cifold = d_fused[..., c_real + c_cplx :]

    real_shape, cplx_shape = cache["fold_shapes"]
    d_real = d_rfold.reshape(real_shape)
    for i in range(len(model.real_convs) - 1, -1, -1):
        x_in, pre = cache["real"][i]
        d_pre = d_real * (pre > 0)
        d_real, dk, db = layers.conv3d_real_batch_backward(x_in, model.real_convs[i].kernels, d_pre)
        grads[f"real_conv{i}.kernels"] = dk
        grads[f"real_conv{i}.bias"] = db

    d_re = d_crfold.reshape(cplx_shape)
    d_im = d_cifold.reshape(cplx_shape)
    for i in range(len(model.cplx_convs) - 1, -1, -1):
        xr_in, xi_in, pre_re, pre_im = cache["cplx"][i]
        d_pre_re = d_re * (pre_re > 0)
        d_pre_im = d_im * (pre_im > 0)
        d_re, d_im, dkr, dki, dbr, dbi = layers.conv3d_complex_batch_backward(
            xr_in, xi_in, model.cplx_convs[i], d_pre_re, d_pre_im
        )
        grads[f"cplx_conv{i}.kernels_re"] = dkr
        grads[f"cplx_conv{i}.kernels_im"] = dki
        grads[f"cplx_conv{i}.bias_re"] = dbr
        grads[f"cplx_conv{i}.bias_im"] = dbi

    return loss, grads


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params}
        self.v = {name: np.zeros_like(arr) for name, arr in params}


def adam_step(params, grads: dict, state: AdamState):
    """One bias-corrected Adam update, applied in place to the live arrays."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, arr in params:
        g = grads[name]
        if g.shape != arr.shape:
            raise DimensionError(f"gradient {name}: shape {g.shape} != parameter {arr.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        arr -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# ---------------------------------------------------------------------------
# dataset container and the fit loop


@dataclass
class PatchSet:
    """Patch stacks plus labels for one split; labels are 1-based classes."""

    xr: np.ndarray
    xc_re: np.ndarray
    xc_im: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.labels.shape[0]

    def onehot(self, n_classes: int) -> np.ndarray:
        out = np.zeros((len(self), n_classes))
        out[np.arange(len(self)), self.labels - 1] = 1.0
        return out

    def subset(self, idx) -> "PatchSet":
        return PatchSet(self.xr[idx], self.xc_re[idx], self.xc_im[idx], self.labels[idx])


def evaluate_loss_accuracy(model, data: PatchSet, batch_size: int = 256):
    """(mean loss, accuracy) of a model over a patch set, eval mode."""
    n = len(data)
    total_loss = 0.0
    correct = 0
    onehot = data.onehot(model.n_classes)
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        probs, _ = model.forward_batch(data.xr[lo:hi], data.xc_re[lo:hi], data.xc_im[lo:hi])
        total_loss += -(onehot[lo:hi] * np.log(np.maximum(probs, LOG_CLAMP))).sum()
        correct += int((np.argmax(probs, axis=1) == data.labels[lo:hi] - 1).sum())
    return total_loss / n, correct / n


def fit(model, train_set: PatchSet, val_set: PatchSet, cfg: TrainConfig):
    """Train with Adam and early stopping; returns (model, history).

    The monitored metric is validation loss. Training stops once it has
    failed to improve (strictly) for cfg.patience consecutive epochs, and
    the model is restored to the best epoch's weights.
    """
    cfg.validate()
    if len(train_set) == 0:
        raise DataError("fit: empty training set")
    if len(val_set) == 0:
        raise DataError("fit: empty validation set")

    params = model.param_entries()
    state = AdamState(params, lr=cfg.lr)
    onehot_all = train_set.onehot(model.n_classes)

    best_loss = None
    best_params = None
    bad_epochs = 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        # dedicated shuffle stream, keyed by (seed, epoch)
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 0x51, epoch])
        ).permutation(len(train_set))
        epoch_loss = 0.0
        for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            batch = (train_set.xr[idx], train_set.xc_re[idx], train_set.xc_im[idx])
            loss, grads = backward(
                model,
                batch,
                onehot_all[idx],
                training=True,
                dropout_seed=(cfg.seed, epoch, step),
            )
            adam_step(params, grads, state)
            epoch_loss += loss * len(idx)
        train_loss = epoch_loss / len(train_set)

        val_loss, val_oa = evaluate_loss_accuracy(model, val_set)
        history.append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss, "val_oa": val_oa}
        )

        if best_loss is None or val_loss < best_loss:
            best_loss = val_loss
            best_params = model.snapshot_params()
            bad_epochs = 0
        else:
            if val_loss == best_loss:
                # equal-best epochs keep training's margin growth; a tie
                # still counts as "did not improve" for the patience rule
                best_params = model.snapshot_params()
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    model.load_params(best_params)
    return model, history
