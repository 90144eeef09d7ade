"""Categorical cross-entropy, the loss and gradient of one training step,
Adam, and the training loop with early stopping on validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schema
from .errors import ConfigError, DataError, DimensionError, NumericError
from .schema import above, at_least

LOG_CLAMP = 1e-12
# evaluate_loss_accuracy sums the loss per batch: another batch changes val_loss in its last bits
_EVAL_BATCH = 256


@dataclass
class TrainConfig:
    """The Adam schedule and early stopping: one field table (see schema)."""

    epochs: int = field(default=100, metadata=at_least(1))
    batch_size: int = field(default=16, metadata=at_least(1))
    patience: int = field(default=10, metadata=at_least(1))
    lr: float = field(default=1e-3, metadata=above(0))
    seed: int = field(default=0, metadata=at_least(0))

    def validate(self):
        """Raise ConfigError naming the offending field."""
        schema.read(self.to_json_dict(), TrainConfig, "train")
        if self.patience > self.epochs:
            raise ConfigError(f"train.patience: {self.patience} exceeds epochs {self.epochs}")

    to_json_dict = schema.to_json

    @staticmethod
    def from_json_dict(doc: dict) -> "TrainConfig":
        return schema.read(doc, TrainConfig, "train")


# ---------------------------------------------------------------------------
# loss


def _cross_entropy_sum(probs: np.ndarray, onehot: np.ndarray):
    """Summed cross-entropy of probability rows, the log clamped at LOG_CLAMP."""
    return -(onehot * np.log(np.maximum(probs, LOG_CLAMP))).sum()


def cross_entropy_batch(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean cross-entropy over a batch of probability rows."""
    return float(_cross_entropy_sum(probs, onehot) / probs.shape[0])


# ---------------------------------------------------------------------------
# one training step's loss and gradient


def backward(model, batch, targets, dropout_seed=None, grad=None):
    """Mean batch loss and the gradient of every parameter.

    batch is the (xr, xc_re, xc_im) triple of patch stacks; targets are
    one-hot rows. The gradient is one flat buffer laid out like
    model.flat; model.param_entries(grad) names its views. Every view is
    written in full, so a held buffer passed as grad is reused as it is,
    without zeroing; without one a fresh buffer is returned. A
    dropout_seed makes it a training step, with dropout on.
    """
    onehot = np.asarray(targets, dtype=model.flat.dtype)  # a float64 one would widen dlogits
    probs, cache = model.forward_batch(*batch, dropout_seed=dropout_seed)
    loss = cross_entropy_batch(probs, onehot)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss; first bad layer: {model.find_nonfinite_layer(cache)}")
    if grad is None:
        grad = np.empty_like(model.flat)
    elif grad.shape != model.flat.shape:
        raise DimensionError(f"gradient: shape {grad.shape} != parameters {model.flat.shape}")
    # softmax + cross-entropy, averaged over the batch
    model.backward_batch(cache, (probs - onehot) / probs.shape[0], grad)
    return loss, grad


# ---------------------------------------------------------------------------
# Adam


# elements per block of the Adam update: its five float32 operands (128 KiB each)
# stay in cache across the update's passes
_ADAM_BLOCK = 1 << 15
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment buffers laid out like the parameter buffer, the
    step counter, and one block of scratch for the update."""

    def __init__(self, params, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = np.empty(min(params.size, _ADAM_BLOCK), dtype=params.dtype)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState):
    """One bias-corrected Adam update, applied in place to the flat
    parameter buffer. Adam treats every value on its own, so one
    vectorized update over the buffer equals one per parameter array:

        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g^2
        params -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    The update runs block by block, each block through all of its passes
    while it is in cache; every value sees the same operations in the same
    order as in one pass over the whole buffer, so the result is the same
    bit for bit. The step allocates nothing: it works in state.scratch and
    consumes grad as a second scratch, so grad holds no gradient
    afterwards.
    """
    if grad.shape != params.shape:
        raise DimensionError(f"gradient: shape {grad.shape} != parameters {params.shape}")
    state.t += 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    p, g, m, v = (a.reshape(-1) for a in (params, grad, state.m, state.v))
    for lo in range(0, p.size, _ADAM_BLOCK):
        block = slice(lo, lo + _ADAM_BLOCK)
        gb, mb, vb = g[block], m[block], v[block]
        tmp = state.scratch[: gb.size]
        mb *= b1
        mb += np.multiply(gb, 1.0 - b1, out=tmp)
        vb *= b2
        vb += np.multiply(np.multiply(gb, gb, out=tmp), 1.0 - b2, out=tmp)
        den = np.sqrt(np.divide(vb, c2, out=gb), out=gb)
        den += _ADAM_EPS
        step = np.multiply(np.divide(mb, c1, out=tmp), state.lr, out=tmp)
        p[block] -= np.divide(step, den, out=tmp)
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


def evaluate_loss_accuracy(model, data: PatchSet):
    """(mean loss, accuracy) of a model over a patch set, eval mode."""
    n = len(data)
    total_loss = 0.0
    correct = 0
    onehot = data.onehot(model.n_classes)
    for lo in range(0, n, _EVAL_BATCH):
        hi = min(lo + _EVAL_BATCH, n)
        probs, _ = model.forward_batch(data.xr[lo:hi], data.xc_re[lo:hi], data.xc_im[lo:hi], cache=False)
        total_loss += _cross_entropy_sum(probs, onehot[lo:hi])
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

    state = AdamState(model.flat, lr=cfg.lr)
    grad = np.empty_like(model.flat)  # held across steps; backward fills it
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
            try:
                loss, _ = backward(model, batch, onehot_all[idx], dropout_seed=(cfg.seed, epoch, step), grad=grad)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} step {step + 1}: {exc}") from None
            adam_step(model.flat, grad, state)
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
