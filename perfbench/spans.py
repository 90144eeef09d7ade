"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces module attributes (and two methods of
`DualStreamModel`) with wrappers that record one span per call: name,
start, end and the span open when the call began. Spans stay in memory;
`layer_metrics` turns them into the per-layer metrics. A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
from collections import defaultdict


def _real_conv_flop(x_shape, k_shape):
    """Multiply-adds of a valid real 3D cross-correlation, 2 flops each."""
    mh, mw, md, cin, cout = k_shape
    n, h, w, d = x_shape[:4]
    return 2.0 * n * (h - mh + 1) * (w - mw + 1) * (d - md + 1) * cout * mh * mw * md * cin


# computed from the layer shapes, not counted by hardware: the complex
# forward does 4 real products per offset, every backward twice its forward
def _gflop_real_fwd(x, kernels, bias):
    return _real_conv_flop(x.shape, kernels.shape) / 1e9


def _gflop_cplx_fwd(xr, xi, p):
    return 4 * _real_conv_flop(xr.shape, p.kernels_re.shape) / 1e9


def _gflop_real_bwd(x, kernels, dout):
    return 2 * _real_conv_flop(x.shape, kernels.shape) / 1e9


def _gflop_cplx_bwd(xr, xi, p, dre, dim):
    return 8 * _real_conv_flop(xr.shape, p.kernels_re.shape) / 1e9


def _rows(arr, rows, *rest, **kw):
    return rows.shape[0]


def _rows_predict(model, std_array, rows, *rest, **kw):
    return rows.shape[0]


def _batch(self, xr, *rest, **kw):
    return xr.shape[0]


def _one(*args, **kw):
    return 1


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._open = []

    def wrap(self, owner, attr, name, count=None):
        inner = getattr(owner, attr)
        spans, stack, counts, clock = self.spans, self._open, self.counts, self.clock

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return inner(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if count is not None:
                    counts[name] += count(*args, **kwargs)

        setattr(owner, attr, traced)

    def install(self):
        from hsiduo import cli, data, layers, model, spectral, train

        table = [
            (data, "load_cube", "data.load", None),
            (data, "load_labels", "data.load", None),
            (model, "load_checkpoint", "model.load_checkpoint", None),
            (data, "fit_pca", "data.fit_pca", None),
            (data, "jacobi_eigh", "data.jacobi_eigh", None),
            (data, "standardize", "data.standardize", None),
            (data, "extract_patches_array", "data.extract_patches", _rows),
            (spectral, "bandwise_fft_arrays", "spectral.bandwise_fft", None),
            (layers, "conv3d_real_batch", "layers.conv_real_fwd", _gflop_real_fwd),
            (layers, "conv3d_complex_batch", "layers.conv_cplx_fwd", _gflop_cplx_fwd),
            (layers, "conv3d_real_batch_backward", "layers.conv_real_bwd", _gflop_real_bwd),
            (layers, "conv3d_complex_batch_backward", "layers.conv_cplx_bwd", _gflop_cplx_bwd),
            (layers, "se_forward_batch", "layers.se", None),
            (layers, "se_backward_batch", "layers.se", None),
            (layers, "dense_batch", "layers.dense", None),
            (layers, "dense_batch_backward", "layers.dense", None),
            (model.DualStreamModel, "forward_batch", "model.forward", _batch),
            (model.DualStreamModel, "snapshot_params", "model.snapshot", None),
            (model, "save_checkpoint", "model.save_checkpoint", None),
            (train, "backward", "train.backward", _one),
            (train, "adam_step", "train.adam_step", None),
            (train, "evaluate_loss_accuracy", "train.evaluate", None),
            (cli, "predict_samples", "cli.predict_samples", _rows_predict),
            (cli, "write_ppm", "cli.write_ppm", None),
        ]
        for owner, attr, name, count in table:
            self.wrap(owner, attr, name, count)

    def layer_metrics(self, job_start: float, job_s: float) -> dict:
        """Per-layer figures over the whole process (set-up and job), and
        the share of the job's wall time that spans cover."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        covered = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            elif start >= job_start:
                covered += dur
        c = self.counts

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        fwd_s = total["layers.conv_real_fwd"] + total["layers.conv_cplx_fwd"]
        bwd_s = total["layers.conv_real_bwd"] + total["layers.conv_cplx_bwd"]
        fwd_gflop = c["layers.conv_real_fwd"] + c["layers.conv_cplx_fwd"]
        bwd_gflop = c["layers.conv_real_bwd"] + c["layers.conv_cplx_bwd"]
        values = {
            "data.load_s": total["data.load"],
            "model.load_checkpoint_s": total["model.load_checkpoint"],
            "data.fit_pca_s": self_s["data.fit_pca"],
            "data.jacobi_eigh_s": total["data.jacobi_eigh"],
            "data.standardize_s": total["data.standardize"],
            "data.extract_patches_s": total["data.extract_patches"],
            "data.extract_patches_px": c["data.extract_patches"],
            "spectral.bandwise_fft_s": total["spectral.bandwise_fft"],
            "layers.conv_real_fwd_s": total["layers.conv_real_fwd"],
            "layers.conv_cplx_fwd_s": total["layers.conv_cplx_fwd"],
            "layers.conv_fwd_gflop": fwd_gflop,
            "layers.conv_fwd_gflop_per_s": rate(fwd_gflop, fwd_s),
            "layers.conv_real_bwd_s": total["layers.conv_real_bwd"],
            "layers.conv_cplx_bwd_s": total["layers.conv_cplx_bwd"],
            "layers.conv_bwd_gflop": bwd_gflop,
            "layers.conv_bwd_gflop_per_s": rate(bwd_gflop, bwd_s),
            "layers.se_s": total["layers.se"],
            "layers.dense_s": total["layers.dense"],
            "model.forward_self_s": self_s["model.forward"],
            "model.forward_px": c["model.forward"],
            "train.backward_self_s": self_s["train.backward"],
            "train.adam_step_s": total["train.adam_step"],
            "train.steps": c["train.backward"],
            "train.evaluate_s": self_s["train.evaluate"],
            "model.snapshot_s": total["model.snapshot"],
            "model.save_checkpoint_s": total["model.save_checkpoint"],
            "cli.predict_samples_self_s": self_s["cli.predict_samples"],
            "cli.predict_px_per_s": rate(c["cli.predict_samples"], total["cli.predict_samples"]),
            "cli.write_ppm_s": total["cli.write_ppm"],
            "trace.self_share": 100.0 * covered / job_s,
        }
        return values
