"""Whether two checkouts write byte-identical artifacts.

    python3 tools/evidence.py PARENT_DIR CHANGE_DIR

For each synth seed 0 .. SEEDS-1 at noise 0.1 and 0, each checkout's
CLI runs, in fresh processes with 1 BLAS thread: `synth` at SIZE (the
desk scene), then `train --threads 1`, `trial --threads 1 --repeats 2`,
`map` and `map --full` on that synth output and train's checkpoint,
train and trial with the built-in config.

It prints every artifact's sha256 on both sides and whether they match,
skipping the time-stamped `run_manifest.json`, then one JSON line, and
exits 1 when any artifact differs or is missing from one side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SEEDS = 5
SIZE = (32, 32, 16)  # synth's height, width and bands
CONFIG = None  # a config JSON for train and trial; None: the built-in one
NOISES = ("0.1", "0")
SKIPPED = "run_manifest.json"  # holds the time it was written


def runs(case, synth_flags):
    """The CLI argument lists for one (seed, noise) case, in order, all
    writing under the directory case."""
    data = os.path.join(case, "synth")
    inputs = ["--cube", os.path.join(data, "cube.json"), "--labels", os.path.join(data, "labels.json")]
    config = ["--config", os.path.abspath(CONFIG)] if CONFIG else []
    checkpoint = ["--checkpoint", os.path.join(case, "train", "checkpoint.json")]
    return [
        ["synth", *synth_flags, "--out", data],
        ["train", *inputs, *config, "--threads", "1", "--out", os.path.join(case, "train")],
        ["trial", *inputs, *config, "--threads", "1", "--repeats", "2", "--out", os.path.join(case, "trial")],
        ["map", *inputs, *checkpoint, "--out", os.path.join(case, "map.ppm")],
        ["map", *inputs, *checkpoint, "--full", "--out", os.path.join(case, "map_full.ppm")],
    ]


def run_checkout(checkout, out):
    """Run every case with checkout's CLI under out; returns the sha256 of
    each artifact by its path relative to out."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    h, w, b = SIZE
    for seed in range(SEEDS):
        for noise in NOISES:
            synth = ["--seed", str(seed), "--noise", noise, "--height", str(h), "--width", str(w), "--bands", str(b)]
            for argv in runs(os.path.join(out, f"seed{seed}_noise{noise}"), synth):
                proc = subprocess.run([sys.executable, "-m", "hsiduo", *argv], env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"error: hsiduo {' '.join(argv)} ({checkout}) exited "
                                     f"{proc.returncode}: {proc.stderr.strip()}")
    digests = {}
    for root, _, files in os.walk(out):
        for name in files:
            if name != SKIPPED:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def compare(parent, change):
    """(rows, summary): one row (path, parent sha256, change sha256, same)
    per artifact on either side, a side without it reading None."""
    rows = [(path, parent.get(path), change.get(path), path in parent and parent.get(path) == change.get(path))
            for path in sorted(parent.keys() | change.keys())]
    summary = {"artifacts": len(rows), "identical": sum(row[3] for row in rows),
               "differ": [row[0] for row in rows if not row[3]]}
    return rows, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        sides = [run_checkout(checkout, os.path.join(work, side))
                 for side, checkout in (("parent", args.parent), ("change", args.change))]
    rows, summary = compare(*sides)
    for path, a, b, same in rows:
        print(f"{'same' if same else 'DIFF'}  {a or '-' * 64}  {b or '-' * 64}  {path}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if not summary["differ"] else 1


if __name__ == "__main__":
    sys.exit(main())
