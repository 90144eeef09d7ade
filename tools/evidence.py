"""Whether two checkouts write byte-identical artifacts, and what moved.

    python3 tools/evidence.py PARENT_DIR CHANGE_DIR

For each synth seed 0 .. SEEDS-1 at noise 0.1 and 0, each checkout's
CLI runs, in fresh processes with 1 BLAS thread: `synth` at SIZE (the
desk scene), then `train --threads 1`, `trial --threads 1 --repeats 2`,
`map` and `map --full` on that synth output and train's checkpoint,
train and trial with the built-in config.

Each checkout also runs criteria 8 and 9 as tests/test_acceptance.py
does, on the desk scene (3 classes, synth seed 0) at seed 0: train at
noise 0.1 for CRITERIA_EPOCHS epochs and at noise 0 with the config's
own, and `trial --repeats CRITERIA_REPEATS` at noise 0.1 for
CRITERIA_EPOCHS epochs, with and without the SE block.

It prints every artifact's sha256 on both sides and whether they match,
skipping the time-stamped `run_manifest.json` and the criteria runs;
then, per (seed, noise) case, how many pixels differ between the two
sides' `map.ppm` and `map_full.ppm` and each side's train and trial OA,
AA and kappa; then each side's criteria figures: criterion 8's OA and
epochs, criterion 9's OA mean and std with and without SE; then one JSON
line holding all of it. It exits 1 when any artifact differs or is
missing from one side.
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
MAPS = ("map.ppm", "map_full.ppm")
REPORTS = {"train": os.path.join("train", "report.json"), "trial": os.path.join("trial", "trial_report.json")}
CRITERIA_EPOCHS = 50  # criterion 8's noisy run and criterion 9's trials
CRITERIA_REPEATS = 5  # criterion 9's trials per arm


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


def criteria_runs(out):
    """The CLI argument lists of criteria 8 and 9, in order, all writing
    under the directory out, where the configs they read are written."""
    base = {}
    if CONFIG:
        with open(CONFIG, encoding="utf-8") as fh:
            base = json.load(fh)
    os.makedirs(out, exist_ok=True)
    configs = {}
    for arm, se_enabled in (("se_on", True), ("se_off", False)):
        configs[arm] = os.path.join(out, f"config_{arm}.json")
        with open(configs[arm], "w", encoding="utf-8") as fh:
            json.dump({**base, "se_enabled": se_enabled,
                       "train": {**base.get("train", {}), "epochs": CRITERIA_EPOCHS}}, fh)
    h, w, b = SIZE
    argv = []
    # criterion 8's noisy run reads criterion 9's config with SE
    for noise, config in (("0.1", configs["se_on"]), ("0", CONFIG)):
        data = os.path.join(out, f"synth_noise{noise}")
        argv += [["synth", "--classes", "3", "--seed", "0", "--noise", noise, "--height", str(h),
                  "--width", str(w), "--bands", str(b), "--out", data],
                 ["train", "--cube", os.path.join(data, "cube.json"), "--labels", os.path.join(data, "labels.json"),
                  *(["--config", config] if config else []), "--seed", "0", "--threads", "1",
                  "--out", os.path.join(out, f"train_noise{noise}")]]
    noisy = os.path.join(out, "synth_noise0.1")
    for arm in ("se_on", "se_off"):
        argv.append(["trial", "--cube", os.path.join(noisy, "cube.json"), "--labels", os.path.join(noisy, "labels.json"),
                     "--config", configs[arm], "--seed", "0", "--repeats", str(CRITERIA_REPEATS),
                     "--threads", "1", "--out", os.path.join(out, f"trial_{arm}")])
    return argv


def criteria_figures(out):
    """One side's criteria figures from the runs of criteria_runs(out):
    criterion 8's OA and epochs per noise, criterion 9's OA mean and std
    per SE arm."""
    def read(*parts):
        with open(os.path.join(out, *parts), encoding="utf-8") as fh:
            return json.load(fh)

    figures = {}
    for noise in ("0.1", "0"):
        run = f"train_noise{noise}"
        figures[f"8 noise {noise}"] = {"oa": read(run, "report.json")["oa"], "epochs": len(read(run, "history.json"))}
    for arm in ("se_on", "se_off"):
        oa = read(f"trial_{arm}", "trial_report.json")["trials"]["oa"]
        figures[f"9 {arm}"] = {"oa_mean": oa["mean"], "oa_std": oa["std"]}
    return figures


def case_name(seed, noise):
    return f"seed{seed}_noise{noise}"


def run_checkout(checkout, out, criteria_out):
    """Run every case with checkout's CLI under out, and the criteria runs
    under criteria_out; returns the sha256 of each artifact under out by
    its path relative to out."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    h, w, b = SIZE
    argvs = []
    for seed in range(SEEDS):
        for noise in NOISES:
            synth = ["--seed", str(seed), "--noise", noise, "--height", str(h), "--width", str(w), "--bands", str(b)]
            argvs += runs(os.path.join(out, case_name(seed, noise)), synth)
    for argv in argvs + criteria_runs(criteria_out):
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


def moved_pixels(a, b):
    """How many pixels differ between two P6 images as write_ppm writes
    them (bytes); None when their headers differ."""
    (*head_a, body_a), (*head_b, body_b) = a.split(b"\n", 3), b.split(b"\n", 3)
    if head_a != head_b:
        return None
    return sum(body_a[i : i + 3] != body_b[i : i + 3] for i in range(0, len(body_a), 3))


def case_figures(parent_out, change_out):
    """Per (seed, noise) case: the moved pixels of each map, and each
    side's train and trial {oa, aa, kappa}."""
    cases = {}
    for seed in range(SEEDS):
        for noise in NOISES:
            case = case_name(seed, noise)
            sides = {"parent": os.path.join(parent_out, case), "change": os.path.join(change_out, case)}

            def read(side, name):
                with open(os.path.join(sides[side], name), "rb") as fh:
                    return fh.read()

            cases[case] = {"moved": {name: moved_pixels(read("parent", name), read("change", name)) for name in MAPS}}
            for run, report in REPORTS.items():
                cases[case][run] = {side: {key: json.loads(read(side, report))[key] for key in ("oa", "aa", "kappa")}
                                    for side in sides}
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        outs = [os.path.join(work, "parent"), os.path.join(work, "change")]
        criteria_outs = [out + "_criteria" for out in outs]
        sides = [run_checkout(*paths) for paths in zip((args.parent, args.change), outs, criteria_outs)]
        cases = case_figures(*outs)
        criteria = dict(zip(("parent", "change"), map(criteria_figures, criteria_outs)))
    rows, summary = compare(*sides)
    for path, a, b, same in rows:
        print(f"{'same' if same else 'DIFF'}  {a or '-' * 64}  {b or '-' * 64}  {path}")
    for case, figures in cases.items():
        moved = "  ".join(f"{name} {'-' if n is None else n}" for name, n in figures["moved"].items())
        print(f"case  {case}  moved pixels: {moved}")
        for run in REPORTS:
            parent, change = ("/".join(f"{m[key]:.6f}" for key in ("oa", "aa", "kappa"))
                              for m in (figures[run]["parent"], figures[run]["change"]))
            print(f"case  {case}  {run} OA/AA/kappa: parent {parent}  change {change}")
    for name in criteria["parent"]:
        parent, change = (" ".join(f"{key} {value:.6f}" if isinstance(value, float) else f"{key} {value}"
                                   for key, value in side[name].items())
                          for side in (criteria["parent"], criteria["change"]))
        print(f"criterion {name}: parent {parent}  change {change}")
    print(json.dumps({**summary, "cases": cases, "criteria": criteria}, sort_keys=True))
    return 0 if not summary["differ"] else 1


if __name__ == "__main__":
    sys.exit(main())
