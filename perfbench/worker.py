"""One benchmark process: set up one workload, run its job once, measure
it, then check the job's outputs.

    python3 perfbench/worker.py '<json spec>'

`run.py` starts it with the program's `src` on PYTHONPATH and every
BLAS/OpenMP pool pinned to one thread. The last line of standard output
is a JSON object; its `job_start` is read from the system-wide monotonic
clock, so the parent can time set-up from the moment it started this
process. With `"setup_only": true` the process stops where the job would
begin.
"""

import json
import os
import resource
import sys
import time
from dataclasses import replace

import numpy as np

from hsiduo import cli, data, model, train


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mib():
    """High-water resident set of this process image. Not ru_maxrss: Linux
    carries the spawning process's high-water mark across exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def capture(owner, attr, into: list):
    """Keep the arguments and result of every call, for the checks."""
    inner = getattr(owner, attr)

    def keep(*args, **kwargs):
        out = inner(*args, **kwargs)
        into.append((args, out))
        return out

    setattr(owner, attr, keep)


DESK_EPOCHS = 50
# criterion 8's train seed. The run seed picks the checked pixels instead:
# across train seeds 1-16 one (9) ends below the OA 0.95 the check asks for
DESK_TRAIN_SEED = 0
DESK_MIN_OA = 0.95  # criterion 8's bar for the noisy scene
FIT_EPOCHS = 4
FIT_BATCH = 16
FIT_TRAIN_PIXELS = 128  # 8 full batches per epoch
REF_SAMPLE = 64  # pixels per run checked against the reference forward pass


def _config(epochs):
    cfg = model.ModelConfig()
    return replace(cfg, train=replace(cfg.train, epochs=epochs, patience=epochs))


# ---------------------------------------------------------------------------
# set-up: everything before the job starts


def setup_train_desk(s):
    inp = s["inputs"]
    return {"cube": data.load_cube(inp["desk_cube"]),
            "labels": data.load_labels(inp["desk_labels"]),
            "config": _config(DESK_EPOCHS)}


def setup_fit_b16(s):
    inp = s["inputs"]
    cube = data.load_cube(inp["fit_cube"])
    label_map = data.load_labels(inp["fit_labels"])
    cfg = _config(FIT_EPOCHS)
    _, reduced = data.fit_pca(cube, cfg.pca_components)
    std = data.standardize(reduced).as_array()
    tr, va, _ = data.stratified_split(label_map, seed=s["seed"])
    train_ps = cli.build_patchset(std, tr, cfg.patch_size)
    val_ps = cli.build_patchset(std, va, cfg.patch_size)
    net = model.DualStreamModel.build(
        cfg, label_map.n_classes, rng=np.random.default_rng(np.random.SeedSequence([s["seed"], 0x1D17])))
    return {"model": net, "train": train_ps, "val": val_ps,
            "train_cfg": replace(cfg.train, batch_size=FIT_BATCH, seed=s["seed"])}


def setup_map_pu(s):
    inp = s["inputs"]
    net, _ = model.load_checkpoint(inp["pu_checkpoint"])
    return {"model": net, "cube": data.load_cube(inp["pu_cube"]),
            "labels": data.load_labels(s["map_labels"])}


# ---------------------------------------------------------------------------
# jobs


def job_train_desk(st, s):
    """cmd_train after its inputs are read: train, then write the artefacts."""
    net, history, report, names = cli.run_training(st["cube"], st["labels"], st["config"],
                                                 DESK_TRAIN_SEED)
    out = s["out"]
    model.save_checkpoint(net, os.path.join(out, "checkpoint.json"), names)
    for name, doc in (("history", history), ("report", report)):
        with open(os.path.join(out, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
    return {"history": history, "report": report, "model": net}


def job_fit_b16(st, s):
    net, history = train.fit(st["model"], st["train"], st["val"], st["train_cfg"])
    return {"history": history, "model": net}


def job_map_pu(st, s):
    """cmd_map without --full after its inputs are read."""
    net, label_map = st["model"], st["labels"]
    _, reduced = data.fit_pca(st["cube"], net.config.pca_components)
    std = data.standardize(reduced).as_array()
    coords = np.argwhere(label_map.labels != 0)
    rows, cols = coords[:, 0], coords[:, 1]
    pred = cli.predict_samples(net, std, rows, cols, net.config.patch_size)
    rgb = np.zeros((label_map.height, label_map.width, 3), dtype=np.uint8)
    rgb[rows, cols] = np.array([cli.class_color(int(c)) for c in pred], dtype=np.uint8)
    cli.write_ppm(os.path.join(s["out"], "map.ppm"), rgb)
    return {}


# ---------------------------------------------------------------------------
# checks, after the measurement


def _pca_errors(checks, seen, cube_path):
    """PCA properties of the program's one fit_pca call; returns (errors,
    the reduced cube)."""
    _, (pca, reduced) = seen["fit_pca"][0]
    reduced = reduced.as_array()
    pixels = checks.read_cube(cube_path).reshape(-1, pca.components.shape[0])
    return checks.check_pca(pixels, pca.components, pca.explained_variance, reduced), reduced


def _sample(n, k, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4E]))
    return np.sort(rng.choice(n, size=min(k, n), replace=False))


def check_train_desk(out, st, s, seen):
    import checks

    inp = s["inputs"]
    errors, reduced = _pca_errors(checks, seen, inp["desk_cube"])
    (_, _, rows, cols, *_), pred = seen["predict_samples"][0]
    truth = checks.read_labels(inp["desk_labels"])[rows, cols]
    errors += checks.check_report(out["report"], truth, pred, DESK_MIN_OA)
    errors += checks.check_fit(out["history"], out["model"].param_entries(), DESK_EPOCHS)
    pick = _sample(rows.shape[0], REF_SAMPLE, s["seed"])
    config, weights = checks.read_checkpoint(os.path.join(s["out"], "checkpoint.json"))
    probs = checks.reference_probs(config, weights, checks.standardized(reduced),
                                   rows[pick], cols[pick])
    more, compared = checks.check_predictions(probs, pred[pick], "train_desk")
    return errors + more, compared


def check_fit_b16(out, st, s, seen):
    import checks

    errors, _ = _pca_errors(checks, seen, s["inputs"]["fit_cube"])
    if len(st["train"]) != FIT_TRAIN_PIXELS:
        errors.append(f"fit_b16: {len(st['train'])} training pixels, expected {FIT_TRAIN_PIXELS}")
    errors += checks.check_fit(out["history"], out["model"].param_entries(), FIT_EPOCHS)
    return errors, 0


def check_map_pu(out, st, s, seen):
    import checks

    errors, reduced = _pca_errors(checks, seen, s["inputs"]["pu_cube"])
    labels = checks.read_labels(s["map_labels"])
    coords = np.argwhere(labels != 0)
    pick = coords[_sample(coords.shape[0], REF_SAMPLE, s["seed"])]
    config, weights = checks.read_checkpoint(s["inputs"]["pu_checkpoint"])
    probs = checks.reference_probs(config, weights, checks.standardized(reduced),
                                   pick[:, 0], pick[:, 1])
    more, compared = checks.check_map(os.path.join(s["out"], "map.ppm"), labels,
                                      pick[:, 0], pick[:, 1], probs)
    return errors + more, compared


WORKLOADS = {
    "train_desk": (setup_train_desk, job_train_desk, check_train_desk),
    "fit_b16": (setup_fit_b16, job_fit_b16, check_fit_b16),
    "map_pu": (setup_map_pu, job_map_pu, check_map_pu),
}


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(now)
        tracer.install()
    seen = {"fit_pca": [], "predict_samples": []}
    capture(data, "fit_pca", seen["fit_pca"])
    capture(cli, "predict_samples", seen["predict_samples"])

    setup, job, check = WORKLOADS[spec["workload"]]
    state = setup(spec)
    t0 = now()
    if spec["setup_only"]:
        print(json.dumps({"job_start": t0}))
        return
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    out = job(state, spec)
    t1 = now()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "job_start": t0,
        "job_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "sys_s": r1.ru_stime - r0.ru_stime,
        "minor_faults": r1.ru_minflt - r0.ru_minflt,
        "peak_rss_mb": peak_rss_mib(),
        "epochs": len(out.get("history", [])),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(t0, t1 - t0)
        with open(os.path.join(spec["out"], "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    result["errors"], result["compared"] = check(out, state, spec, seen)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
