"""Benchmark of the hsiduo program: one workload per call.

    python3 perfbench/run.py --workload {train_desk,fit_b16,map_pu} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The first call makes the inputs under
`.perfbench/` (see prepare.py); every call then starts fresh worker
processes (worker.py), one per set-up or job, with one BLAS thread each.

--trace 0 prints the end-to-end metrics: set-up time (median of every
process started), and the job's wall time, CPU time and peak memory
(medians over the jobs run: jobs repeat while another fits in --seconds).
--trace 1 runs one untraced and one traced job and prints the per-layer
metrics of the traced one. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import prepare

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_SAMPLES = 5  # set-up times per run, job processes included
RUN_LIMIT_S = 170.0  # every call ends within 180 s once the inputs exist


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, spec, deadline):
        self.spec = spec
        self.deadline = deadline
        self.env = prepare.child_env()

    def start(self, setup_only=False, trace=False):
        """(set-up seconds, worker result) or None when the worker failed."""
        spec = dict(self.spec, setup_only=setup_only, trace=trace)
        t0 = now()
        try:
            proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            print(f"worker timed out ({spec['workload']})", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker exited with {proc.returncode} ({spec['workload']})", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        return result["job_start"] - t0, result


def end_to_end(runner, seconds):
    setups, jobs, failed = [], [], 0
    for _ in range(SETUP_SAMPLES - 1):
        got = runner.start(setup_only=True)
        if got is None:
            raise SystemExit("a set-up process failed")
        setups.append(got[0])
    first = now()
    while True:
        got = runner.start()
        if got is None:
            failed += 1
        else:
            setups.append(got[0])
            jobs.append(got[1])
        spent = now() - first
        if spent + spent / (len(jobs) + failed) > seconds:
            break
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("job_s", "cpu_s", "peak_rss_mb"):
        if jobs:
            metrics[key] = statistics.median(j[key] for j in jobs)
    return metrics, jobs, failed


def per_layer(runner):
    plain = runner.start()
    traced = runner.start(trace=True)
    jobs = [j[1] for j in (plain, traced) if j is not None]
    failed = 2 - len(jobs)
    if traced is None or plain is None:
        return {}, jobs, failed
    t = traced[1]
    metrics = dict(t["layers"])
    metrics.update({
        "train.epochs": t["epochs"],
        "job.minor_faults": t["minor_faults"],
        "job.sys_s": t["sys_s"],
        "trace.overhead_s": t["job_s"] - plain[1]["job_s"],
    })
    return metrics, jobs, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("train_desk", "fit_b16", "map_pu"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hsiduo", "cli.py")):
        print("error: run from the root of an hsiduo checkout (src/hsiduo is missing)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    # the units of the --trace 0 and --trace 1 metrics
    units = [{m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")]

    inputs = prepare.ensure_inputs()
    deadline = now() + RUN_LIMIT_S
    out = os.path.join(prepare.WORK, "runs", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spec = {"workload": args.workload, "seed": args.seed, "inputs": inputs, "out": out}
    if args.workload == "map_pu":
        spec["map_labels"] = prepare.map_labels(inputs, args.seed, out)
    runner = Runner(spec, deadline)

    if args.trace:
        metrics, jobs, failed = per_layer(runner)
    else:
        metrics, jobs, failed = end_to_end(runner, args.seconds)
    if not jobs:
        print("error: every job failed", file=sys.stderr)
        return 1
    declared = units[args.trace]
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} are not both measured "
              f"and declared in BENCHMARK.json", file=sys.stderr)
        return 1

    errors = [e for j in jobs for e in j["errors"]]
    for e in errors:
        print(f"CHECK FAILED: {e}")
    compared = sum(j["compared"] for j in jobs)
    print(f"{args.workload}: {len(jobs)} job(s), {failed} failed, "
          f"{compared} pixels checked against the reference forward pass")
    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {declared[k]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(jobs) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
