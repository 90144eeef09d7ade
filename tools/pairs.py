"""Alternating benchmark pairs of two checkouts, and the verdict on a claimed gain.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed0 S]

Pair i runs `python3 perfbench/run.py --workload W --seed S+i --seconds 40`
(40 being the parent's BENCHMARK.json `run_seconds`) in both checkouts,
the parent first in even pairs and the change first in odd ones, and
reads the last JSON line of each run. It prints every
end-to-end metric that BENCHMARK.json declares, per pair, then for each
metric the change's wins, both medians and the parent's IQR, with the
verdict: a gain holds when the change wins at least 9 of every 10 pairs
(ties count for neither side) and the medians are further apart than the
parent's IQR. A run with `correct: false` or failed jobs is flagged and
makes the exit status 1. Two checkouts whose benchmark inputs were made
by different code (their `pu` checkpoints differ) are not compared.

Nothing under perfbench/ is changed; each checkout makes its own inputs
under .perfbench/ on its first run.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

CHECKPOINT = os.path.join(".perfbench", "inputs", "pu", "run", "checkpoint.bin")


def verdict(parent, change, better="lower"):
    """The gain rule on paired samples of one metric: the change wins at
    least 9/10 of the pairs (ties count for neither) and its median beats
    the parent's by more than the parent's IQR."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_median = statistics.median(change)
    return {
        "wins": wins,
        "pairs": len(parent),
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "gain": 10 * wins >= 9 * len(parent) and sign * (parent_median - change_median) > q3 - q1,
    }


def run(checkout, workload, seed, seconds):
    """The last JSON line of one benchmark run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    return json.loads(lines[-1])


def same_inputs(parent, change):
    """False when both checkouts hold a pu checkpoint and the two differ."""
    a, b = (os.path.join(d, CHECKPOINT) for d in (parent, change))
    return not (os.path.exists(a) and os.path.exists(b)) or filecmp.cmp(a, b, shallow=False)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=("train_desk", "fit_b16", "map_pu"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, default=1000, help="seed of the first pair; pair i takes seed0 + i")
    args = ap.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared, seconds = bench["end_to_end"], bench["run_seconds"]
    names = [m["name"] for m in declared]

    sides = {"parent": args.parent, "change": args.change}
    values = {side: {name: [] for name in names} for side in sides}
    flagged = 0
    for i in range(args.pairs):
        if not same_inputs(args.parent, args.change):
            print(f"error: {CHECKPOINT} differs between the checkouts; remake their inputs", file=sys.stderr)
            return 2
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        docs = {side: run(sides[side], args.workload, seed, seconds) for side in order}
        for side, doc in docs.items():
            if not doc["correct"] or doc["failed"] > 0:
                flagged += 1
                print(f"FLAG pair {i + 1} {side}: correct {doc['correct']}, failed {doc['failed']}")
            for name in names:
                values[side][name].append(doc["metrics"][name]["value"])
        shown = "  ".join(f"{n} {values['parent'][n][-1]:.4g}/{values['change'][n][-1]:.4g}" for n in names)
        print(f"pair {i + 1} seed {seed} {order[0]} first: {shown}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs (parent/change)")
    for m in declared:
        v = verdict(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        move = v["change_median"] / v["parent_median"] - 1 if v["parent_median"] else float("nan")
        print(f"{m['name']}: change wins {v['wins']}/{v['pairs']}, median {v['parent_median']:.4g} -> "
              f"{v['change_median']:.4g} {m['unit']} ({move:+.1%}), parent IQR {v['parent_iqr']:.4g}: "
              f"{'gain' if v['gain'] else 'no gain'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
