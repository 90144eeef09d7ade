"""The benchmark under perfbench/ drives the program through its module
attributes and public functions. These child processes, run from the repo
root as the benchmark runs, fail when a rename or a signature change
breaks it."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_from_root(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_benchmark_selftest_passes():
    proc = run_from_root(os.path.join("perfbench", "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_spans_install():
    code = (
        "import sys, time\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "from spans import Tracer\n"
        "Tracer(time.monotonic).install()\n"
    )
    proc = run_from_root("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
