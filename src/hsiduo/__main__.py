"""Command-line entry point, `python -m hsiduo` and the `hsiduo` script:
parse, pin the thread pools, then dispatch to hsiduo.cli's commands.

Exit codes: 0 success, 2 usage/validation problem, 3 numeric failure.
Nothing this module imports loads numpy, so --threads pins the
BLAS/OpenMP pools before numpy loads with cli.
"""

import argparse
import math
import os
import sys

from . import schema
from .errors import HsiduoError, NumericError


def _at_least(lo):
    """argparse type: an integer >= lo."""

    def integer(text):
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return integer


def _finite_non_negative(text):
    """argparse type: a finite number >= 0."""
    try:
        if math.isfinite(value := float(text)) and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsiduo",
        description="dual-branch real/complex HSI classifier harness",
    )
    parser.add_argument("--emit-default-config", action="store_true", help="print the default config JSON and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic cube + labels")
    p.add_argument("--classes", type=_at_least(2), default=3)
    p.add_argument("--height", type=_at_least(1), default=32)
    p.add_argument("--width", type=_at_least(1), default=32)
    p.add_argument("--bands", type=_at_least(1), default=16)
    p.add_argument("--noise", type=_finite_non_negative, default=0.1)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_at_least(1), default=None)

    for name in ("train", "trial"):
        p = sub.add_parser(name, help=f"{name} on a cube/labels pair")
        p.add_argument("--cube", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--config", default=None, help="config JSON path (defaults used if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True)
        p.add_argument("--threads", type=_at_least(1), default=None)
        if name == "trial":
            p.add_argument("--repeats", type=_at_least(1), default=10)

    p = sub.add_parser("map", help="render a classification map from a checkpoint")
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint manifest JSON")
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--full", action="store_true", help="predict every pixel, not only labeled ones")
    p.add_argument("--threads", type=_at_least(1), default=None)
    return parser


def _check_out(out, directory):
    """Fail before any work if --out cannot take the output: the nearest
    existing ancestor of a run directory (train, trial, synth), or the
    parent of a map image that is no directory, must be a writable directory."""
    path = os.path.abspath(out)
    if not directory and os.path.isdir(path):
        raise IsADirectoryError(f"--out {out} is a directory")
    path = path if directory else os.path.dirname(path)
    while directory and not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK)):
        raise OSError(f"--out {out}: {path} is not a writable directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.emit_default_config:
        from .model import ModelConfig

        schema.dump(ModelConfig().to_json_dict(), sys.stdout)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    if args.threads is not None:
        # read when numpy loads: a caller that has already imported it keeps its pools
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from . import cli

    try:
        _check_out(args.out, directory=args.command != "map")
        return getattr(cli, f"cmd_{args.command}")(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (HsiduoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
