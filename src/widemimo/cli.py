"""Command-line entry points: ``widemimo sweep`` and ``widemimo check``."""

import argparse
import sys

from .check import run_check
from .errors import WidemimoError
from .sweep import load_config, run_sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widemimo",
        description=(
            "Sweep the wideband non-coherent MIMO closed forms to CSV, or run "
            "the built-in oracle cross-check battery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a configured parameter sweep to CSV")
    sweep.add_argument("config", help="path to a flat key = value sweep configuration file")
    sweep.add_argument("--seed", type=int, default=None, help="override the configured seed")
    sweep.add_argument("--out", default=None, help="override the configured output path")
    sweep.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for oracle-check rows; other quantities run serially "
        "(output-invariant)",
    )

    check = sub.add_parser("check", help="run the oracle-vs-closed-form battery")
    check.add_argument("--seed", type=int, default=0, help="stream seed for the Monte Carlo checks")
    check.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads that run the Monte Carlo checks side by side "
        "(output-invariant)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return run_check(seed=args.seed, threads=args.threads)
        config = load_config(args.config)
        summary = run_sweep(config, out=args.out, seed=args.seed, threads=args.threads)
    except (OSError, WidemimoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if not summary.errors else 1


if __name__ == "__main__":
    sys.exit(main())
