#!/usr/bin/env python3
"""Run every shipped sweep configuration and collect the CSV outputs.

Each config in configs/ is passed through the sweep subcommand; results and
the generated gnuplot templates land in the chosen output directory. The
618 grid points of the shipped configs take 0.37 s with one worker and
0.40 s with two (whole process, median of 9, 2-vCPU x86-64 VM): a sweep's
task is one grid line, and fig3 is a single line.
"""

import argparse
import sys
from pathlib import Path

from qdcavity.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--outdir", default="figures_out",
        help="directory for the CSV and gnuplot files (default figures_out)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per sweep",
    )
    parser.add_argument(
        "configs", nargs="*",
        help="config files to run (default: every configs/*.cfg)",
    )
    args = parser.parse_args()

    if args.configs:
        config_paths = [Path(p) for p in args.configs]
    else:
        config_paths = sorted((REPO_ROOT / "configs").glob("*.cfg"))
    if not config_paths:
        print("no config files found", file=sys.stderr)
        return 1

    outdir = Path(args.outdir)
    failures = 0
    for config_path in config_paths:
        out_path = outdir / (config_path.stem + ".csv")
        print(f"== {config_path.name} -> {out_path}")
        code = cli_main([
            "sweep",
            "--config", str(config_path),
            "--out", str(out_path),
            "--workers", str(args.workers),
        ])
        if code != 0:
            print(f"   exit code {code}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} sweep(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
