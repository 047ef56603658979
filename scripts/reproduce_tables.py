#!/usr/bin/env python3
"""Reproduce the selector-comparison grids on the real KDDTrain+ file.

Needs the NSL-KDD training split on disk. Point IDSPIPE_DATA at the
directory holding KDDTrain+.txt (or pass the file path directly). Draws the
62,984-record reference sample, then runs every selection method at both
label granularities and writes the comparison tables plus the per-attack
F-measure breakdown.
"""

import argparse
import sys
from pathlib import Path

from idspipe import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "train_file",
        nargs="?",
        default="KDDTrain+.txt",
        help="path to KDDTrain+.txt (default: resolve via IDSPIPE_DATA)",
    )
    ap.add_argument("--out", default="reproduction", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args()

    code = cli.main([
        "reproduce-tables", args.train_file, "--out", args.out,
        "--seed", str(args.seed), "--rounds", str(args.rounds), "--k", str(args.k),
    ])
    if code:
        sys.exit(code)
    print((Path(args.out) / "selector_comparison_23class.txt").read_text())


if __name__ == "__main__":
    main()
