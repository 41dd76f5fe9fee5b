#!/usr/bin/env python3
"""Coverage table for mixed intention points at several dynamic:static
weight ratios, over one deterministic synthetic suite.

Usage:
    python scripts/ratio_harness.py --scenes 500 --seed 0 \
        --ratios 1 3 5 -o ratio_table.csv
"""

import argparse
import math
import sys
from pathlib import Path

from intentforge.experiments import DataError, mixed_ratio_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ratios", type=float, nargs="+",
                        default=[1.0, 3.0, 5.0],
                        help="dynamic:static weight ratios to evaluate")
    parser.add_argument("-o", "--out", required=True, help="output CSV")
    args = parser.parse_args()
    if args.scenes < 1:
        parser.error("--scenes must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not all(0 < r < math.inf for r in args.ratios):
        parser.error("--ratios must be finite and > 0")

    try:
        rows = mixed_ratio_table(args.scenes, args.seed, tuple(args.ratios))
    except DataError as exc:
        sys.exit(f"error: {exc}")
    lines = ["ratio,scenes,mean_coverage_m"]
    for label, used, mean_cov in rows:
        lines.append(f"{label},{used},{mean_cov:.6f}")
    try:
        Path(args.out).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        sys.exit(f"error: {exc}")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
