#!/usr/bin/env python3
"""Coverage table for mixed intention points at several dynamic:static
weight ratios, over one deterministic synthetic suite.

Usage:
    python scripts/ratio_harness.py --scenes 500 --seed 0 \
        --ratios 1 3 5 -o ratio_table.csv
"""

import math
import sys

from intentforge.cli import _outputs, _Parser, _run, _write_csv
from intentforge.experiments import mixed_ratio_table


def ratio_table(args) -> int:
    header = ("ratio", "scenes", "mean_coverage_m")
    rows = mixed_ratio_table(args.scenes, args.seed, tuple(args.ratios))
    lines = [f"{label},{used},{mean_cov:.6f}\n"
             for label, used, mean_cov in rows]
    with _outputs() as temp:
        _write_csv(temp(args.out), header, lines)
    print(",".join(header), "".join(lines), sep="\n", end="")
    return 0


def main(argv=None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ratios", type=float, nargs="+",
                        default=[1.0, 3.0, 5.0],
                        help="dynamic:static weight ratios to evaluate")
    parser.add_argument("-o", "--out", required=True, help="output CSV")
    args = parser.parse_args(argv)
    if args.scenes < 1:
        parser.error("--scenes must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not all(0 < r < math.inf for r in args.ratios):
        parser.error("--ratios must be finite and > 0")
    return _run(ratio_table, args)


if __name__ == "__main__":
    sys.exit(main())
