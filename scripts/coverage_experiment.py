#!/usr/bin/env python3
"""Compare how well static, dynamic, and mixed intention points cover
ground-truth endpoints on a follow-lane suite (all endpoints on-graph).

Usage:
    python scripts/coverage_experiment.py --scenes 1000 --seed 0 -o cov.csv
"""

import sys

import numpy as np

from intentforge.cli import _outputs, _Parser, _run, _write_csv
from intentforge.experiments import INTENT_KINDS, coverage_proxy


def coverage_table(args) -> int:
    result = coverage_proxy(args.scenes, args.seed)
    if args.out:
        rows = zip(result["static"], result["dynamic"], result["mixed"])
        with _outputs() as temp:
            _write_csv(temp(args.out),
                       ("scene", "static_m", "dynamic_m", "mixed_m"),
                       (f"{i},{s:.6f},{d:.6f},{m:.6f}\n"
                        for i, (s, d, m) in enumerate(rows)))
    for kind in INTENT_KINDS:
        vals = result[kind]
        print(f"{kind:8s} mean={vals.mean():.3f} m  "
              f"median={np.median(vals):.3f} m  max={vals.max():.3f} m")
    if result["skipped"]:
        print(f"skipped {result['skipped']} scene(s)")
    return 0


def main(argv=None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--out", help="optional per-scene CSV")
    args = parser.parse_args(argv)
    if args.scenes < 1:
        parser.error("--scenes must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return _run(coverage_table, args)


if __name__ == "__main__":
    sys.exit(main())
