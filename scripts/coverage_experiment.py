#!/usr/bin/env python3
"""Compare how well static, dynamic, and mixed intention points cover
ground-truth endpoints on a follow-lane suite (all endpoints on-graph).

Usage:
    python scripts/coverage_experiment.py --scenes 1000 --seed 0 -o cov.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from intentforge.experiments import INTENT_KINDS, coverage_proxy


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--out", help="optional per-scene CSV")
    args = parser.parse_args()
    if args.scenes < 1:
        parser.error("--scenes must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    result = coverage_proxy(args.scenes, args.seed)
    if args.out:
        lines = ["scene,static_m,dynamic_m,mixed_m"]
        for i in range(len(result["static"])):
            lines.append(f"{i},{result['static'][i]:.6f},"
                         f"{result['dynamic'][i]:.6f},{result['mixed'][i]:.6f}")
        try:
            Path(args.out).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            sys.exit(f"error: {exc}")
    for kind in INTENT_KINDS:
        vals = result[kind]
        print(f"{kind:8s} mean={vals.mean():.3f} m  "
              f"median={np.median(vals):.3f} m  max={vals.max():.3f} m")
    if result["skipped"]:
        print(f"skipped {result['skipped']} scene(s)")


if __name__ == "__main__":
    main()
