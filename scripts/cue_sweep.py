#!/usr/bin/env python3
"""Sweep the support-uncertainty inequalities across the built-in catalog.

For every ordered pair of catalog frames sharing (dimension, exponent,
field), draws planted-sparsity vectors and records the worst observed slack
``lhs - bound`` of each inequality.  Emits one CSV row per pair on stdout.

Usage:
    python scripts/cue_sweep.py [--vectors 500] [--seed 0]
"""

import argparse
import sys

import numpy as np

from framelab import default_zoo, uncertainty_batch

CSV_HEADER = (
    "schema_version,frame_f,frame_g,dimension,p,field,vectors,"
    "violations,min_slack1,min_slack2"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vectors", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.vectors < 0:
        parser.error("--vectors must be nonnegative")

    groups = {}
    for name, frame in default_zoo():
        groups.setdefault((frame.dimension, frame.p, frame.field), []).append((name, frame))

    print(CSV_HEADER)
    pair_index = 0
    for (d, p, field), members in sorted(groups.items()):
        for name_f, ff in members:
            for name_g, fg in members:
                rng = np.random.default_rng(args.seed + pair_index)
                pair_index += 1
                xs = np.zeros((args.vectors, d), dtype=complex if field == "complex" else float)
                for x in xs:
                    k = int(rng.integers(1, d + 1))
                    support = rng.choice(d, size=k, replace=False)
                    if field == "complex":
                        x[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                    else:
                        x[support] = rng.standard_normal(k)
                reports = uncertainty_batch(ff, fg, xs, eps=0.0)
                violations = sum(not (rep.holds1 and rep.holds2) for rep in reports)
                # report fields are Python floats, so !r prints as before
                min_slack1 = min((rep.lhs1 - rep.bound1 for rep in reports), default=np.inf)
                min_slack2 = min((rep.lhs2 - rep.bound2 for rep in reports), default=np.inf)
                print(
                    f"1,{name_f},{name_g},{d},{p!r},{field},{args.vectors},"
                    f"{violations},{min_slack1!r},{min_slack2!r}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
