#!/usr/bin/env python3
"""Success map of the tuned subset-sum pipeline on random sets.

For every cell of m in {10^4, 10^5} and density in {0.05, 0.1, 0.2, 0.3, 0.5},
build the progression of length ell = m for --trials seeds s = --seed,
--seed + 1, ..., each on A = sorted(random.Random(s).sample(range(1, m + 1),
int(density * m))) with build seed s. Print how many builds succeed and how
many raise Exhausted, the coreset sizes of the successful builds against
coreset_size_bound, and the first Exhausted reason of the cell.

    PYTHONPATH=src python3 scripts/coreset_growth.py --trials 6
"""

import argparse
import random

from apcert.core import Exhausted
from apcert.profiles import TUNED
from apcert.subsetsum_ap import ap_in_subset_sums, coreset_size_bound

SIZES = (10**4, 10**5)
DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.5)


def run(trials: int, seed: int) -> None:
    print(f"{'m':>6} {'density':>7} {'built':>5} {'exhausted':>9} "
          f"{'|coreset|':>9} {'bound':>5}  first exhausted reason")
    for m in SIZES:
        for density in DENSITIES:
            n = int(density * m)
            sizes: list[int] = []
            reasons: list[str] = []
            for s in range(seed, seed + trials):
                a = sorted(random.Random(s).sample(range(1, m + 1), n))
                try:
                    sizes.append(len(ap_in_subset_sums(a, m, TUNED, seed=s).coreset))
                except Exhausted as exc:
                    reasons.append(exc.reason)
            span = f"{min(sizes)}-{max(sizes)}" if sizes else "-"
            print(f"{m:>6} {density:>7} {len(sizes):>5} {len(reasons):>9} "
                  f"{span:>9} {coreset_size_bound(m, n, TUNED):>5}  "
                  f"{reasons[0] if reasons else ''}", flush=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run(args.trials, args.seed)
