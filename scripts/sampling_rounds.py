#!/usr/bin/env python3
"""Empirical sampling rounds of the Las Vegas interval-cover witness.

The amplified greedy sumset has density >= 3/4, so each sampled split
succeeds with probability >= 1/2 and the expected number of rounds is at
most 2. This script measures the actual mean across density regimes.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from apcert.core import RandomSource, SortedIntSet  # noqa: E402
from apcert.density_witness import build_density_witness, density_with_argmin  # noqa: E402


def run(trials: int, queries: int, seed: int) -> None:
    rnd = random.Random(seed)
    print(f"{'m':>6} {'|A|':>5} {'rho':>10} {'k_inner':>8} {'mean rounds':>12}")
    for _ in range(trials):
        m = rnd.randint(20, 2000)
        extra = rnd.randint(0, min(40, m - 1))
        a = SortedIntSet.from_iterable(
            {0, 1} | set(rnd.sample(range(2, m + 1), extra))
        )
        rho = density_with_argmin(a, m)[0]
        k = (2 * rho.denominator + rho.numerator - 1) // rho.numerator
        w = build_density_witness(a, m, k)
        draws = 0
        for i in range(queries):
            rng = RandomSource(seed).derive("q", i)
            w.query_parts(1 + (i * 7919) % m, rng)
            draws += rng.draws
        print(f"{m:>6} {len(a):>5} {str(rho)[:10]:>10} {w.k_inner:>8} "
              f"{draws / queries:>12.3f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=12)
    ap.add_argument("--queries", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run(args.trials, args.queries, args.seed)
