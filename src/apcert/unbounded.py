"""Unbounded Subset Sum above a constant multiple of the Erdos-Graham bound.

For strictly increasing coprime a_1 < ... < a_n and any
t >= 333 * ceil(a_n/(n-1)) * a_{n-1}, a multiplier vector with
sum a_i x_i = t is assembled from three pieces: a progression witness over
the first n-1 values divided by their gcd d, a residue i_t with
i_t * a_n = t (mod d), and floor-division copies of a_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .core import (
    RandomSource,
    SortedIntSet,
    ceil_div,
    contract,
    require,
)
from .sumset_ap import KfoldApResult, ap_in_kfold_sumset


@dataclass(frozen=True)
class UnboundedSolution:
    """Nonnegative multipliers per input value, summing to the target."""

    multipliers: tuple[tuple[int, int], ...]  # (a_i, x_i) in input order
    target: int

    def total(self) -> int:
        return sum(a * x for a, x in self.multipliers)


class UnboundedSolver:
    """Build once per instance; answer any target above the threshold."""

    def __init__(self, a: Sequence[int]):
        values = tuple(a)
        require(len(values) >= 2, "at-least-two-values", f"n={len(values)}")
        prev = 0
        for v in values:
            require(v > prev, "strictly-increasing-positive", f"{v} after {prev}")
            prev = v
        self.values = values
        n = len(values)
        a_n = values[-1]
        lower = SortedIntSet((0,) + values[:-1])
        d = gcd(*values[:-1])
        require(gcd(d, a_n) == 1, "gcd-one", f"gcd of all values is {gcd(d, a_n)}")
        self.d = d
        self.a_n = a_n
        reduced = SortedIntSet(tuple(v // d for v in lower.elems))
        self.ka: KfoldApResult = ap_in_kfold_sumset(reduced, a_n - 1, ceil_div(a_n, n))
        self.threshold = 333 * ceil_div(a_n, n - 1) * values[-2]
        # a_n is invertible modulo d, so i_t = t * a_n^'-1' hits t's residue
        self.inv_an = pow(a_n % d, -1, d) if d > 1 else 0

    def solve(self, t: int, rng: RandomSource) -> UnboundedSolution:
        require(t >= self.threshold, "target-above-threshold",
                f"t={t} < {self.threshold}")
        d, a_n = self.d, self.a_n
        i_t = (t % d) * self.inv_an % d if d > 1 else 0
        contract((t - i_t * a_n) % d == 0, "residue choice must clear the modulus")
        val = (t - i_t * a_n) // d
        s = self.ka.ap.start
        contract(val >= s, "target below the progression start despite the threshold")
        r = (val - s) % a_n
        q = (val - s) // a_n
        sol = self.ka.witness.query(r, rng)
        counts: dict[int, int] = {}
        for v, c in sol.parts:
            if v == 0:
                continue
            counts[v * d] = counts.get(v * d, 0) + c
        counts[a_n] = counts.get(a_n, 0) + q * d + i_t
        multipliers = tuple((v, counts.get(v, 0)) for v in self.values)
        out = UnboundedSolution(multipliers, t)
        total = out.total()
        contract(total == t, f"multipliers sum to {total}, wanted {t}")
        return out
