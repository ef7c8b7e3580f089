"""Unbounded Subset Sum above a constant multiple of the Erdos-Graham bound.

For strictly increasing coprime a_1 < ... < a_n <= 2^62 and any
t >= 333 * ceil(a_n/(n-1)) * a_{n-1}, a multiplier vector with
sum a_i x_i = t is assembled from three pieces: a progression witness over
the first n-1 values divided by their gcd d, a residue i_t with
i_t * a_n = t (mod d), and floor-division copies of a_n.

The progression witness is queried at the inner index r = (val - s) mod a_n,
which takes at most a_n values. A solver keeps one row of multipliers of the
first n-1 values per index r, filled by the first solve that needs it with
that solve's rng, so a repeat solve is O(n) arithmetic and one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .core import (
    MAX_ELEMENT,
    InternalContract,
    OverflowRisk,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
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
    """Build once per instance; answer any target above the threshold.

    The first solve that needs inner index r queries the witness with its own
    rng; later solves with the same r reuse that certificate's multipliers.
    So the answer for t can depend on the solves made earlier on the same
    solver, and every answer, reused or not, passes the same sum check.
    """

    def __init__(self, a: Sequence[int]):
        values = tuple(a)
        n = len(values)
        if n < 2:
            raise PreconditionViolated("at-least-two-values", f"n={n}")
        prev = 0
        for v in values:
            if v <= prev:
                raise PreconditionViolated(
                    "strictly-increasing-positive",
                    f"{v} after {prev}" if prev else f"{v} is not positive",
                )
            prev = v
        self.values = values
        a_n = values[-1]
        if a_n > MAX_ELEMENT:
            raise OverflowRisk(a_n)
        d = gcd(*values[:-1])
        g = gcd(d, a_n)
        if g != 1:
            raise PreconditionViolated("gcd-one", f"gcd of all values is {g}")
        self.d = d
        self.a_n = a_n
        reduced = SortedIntSet((0, *(v // d for v in values[:-1])))
        self.ka: KfoldApResult = ap_in_kfold_sumset(reduced, a_n - 1, ceil_div(a_n, n))
        self.threshold = 333 * ceil_div(a_n, n - 1) * values[-2]
        # a_n is invertible modulo d, so i_t = t * a_n^'-1' hits t's residue
        self.inv_an = pow(a_n % d, -1, d) if d > 1 else 0
        # inner index r -> its multipliers of _lower
        self._lower = values[:-1]
        self._rows: dict[int, tuple[int, ...]] = {}

    def solve(self, t: int, rng: RandomSource) -> UnboundedSolution:
        if t < self.threshold:
            raise PreconditionViolated("target-above-threshold", f"t={t} < {self.threshold}")
        d, a_n = self.d, self.a_n
        i_t = (t % d) * self.inv_an % d if d > 1 else 0
        rest = t - i_t * a_n
        if rest % d:
            raise InternalContract("residue choice must clear the modulus")
        val = rest // d
        s = self.ka.ap.start
        if val < s:
            raise InternalContract("target below the progression start despite the threshold")
        q, r = divmod(val - s, a_n)
        row = self._rows.get(r)
        if row is None:
            row = self._certify(r, rng)
        out = UnboundedSolution((*zip(self._lower, row), (a_n, q * d + i_t)), t)
        total = out.total()
        if total != t:
            raise InternalContract(f"multipliers sum to {total}, wanted {t}")
        return out

    def _certify(self, r: int, rng: RandomSource) -> tuple[int, ...]:
        """Query the witness for inner index r; store and return its row."""
        sol = self.ka.witness.query(r, rng)
        d = self.d
        counts: dict[int, int] = {}
        for v, c in sol.parts:
            if v == 0:
                continue
            counts[v * d] = counts.get(v * d, 0) + c
        row = tuple(counts.get(v, 0) for v in self._lower)
        self._rows[r] = row
        return row
