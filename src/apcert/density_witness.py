"""Las Vegas witness for {0, ..., m} inside the 2k-fold sumset of a dense set.

Build: given {0,1} in A and k >= 2/rho_m(A), store A and the amplification
fold k_inner = ceil(2 / rho_m(A)). The k_inner-fold greedy sumset then has
density >= 3/4 over [1, m], so a uniformly sampled split z = x + (z - x) has
both halves in the greedy sumset with probability >= 1/2.

Query: sample x in [1, z] until x and z - x both pass the k_inner-fold greedy
membership test, then join the two greedy certificates. Always correct; only
the number of sampling rounds is random (2 in expectation).

Membership in the k-fold greedy sumset is decided by running k greedy picks,
each the largest element of A not exceeding the residual; consecutive equal
picks are batched, so a test costs O(#distinct picks * log n) and the
returned runs encode the certificate compactly.

All density arithmetic is exact (integer cross-multiplication via Fraction);
no floating point is used on any decision path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .core import (
    InternalContract,
    OutOfRange,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    ceil_log2,
    require,
)


def density_with_argmin(a: SortedIntSet, z: int) -> tuple[Fraction, int]:
    """min over z' in [1, z] of |A[1, z']| / z', with a minimizing z'.

    |A[1, z']| is a step function that increases only at elements of A, so the
    ratio's minimum over [1, z] occurs immediately before a step (z' = e - 1
    for e in A with 2 <= e <= z) or at the right endpoint z' = z.

    A is sorted and distinct, so the i elements before e = elems[i] are
    A[0, e - 1]: |A[1, e - 1]| is i, less one if 0 is in A. No search needed.
    """
    require(z >= 1, "density-z-positive", f"z={z}")
    best_num, best_den = a.count_range(1, z), z
    best_z = z
    zero = int(0 in a)
    for i, e in enumerate(a.elems):
        zp = e - 1
        if zp < 1:
            continue
        if zp >= z:
            break
        num = i - zero
        # num/zp < best_num/best_den, compared exactly
        if num * best_den < best_num * zp:
            best_num, best_den, best_z = num, zp, zp
    return Fraction(best_num, best_den), best_z


def kfold_greedy_steps(a: SortedIntSet, k: int, z: int) -> Optional[list[tuple[int, int]]]:
    """Run k greedy picks on z; return [(value, count), ...] or None.

    Picks are batched: once the greedy pick is v >= 1 it repeats while the
    residual stays >= v, so a pick that needs more than the remaining steps
    fails the walk. Once the residual is 0 every later pick must be 0, so the
    walk ends there: a run of 0 takes the remaining steps if 0 is in A, and
    without 0 the walk fails.
    """
    elems = a.elems
    residual = z
    remaining = k
    runs: list[tuple[int, int]] = []
    while residual:
        i = bisect_right(elems, residual)
        v = elems[i - 1] if i else 0
        if not v:  # no element in [1, residual]
            return None
        q = residual // v
        if q > remaining:
            return None
        runs.append((v, q))
        residual %= v
        remaining -= q
    if remaining > 0:
        if not elems or elems[0]:
            return None
        runs.append((0, remaining))
    return runs


@dataclass(frozen=True)
class DensityWitness:
    """Answers every z in [0, m] with a certificate of fold budget 2*k_inner."""

    base: SortedIntSet
    m: int
    k_inner: int

    @cached_property
    def cap(self) -> int:
        """Sampling rounds before a query gives up; set on the first query."""
        return 64 * ceil_log2(self.m + 2)

    @property
    def fold_budget(self) -> int:
        return 2 * self.k_inner

    def query_parts(self, z: int, rng: RandomSource) -> list[tuple[int, int]]:
        """Raw greedy runs for z (values may repeat across the two halves);
        total multiplicity is exactly 2*k_inner."""
        if not 0 <= z <= self.m:
            raise OutOfRange(f"z={z} not in [0, {self.m}]")
        k = self.k_inner
        if z == 0:
            return [(0, 2 * k)]
        base = self.base
        for _ in range(self.cap):
            x = rng.uniform_int(1, z)
            left = kfold_greedy_steps(base, k, x)
            if left is None:
                continue
            right = kfold_greedy_steps(base, k, z - x)
            if right is None:
                continue
            # both runs are this query's own
            left += right
            return left
        raise InternalContract(
            f"sampling cap {self.cap} exhausted at z={z}; "
            "the density precondition check must be wrong"
        )


def build_density_witness(a: SortedIntSet, m: int, k: int) -> DensityWitness:
    """Validate the density precondition exactly and fix the amplification fold."""
    if 0 not in a or 1 not in a:
        raise PreconditionViolated("membership", "build needs {0,1} in A")
    if m < 1:
        raise PreconditionViolated("interval-bound-positive", f"m={m}")
    if len(a) and a.max > m:
        raise PreconditionViolated("elements-within-interval", f"max={a.max} > m={m}")
    rho, z_bad = density_with_argmin(a, m)
    if rho * k < 2:
        raise PreconditionViolated(
            "density", f"rho_m(A) = {rho} < 2/k at z' = {z_bad} (k={k})"
        )
    k_inner = ceil_div(2 * rho.denominator, rho.numerator)
    return DensityWitness(a, m, k_inner)
