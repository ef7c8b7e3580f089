"""Brute-force ground truth used by the tests: exact sumsets, subset sums,
coin-style reachability, greedy sumsets (materialized and by membership) and
k-fold greedy certificates, plus the small set and certificate helpers that
only the tests read.

Bitsets are plain Python integers (bit i set iff i is reachable), which makes
the convolution-by-shift rounds both exact and fast. These are deliberately
naive; none of them is a production path.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Optional

from apcert.core import (
    ApcertError,
    CompactSolution,
    EmptySet,
    SortedIntSet,
    check_solution,
    density_with_argmin,
)
from apcert.greedy import kfold_greedy_steps

HARD_CAP = 10**8


class CapExceeded(ApcertError):
    """An oracle input is above the size its brute force is meant for."""


def density(a: SortedIntSet, z: int) -> Fraction:
    """min over z' in [1, z] of |A[1, z']| / z'."""
    return density_with_argmin(a, z)[0]


def predecessor(a: SortedIntSet, x: int) -> Optional[int]:
    """Largest element of A that is <= x, or None."""
    i = bisect_right(a.elems, x)
    return a.elems[i - 1] if i else None


def verify_solution(base: SortedIntSet, sol: CompactSolution) -> bool:
    return check_solution(base, sol) is None


def total_count(sol: CompactSolution) -> int:
    return sum(c for _, c in sol.parts)


def _mask(cap: int) -> int:
    return (1 << (cap + 1)) - 1


def brute_kfold(a: SortedIntSet, k: int, cap: int) -> SortedIntSet:
    """Exact kA intersected with [0, cap]."""
    if cap > HARD_CAP:
        raise CapExceeded(f"cap {cap} exceeds {HARD_CAP}")
    if cap < 0:
        raise CapExceeded("cap must be nonnegative")
    mask = _mask(cap)
    bits = 1
    for _ in range(k):
        nxt = 0
        for e in a:
            if e > cap:
                break
            nxt |= bits << e
        bits = nxt & mask
    return SortedIntSet.from_iterable(i for i in range(cap + 1) if bits >> i & 1)


def bitset_to_list(bits: int, cap: int) -> list[int]:
    return [i for i in range(cap + 1) if bits >> i & 1]


class SubsetSumTable:
    """Exact S(A) with reconstruction of one subset per reachable sum."""

    def __init__(self, elems: tuple[int, ...], prefix_bits: list[int], cap: int):
        self.elems = elems
        self.prefix_bits = prefix_bits  # prefix_bits[i] = sums over first i elements
        self.cap = cap
        self.bits = prefix_bits[-1]

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.cap and self.bits >> s & 1 == 1

    def reconstruct(self, s: int) -> Optional[list[int]]:
        if s not in self:
            return None
        subset = []
        for i in range(len(self.elems), 0, -1):
            if self.prefix_bits[i - 1] >> s & 1:
                continue  # reachable without element i-1
            subset.append(self.elems[i - 1])
            s -= self.elems[i - 1]
        assert s == 0
        return sorted(subset)


def brute_subset_sums(a: SortedIntSet, cap: int) -> SubsetSumTable:
    """Reachability table for all subset sums of A up to cap."""
    total = sum(a.elems)
    if min(total, cap) > HARD_CAP:
        raise CapExceeded(f"subset-sum span {total} exceeds {HARD_CAP}")
    cap = min(cap, total)
    mask = _mask(cap)
    bits = 1
    prefix = [bits]
    for e in a:
        bits = (bits | (bits << e)) & mask
        prefix.append(bits)
    return SubsetSumTable(a.elems, prefix, cap)


class ReachTable:
    """Reachability bitmap over [0, cap] backed by a single big integer."""

    def __init__(self, bits: int, cap: int):
        self.bits = bits
        self.cap = cap
        unreachable = ~bits & _mask(cap)
        self.frobenius = unreachable.bit_length() - 1  # -1 when all reachable

    def __getitem__(self, i: int) -> bool:
        if not 0 <= i <= self.cap:
            raise IndexError(i)
        return bool(self.bits >> i & 1)


def brute_unbounded(a: tuple[int, ...], t_max: int) -> tuple[ReachTable, int]:
    """Coin-style reachability over [0, t_max] plus the largest unreachable t
    (the empirical Frobenius number; -1 when everything is reachable)."""
    if t_max > 10**7:
        raise CapExceeded(f"t_max {t_max} exceeds 1e7")
    mask = _mask(t_max)
    bits = 1
    changed = True
    while changed:
        changed = False
        for coin in a:
            if coin <= 0 or coin > t_max:
                continue
            # close under arbitrary multiples of this coin: shifting by
            # coin, 2*coin, 4*coin, ... reaches every multiple in log steps
            step = coin
            while step <= t_max:
                nxt = (bits | (bits << step)) & mask
                if nxt != bits:
                    bits = nxt
                    changed = True
                step <<= 1
    table = ReachTable(bits, t_max)
    return table, table.frobenius


def greedy_sumset(a: SortedIntSet, b: SortedIntSet) -> SortedIntSet:
    """All a_i + v with v in B and 0 <= v < (successor of a_i) - a_i.

    Quadratic; meant for tests and small instances.
    """
    if not len(a) or not len(b):
        raise EmptySet()
    out = set()
    elems = a.elems
    for i, ai in enumerate(elems):
        limit = elems[i + 1] - ai if i + 1 < len(elems) else None
        for v in b.elems:
            if v < 0:
                continue
            if limit is not None and v >= limit:
                break
            out.add(ai + v)
    return SortedIntSet.from_iterable(out)


def greedy_membership(a: SortedIntSet, b: SortedIntSet, z: int) -> Optional[tuple[int, int]]:
    """If z in A (+) B, return (x, z - x) with x the largest element of A <= z."""
    x = predecessor(a, z)
    if x is None:
        return None
    if (z - x) in b:
        return (x, z - x)
    return None


def kfold_greedy_query(a: SortedIntSet, k: int, z: int) -> Optional[CompactSolution]:
    """Certificate for z in the k-fold greedy sumset of A, or None."""
    runs = kfold_greedy_steps(a, k, z)
    if runs is None:
        return None
    counts: dict[int, int] = {}
    for v, c in runs:
        counts[v] = counts.get(v, 0) + c
    return CompactSolution.from_counts(counts, z, k)


def greedy_kfold_materialize(a: SortedIntSet, k: int, cap: int) -> SortedIntSet:
    """The k-fold greedy sumset, built by repeated greedy sumsets.

    The operation is not commutative: the (k+1)-fold set is A (+) (k-fold set).
    Exponential-ish; tests only.
    """
    if cap > 10**6:
        raise CapExceeded("greedy materialization cap")
    cur = SortedIntSet((0,))
    for _ in range(k):
        cur = greedy_sumset(a, cur)
        cur = SortedIntSet.from_iterable(e for e in cur if e <= cap)
    return cur
