"""Greedy sumsets and k-fold greedy membership with solution reconstruction.

The greedy sumset A (+) B keeps exactly the sums a + b that are reachable by
choosing a as the largest element of A not exceeding the total. Membership in
the k-fold greedy sumset is decided by running k greedy picks; consecutive
equal picks are batched, so a query costs O(#distinct picks * log n) and the
returned certificate is compactly encoded.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .core import CompactSolution, EmptySet, SortedIntSet


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
    x = a.predecessor(z)
    if x is None:
        return None
    if (z - x) in b:
        return (x, z - x)
    return None


def kfold_greedy_steps(a: SortedIntSet, k: int, z: int) -> Optional[list[tuple[int, int]]]:
    """Run k greedy picks on z; return [(value, count), ...] or None.

    Picks are batched: once the greedy pick is v >= 1 it repeats while the
    residual stays >= v, and a pick of 0 absorbs every remaining step.
    """
    elems = a.elems
    residual = z
    remaining = k
    runs: list[tuple[int, int]] = []
    while remaining > 0:
        i = bisect_right(elems, residual)
        if not i:
            return None
        v = elems[i - 1]
        if v == 0:
            if residual:
                return None
            runs.append((0, remaining))
            remaining = 0
            break
        q = residual // v
        if q > remaining:
            q = remaining
        runs.append((v, q))
        residual -= q * v
        remaining -= q
    return runs if residual == 0 else None


def kfold_greedy_query(a: SortedIntSet, k: int, z: int) -> Optional[CompactSolution]:
    """Certificate for z in the k-fold greedy sumset of A, or None."""
    runs = kfold_greedy_steps(a, k, z)
    if runs is None:
        return None
    counts: dict[int, int] = {}
    for v, c in runs:
        counts[v] = counts.get(v, 0) + c
    return CompactSolution.from_counts(counts, z, k)
