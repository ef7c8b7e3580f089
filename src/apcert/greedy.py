"""k-fold greedy membership with solution reconstruction.

Membership in the k-fold greedy sumset is decided by running k greedy picks,
each the largest element of A not exceeding the residual; consecutive equal
picks are batched, so a query costs O(#distinct picks * log n) and the
returned runs encode the certificate compactly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .core import SortedIntSet


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
