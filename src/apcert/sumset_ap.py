"""Arithmetic progressions of length m inside 332k-fold sumsets.

Pipeline: locate a dense endpoint u by a linear two-pointer scan, shift the
dense side into a set B containing {0,1}, cover {0..m} with a density witness
over B (each b expands back into two base elements), handle general sets by
working modulo the closest-pair gap, and finally subdivide the common
difference with the augmentation framework until it reaches 1.

The short progression returns its leaf and the full pipeline an ApWitness;
certificates are verified by core, never trusted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import eq, floordiv, indexOf, mod, setitem, sub
from typing import Sequence, Union

from .augment import ApWitness, augment_to_full
from .core import (
    ArithProgression,
    InternalContract,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    contract,
    gcd_all,
    normalize,
    require,
)
from .density_witness import DensityWitness, build_density_witness


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def _scan_min_good_start(elems: tuple[int, ...], m: int, k: int) -> int:
    """The smallest index i such that every pair (i, j), i <= j <= n,
    satisfies 2k(j - i) >= a_j - a_i (sentinel a_n = m + 1); returns the
    endpoint a_i - 1.

    Let c_j = a_j - 2k*j. The pair (i, j) is good iff c_j <= c_i, so i is a
    good start iff c_i is the largest of c_i, ..., c_n. A start before the
    first index of max(c) has that maximum after it, and the first index has
    nothing larger after it: the smallest good start is the first index of
    max(c). Two C-level passes: the maximum, then its first index.
    """
    a, step = elems + (m + 1,), 2 * k
    c_max = max(map(sub, a, count(0, step)))
    return a[indexOf(map(sub, a, count(0, step)), c_max)] - 1


def find_dense_endpoint(a: SortedIntSet, m: int, k: int) -> tuple[int, Side]:
    """An endpoint u such that A has density >= 1/2k on one side of u.

    Left: -1 <= u <= m/2 and |A[u+1, v]| >= (v-u)/2k for every v in [u+1, m].
    Right: the mirrored condition, with u >= ceil(m/2); the pipeline never gets it.
    """
    n = len(a)
    require(n >= 1, "set-nonempty")
    require(k >= 1, "fold-positive", f"k={k}")
    require(n * k >= m + 1, "cardinality", f"n*k = {n * k} < m+1 = {m + 1}")
    require(a.max <= m, "elements-within-interval", f"max={a.max} > m={m}")
    u = _scan_min_good_start(a.elems, m, k)
    if 2 * u <= m:
        return u, Side.LEFT
    u2 = _scan_min_good_start(tuple(map(sub, repeat(m), reversed(a.elems))), m, k)
    contract(2 * u2 <= m, "neither scan side satisfies the density condition")
    return m - u2, Side.RIGHT


def ap_restricted(a: SortedIntSet, m: int, k: int) -> tuple[int, DensityWitness]:
    """A left-dense endpoint u and a density witness over B for {s} + {0, 1, ..., m}
    in 32kA, s = fold_budget * (u + 1), given {0,1} in A: each part b of the
    witness's certificate for z becomes the pair (0, u+1) if b = 0, else (1, u+b).

    Why ap_short never meets the refusal: there m = ceil(5M/t) with t <= g, so
    each b is at most M/g + 1 <= m/5 + 1 (M, g: ap_short's bound and gap). The
    scan gives up a start i only at some j > i with 2k(j - i) < a_j - a_i. Had
    it reached the sentinel n, the chain 0 -> j(0) -> ... -> n of given-up
    starts would telescope to 2kn < a_n - a_0 <= m + 1, against n*k >= m + 1.
    So it stops at an element of B: u <= max B - 1 <= m/5, and 2u <= m.
    """
    require(0 in a and 1 in a, "membership", "ap_restricted needs {0,1} in A")
    require(m >= 1, "interval-bound-positive", f"m={m}")
    u, side = find_dense_endpoint(a, m, k)
    require(side is Side.LEFT, "left-dense-endpoint", f"u={u}, 2u > m={m}")
    elems = a.elems
    lo, hi = bisect_left(elems, u + 1), bisect_right(elems, u + ceil_div(m, 2))
    # 0, then the elements in [u+1, u+half] less u: sorted, distinct, above 0
    b_set = SortedIntSet._ordered((0, *map(sub, islice(elems, lo, hi), repeat(u))))
    contract(1 in b_set, "the endpoint guarantees u+1 in A, so 1 in B")
    try:
        dw = build_density_witness(b_set, m, 8 * k)
    except PreconditionViolated as exc:
        raise InternalContract(f"shifted set lost the 1/(4k) density bound: {exc}") from exc
    return u, dw


class ShortLeaf:
    """Leaf of the k-fold pipeline, in one pass over the density witness's
    parts b: the restricted shift makes each b the pair (0, u+1) or (1, u+b),
    and the closest-pair lift makes each value x of a pair two A-elements
    summing to x*g + a' + a*. in_class[x] says whether x*g + a' is in A (if
    not, (x-1)*g + a' is). The fixed values 0, 1 and u+1 are lifted at build,
    so a part b != 0 costs one byte test, on u+b."""

    def __init__(
        self, u: int, dw: DensityWitness, in_class: bytes, g: int, a_prime: int, a_star: int
    ):
        self.u = u
        self.dw = dw
        self.in_class = in_class
        self.g = g
        self.a_prime = a_prime
        self.a_star = a_star
        self.zero_lift = self._lift(0) + self._lift(u + 1)
        self.one_lift = self._lift(1)
        start = dw.fold_budget * (g * (u + 1) + 2 * (a_prime + a_star))
        self.ap = ArithProgression(start, g, dw.m)

    def _lift(self, x: int) -> tuple[int, int]:
        v = x * self.g + self.a_prime
        return (v, self.a_star) if self.in_class[x] else (v - self.g, self.a_star + self.g)

    def query_parts(self, j: int, rng: RandomSource) -> dict[int, int]:
        u, g, a_star, in_class = self.u, self.g, self.a_star, self.in_class
        shift = u * g + self.a_prime
        counts: dict[int, int] = {}
        zeros = 0
        for b, c in self.dw.query_parts(j, rng):
            if not b:
                zeros += c
                continue
            if in_class[u + b]:
                v, w = b * g + shift, a_star
            else:
                v, w = b * g + shift - g, a_star + g
            counts[v] = counts.get(v, 0) + c
            counts[w] = counts.get(w, 0) + c
        for values, c in ((self.zero_lift, zeros), (self.one_lift, self.dw.fold_budget - zeros)):
            if c:
                for v in values:
                    counts[v] = counts.get(v, 0) + c
        return counts


def _closest_class(elems: Sequence[int]) -> tuple[int, int, int, int, bytes, SortedIntSet]:
    """(g, a*, t, a', in_class, B) for ap_short: g is the closest gap and a*
    the smallest element starting one; t counts the residues mod g; the class
    is the most frequent residue (the smallest on a tie), a' its first
    element; in_class[b] = 1 for its b-values (e - a')/g; B is the b-values
    and the b-values + 1. C-level passes, but for one comprehension over the
    class; nothing but the result outlives the call."""
    g = min(map(sub, islice(elems, 1, None), elems))
    a_star = elems[indexOf(map(sub, islice(elems, 1, None), elems), g)]
    if g == 1:  # one residue class: every element
        t, cls = 1, elems
    else:
        rs = list(map(mod, elems, repeat(g)))
        counts = Counter(rs)
        r_best = max(sorted(counts), key=counts.__getitem__)  # the first, so smallest, of a tie
        t, cls = len(counts), tuple(compress(elems, map(eq, rs, repeat(r_best))))
    a_prime = cls[0]
    # a sorted class has sorted, distinct b-values
    b_vals = tuple(map(floordiv, map(sub, cls, repeat(a_prime)), repeat(g)))
    in_class = bytearray(b_vals[-1] + 2)
    # setitem returns None, so any() runs the map to its end
    any(map(setitem, repeat(in_class), b_vals, repeat(1)))
    # the b + 1 outside the class (filterfalse over in_class.__getitem__ is slower)
    above = [b + 1 for b in b_vals if not in_class[b + 1]]
    # B merges two sorted runs: the b-values and the b + 1 outside the class
    b_set = SortedIntSet._ordered(tuple(sorted(chain(b_vals, above))))
    return g, a_star, t, a_prime, bytes(in_class), b_set


def ap_short(a: SortedIntSet, m: int, k: int) -> ShortLeaf:
    """Leaf whose ap {s} + {0, g, ..., l*g} lies in 320kA; g <= 2m/n, l*min(g, n) >= 5m."""
    n = len(a)
    require(n >= 2, "set-at-least-two", f"n={n}")
    require(m >= 1, "interval-bound-positive", f"m={m}")
    require(n * k >= m + 1, "cardinality", f"n*k = {n * k} < m+1 = {m + 1}")
    require(a.max <= m, "elements-within-interval", f"max={a.max} > m={m}")
    g, a_star, t, a_prime, in_class, b_set = _closest_class(a.elems)
    contract(g * (n - 1) <= m, "closest gap exceeds m/(n-1)")
    m2 = ceil_div(5 * m, t)
    k2 = 5 * k
    contract(len(b_set) * k2 >= m2 + 1, "shifted gap set lost the cardinality bound")
    contract(b_set.max <= m2, "shifted gap set exceeds its interval")
    u, dw = ap_restricted(b_set, m2, k2)
    leaf = ShortLeaf(u, dw, in_class, g, a_prime, a_star)
    contract(leaf.ap.length * min(g, n) >= 5 * m, "short progression too short")
    return leaf


@dataclass(frozen=True)
class KfoldApResult:
    """AP of length m with diff 1 plus its witness inside the k-fold sumset."""

    ap: ArithProgression
    witness: ApWitness
    k_eff: int
    fold_budget: int


def ap_in_kfold_sumset(
    a_raw: Union[Sequence[int], SortedIntSet], m: int, k: int
) -> KfoldApResult:
    """{s} + {0, 1, ..., m} inside 332kA, with a per-term certificate witness.

    Requires (after sorting/dedup) 0 in A, gcd(A) = 1, A within [0, m], and
    n*k >= m + 1. The pipeline internally clamps the fold to
    k_eff = ceil((m+1)/n); certificates then also hold for any budget >= that.
    """
    a = a_raw if isinstance(a_raw, SortedIntSet) else normalize(a_raw)[0]
    require(len(a) >= 1, "set-nonempty")
    require(m >= 1, "interval-bound-positive", f"m={m}")
    require(k >= 1, "fold-positive", f"k={k}")
    require(0 in a, "zero-in-set")
    g = gcd_all(a)
    require(g == 1, "gcd-one", f"gcd={g}")
    require(a.max <= m, "elements-within-interval", f"max={a.max} > m={m}")
    n = len(a)
    require(n * k >= m + 1, "cardinality", f"n*k = {n * k} < m+1 = {m + 1}")
    k_eff = ceil_div(m + 1, n)
    contract(k_eff <= k, "clamped fold must not exceed the requested fold")
    leaf = ap_short(a, m, k_eff)
    p_final, layers, budget_extra = augment_to_full(a, leaf.ap, m)
    fold_budget = 320 * k_eff + budget_extra
    contract(fold_budget <= 332 * k_eff, f"budget {fold_budget} exceeds 332*k_eff")
    witness = ApWitness(leaf, layers, fold_budget=fold_budget)
    contract(witness.ap == p_final, "assembled witness progression mismatch")
    contract(p_final.length >= m, "final progression shorter than m")
    witness = witness.truncated(m)
    return KfoldApResult(witness.ap, witness, k_eff, fold_budget)
