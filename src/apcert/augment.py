"""Iterative augmentation of progressions in k-fold sumsets, with witness layers.

An ApWitness answers "give me a certificate for term j" by walking a stack of
layers from the outermost progression down to a leaf witness. Each layer maps
an outer term index to an inner term index plus a fixed bag of extra base-set
parts; the leaf resolves the innermost index to a certificate. Two layer kinds
exist:

  * a ladder layer subdivides the common difference d into d' = gcd(d, g)
    using w = d/d' copies of a pair {a, a + g} with d not dividing g: its rung
    for each residue s_q + i*d' modulo d takes some copies at a + g, the rest
    at a;
  * a divisible-pair layer stretches the progression using h copies of a pair
    {a, a + g} with d | g.

A ladder layer holds O(1) metadata and works out its rung's parts with O(1)
arithmetic. A divisible-pair layer stores the part tuples it emits whole, so
only a partial step builds parts at query time.
"""

from __future__ import annotations

from copy import copy
from itertools import compress, islice, repeat
from math import gcd
from operator import mod, mul, sub
from typing import Optional, Protocol, Sequence

from .core import (
    ArithProgression,
    CompactSolution,
    InternalContract,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    ceil_log2,
    contract,
    gcd_all,
    require,
)

Parts = Sequence[tuple[int, int]]


# ---------------------------------------------------------------------------
# Witness composition
# ---------------------------------------------------------------------------

class LeafWitness(Protocol):
    """query_parts returns a fresh value -> count dict that the witness adds into."""

    ap: ArithProgression

    def query_parts(self, j: int, rng: RandomSource) -> dict[int, int]: ...


class Layer(Protocol):
    outer: ArithProgression
    inner: ArithProgression

    def resolve(self, j: int) -> tuple[int, Parts]: ...


def stacked_ap(leaf_ap: ArithProgression, layers: Sequence[Layer]) -> ArithProgression:
    """The outer progression of `layers`, outermost first, checked to chain
    down onto the leaf's progression `leaf_ap`."""
    ap = leaf_ap
    for layer in reversed(layers):
        contract(layer.inner == ap, "layer chain mismatch")
        ap = layer.outer
    return ap


class ApWitness:
    """Immutable composed k-fold witness: query(j) certifies term start +
    j*diff with a total multiplicity of at most fold_budget."""

    def __init__(self, leaf: LeafWitness, layers: Sequence[Layer], fold_budget: int):
        self.leaf = leaf
        self.layers = tuple(layers)  # outermost first
        self.fold_budget = fold_budget
        self.ap = stacked_ap(leaf.ap, self.layers)

    def query(self, j: int, rng: RandomSource) -> CompactSolution:
        target = self.ap.term(j)
        collected: list[tuple[int, int]] = []
        for layer in self.layers:
            j, extra = layer.resolve(j)
            collected.extend(extra)
        # the leaf's dict is this query's own, so the layers' parts add into it
        leaf_parts = self.leaf.query_parts(j, rng)
        for v, c in collected:
            leaf_parts[v] = leaf_parts.get(v, 0) + c
        total = sum(map(mul, leaf_parts, leaf_parts.values()))
        if total != target:
            raise InternalContract(f"certificate sums to {total}, wanted {target}")
        return CompactSolution.from_counts(leaf_parts, target, self.fold_budget)

    def truncated(self, length: int) -> "ApWitness":
        w = copy(self)
        w.ap = self.ap.truncate(length)
        return w


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def solve_residue_coefficient(d: int, g: int) -> tuple[int, int]:
    """Return (d', j*) with d' = gcd(d, g) and j*·g ≡ d' (mod d), 0 <= j* <= (d-d')/d'.

    Writing g = d'·g1 and d = d'·d1 with gcd(g1, d1) = 1, j* is the inverse of
    g1 modulo d1.
    """
    require(d >= 2, "modulus-at-least-2", f"d={d}")
    require(g >= 1, "gap-positive", f"g={g}")
    dp = gcd(d, g)
    d1 = d // dp
    if d1 == 1:
        return dp, 0
    return dp, pow(g // dp, -1, d1)


class LadderLayer:
    """Augmentation by the ladder of a pair {a, a+g} whose gap the inner
    difference d does not divide: P' = {s + s_q + h_max*d} + {0, d', ...,
    l'd'} with d' = gcd(d, g), w = d/d' and s_q = w*a.

    Rung i is q_i = s_q + k*g with k = i*j* mod w, a member of the w-fold
    sumset of {a, a+g}, and q_i = s_q + i*d' (mod d); its height
    floor(k*g/d) is at most h_max = (w-1)*g // d."""

    def __init__(self, inner: ArithProgression, a: int, g: int):
        d = inner.diff
        require(d > 1, "diff-above-one", f"diff={d}")
        require(g >= 1 and g % d != 0, "pair-gap-not-divisible", f"d={d}, g={g}")
        require(a >= 0, "pair-value-nonnegative", f"a={a}")
        dp, jstar = solve_residue_coefficient(d, g)
        require(inner.length >= g // dp, "ap-long-enough-for-pair",
                f"length {inner.length} < g/d' = {g // dp}")
        w = d // dp
        # the exact maximum rung height, at most the conservative g/d', buys
        # a longer progression
        h_max = (w - 1) * g // d
        self.inner, self.a, self.g, self.jstar, self.width = inner, a, g, jstar, w
        self.s_q, self.low = w * a, ((a, w),)
        start = inner.start + w * a + h_max * d
        self.outer = ArithProgression(start, dp, (inner.length - h_max) * w)

    def resolve(self, j: int) -> tuple[int, Parts]:
        d, dp, w = self.inner.diff, self.outer.diff, self.width
        # rung i = (j*d' mod d)/d' takes k of its w copies at a+g
        k = (j * dp % d) // dp * self.jstar % w
        p = self.outer.term(j) - self.s_q - k * self.g
        off = p - self.inner.start
        if off < 0 or off % d:
            raise InternalContract(f"ladder residual {p} not on inner progression")
        inner_j = off // d
        contract(inner_j <= self.inner.length, "ladder residual beyond inner progression")
        if not k:
            return inner_j, self.low
        return inner_j, ((self.a, w - k), (self.a + self.g, k))


class DivPairLayer:
    """A divisible-pair step: h copies of {a, a+g} with d | g stretch the
    length by h*g/d. An outer index at least the threshold h*g/d takes every
    copy at a+g, one below g/d every copy at a, and one in between its
    quotient by g/d of copies at a+g, the rest at a."""

    def __init__(self, inner: ArithProgression, a: int, g: int, h: int):
        d = inner.diff
        require(g >= 1 and g % d == 0, "pair-gap-divisible", f"d={d}, g={g}")
        require(g <= inner.length * d, "pair-gap-at-most-span", f"g={g}, span={inner.length * d}")
        require(h >= 1, "fold-count-positive", f"h={h}")
        require(a >= 0, "pair-value-nonnegative", f"a={a}")
        self.inner = inner
        self.outer = ArithProgression(inner.start + h * a, d, inner.length + h * g // d)
        self.a, self.hi, self.h, self.e = a, a + g, h, g // d  # e: the pair gap in terms
        self.threshold = h * self.e
        self.full, self.low = ((a + g, h),), ((a, h),)

    def resolve(self, j: int) -> tuple[int, Parts]:
        if j >= self.threshold:
            return j - self.threshold, self.full
        if j < self.e:
            return j, self.low
        # 0 < q < h copies take the larger value
        q, j = divmod(j, self.e)
        return j, ((self.hi, q), (self.a, self.h - q))


# ---------------------------------------------------------------------------
# Augmentation operations
# ---------------------------------------------------------------------------

def find_gap_pairs(
    a: SortedIntSet, d: int, m: int
) -> tuple[int, tuple[int, int], Optional[tuple[int, int]]]:
    """(case, pair1, pair2): a small non-divisible gap, or one plus a large
    divisible run-sum. pair1 = (a, g) with d not dividing g; pair2 =
    (a', g') with d | g', or None in case 1.

    Case 1 (at least n/4 of the consecutive gaps are not divisible by d):
    the smallest non-divisible gap g satisfies 1 <= g <= 4m/n. Case 2: the
    largest run of consecutive divisible gaps sums to g' with d | g' and
    n*d*g/(4m) <= g' <= m. First qualifying index wins every tie.
    """
    require(d >= 2, "modulus-at-least-2", f"d={d}")
    require(len(a) >= 2, "set-at-least-two")
    require(0 in a, "zero-in-set")
    g = gcd_all(a)
    require(g == 1, "gcd-one", f"gcd={g}")
    require(a.max <= m, "elements-within-interval", f"max={a.max} > m={m}")
    elems = a.elems
    n = len(elems)
    gaps = list(map(sub, islice(elems, 1, None), elems))
    rems = list(map(mod, gaps, repeat(d)))
    h = n - 1 - rems.count(0)
    contract(h > 0, "gcd 1 forces a gap not divisible by d")
    # every gap equal to the smallest non-divisible one is non-divisible
    g_small = min(compress(gaps, rems))
    i_small = gaps.index(g_small)
    pair1 = (elems[i_small], g_small)
    if 4 * h >= n:
        contract(g_small * n <= 4 * m, "smallest non-divisible gap exceeds 4m/n")
        return 1, pair1, None
    # the divisible gaps between consecutive non-divisible indices b < b'
    # form the run b+1 .. b'-1, of b' - b - 1 gaps; the first longest wins
    boundaries = [-1, *compress(range(n - 1), rems), n - 1]
    sizes = list(map(sub, islice(boundaries, 1, None), boundaries))
    best = sizes.index(max(sizes))
    best_lo, best_hi = boundaries[best] + 1, boundaries[best + 1] - 1
    contract(best_hi >= best_lo, "case 2 needs a nonempty divisible run")
    g_big = elems[best_hi + 1] - elems[best_lo]
    contract(g_big % d == 0, "run-sum gap must be divisible by d")
    contract(g_big <= m, "run-sum gap exceeds m")
    contract(4 * m * g_big >= n * d * g_small, "run-sum gap below n*d*g/(4m)")
    return 2, pair1, (elems[best_lo], g_big)


def augment_once(
    a: SortedIntSet, p: ArithProgression, m: int
) -> tuple[tuple[Layer, ...], int]:
    """One combined augmentation step; returns (layers, declared budget).

    Layers are listed outermost first, so P' is layers[0].outer with
    difference d'. The declared budget is d/d' + ceil(4m/(n d')) in both
    cases (zeros pad the unused half).
    """
    d = p.diff
    require(d >= 2, "diff-at-least-two", f"diff={d}")
    require(p.length * d >= m, "ap-span-at-least-m", f"span={p.length * d} < m={m}")
    n = len(a)
    case, (a1, g1), pair2 = find_gap_pairs(a, d, m)
    dp = gcd(d, g1)
    h = ceil_div(4 * m, n * dp)
    if case == 1:
        return (LadderLayer(p, a1, g1),), d // dp + h
    a2, g2 = pair2
    div_layer = DivPairLayer(p, a2, g2, h)
    p_mid = div_layer.outer
    contract(
        p_mid.length >= p.length + g1 // dp,
        "divisible-pair stretch must cover the ladder loss",
    )
    return (LadderLayer(p_mid, a1, g1), div_layer), d // dp + h


def augment_to_full(
    a: SortedIntSet, p: ArithProgression, m: int
) -> tuple[ArithProgression, tuple[Layer, ...], int]:
    """Iterate augment_once until diff = 1 and length >= m (0 in A, gcd(A) = 1).

    Returns (P_final, layers outermost first, declared extra fold budget),
    with the budget bounded by 2*diff_0 + ceil(8m/n).
    """
    n = len(a)
    size = p.length * min(p.diff, n)
    if size < 5 * m:
        raise PreconditionViolated(
            "ap-initial-size", f"length*min(diff, n) = {size} < 5m = {5 * m}"
        )
    d0 = p.diff
    layers: list[Layer] = []
    budget_extra = 0
    iterations = 0
    while p.diff >= 2:
        iterations += 1
        contract(iterations <= ceil_log2(d0 + 1) + 1, "too many augmentation iterations")
        try:
            new_layers, b = augment_once(a, p, m)
        except PreconditionViolated as exc:
            raise InternalContract(f"augmentation step failed mid-iteration: {exc}") from exc
        p = new_layers[0].outer
        layers = list(new_layers) + layers
        budget_extra += b
        contract(p.length * p.diff >= m, "iteration lost the span invariant l*d >= m")
    contract(p.length >= m, "final progression shorter than m")
    cap = 2 * d0 + ceil_div(8 * m, n)
    if budget_extra > cap:
        raise InternalContract(f"budget {budget_extra} exceeds 2*d0 + ceil(8m/n) = {cap}")
    return p, tuple(layers), budget_extra
