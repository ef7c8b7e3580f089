"""Iterative augmentation of arithmetic progressions, with witness layers.

An ApWitness answers "give me a certificate for term j" by walking a stack of
layers from the outermost progression down to a leaf witness. Each layer maps
an outer term index to an inner term index plus a fixed bag of extra base-set
parts; the leaf resolves the innermost index to a certificate. Two layer kinds
exist:

  * a ladder layer subdivides the common difference d into a proper divisor d'
    using a set Q whose elements hit every residue s_q + i*d' modulo d;
  * a divisible-pair layer stretches the progression using h copies of a pair
    {a, a + g} with d | g. Consecutive such steps at one difference form a
    single layer, a run, which resolves all of its steps in one loop.

A ladder layer holds O(1) metadata plus its ladder, whose lookup is O(1):
arithmetic for a pair ladder, a stored rung for a residue ladder. A run
holds, per step, its threshold and the two part tuples it can emit whole, so
only a partial k-fold step builds parts at query time.
"""

from __future__ import annotations

from copy import copy
from itertools import compress, islice, repeat
from math import gcd
from operator import mod, sub
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
    ap: ArithProgression

    def query_parts(self, j: int, rng: RandomSource) -> Parts: ...


class Layer(Protocol):
    outer: ArithProgression
    inner: ArithProgression

    def resolve(self, j: int) -> tuple[int, Parts]: ...


class ApWitness:
    """Immutable composed witness: query(j) certifies term start + j*diff.

    fold_budget > 0 declares k-fold sumset mode; fold_budget == 0 declares
    subset-sum mode, in which all emitted parts must be distinct base elements.
    """

    def __init__(self, leaf: LeafWitness, layers: Sequence[Layer] = (), fold_budget: int = 0):
        self.leaf = leaf
        # outermost first; each divisible-pair layer is joined onto the run
        # right outside it, so one run covers consecutive divisible-pair steps
        chain: list[Layer] = []
        for layer in layers:
            if chain:
                contract(chain[-1].inner == layer.outer, "layer chain mismatch")
                if isinstance(layer, DivPairLayer) and isinstance(chain[-1], DivPairLayer):
                    chain[-1] = chain[-1].join(layer)
                    continue
            chain.append(layer)
        self.layers = tuple(chain)
        self.fold_budget = fold_budget
        self.ap = self.layers[0].outer if self.layers else leaf.ap
        if self.layers:
            contract(self.layers[-1].inner == leaf.ap, "innermost layer must sit on the leaf")

    def query(self, j: int, rng: RandomSource) -> CompactSolution:
        target = self.ap.term(j)
        collected: list[tuple[int, int]] = []
        for layer in self.layers:
            j, extra = layer.resolve(j)
            collected.extend(extra)
        leaf_parts = self.leaf.query_parts(j, rng)
        if self.fold_budget:
            counts = dict(leaf_parts)
            contract(len(counts) == len(leaf_parts), "a fold-mode leaf emits each value once")
            for v, c in collected:
                counts[v] = counts.get(v, 0) + c
            sol = CompactSolution.from_counts(counts, target, self.fold_budget)
            total = sum(v * c for v, c in sol.parts)
        else:
            collected.extend(leaf_parts)
            values, counts = zip(*collected) if collected else ((), ())
            contract(counts.count(1) == len(counts), "subset-sum parts must have count 1")
            contract(len(set(values)) == len(values), "subset-sum parts must be distinct")
            sol = CompactSolution(tuple(zip(sorted(values), repeat(1))), target, 0)
            total = sum(values)
        if total != target:
            raise InternalContract(f"certificate sums to {total}, wanted {target}")
        return sol

    def truncated(self, length: int) -> "ApWitness":
        w = copy(self)
        w.ap = self.ap.truncate(length)
        return w


# ---------------------------------------------------------------------------
# Ladder accessors
# ---------------------------------------------------------------------------

class LadderAccessor(Protocol):
    d: int
    dp: int
    s_q: int
    h_min: int
    h_max: int

    def lookup(self, i: int) -> tuple[int, Parts]: ...


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


class PairLadder:
    """Ladder built from a pair {a, a+g} with d not dividing g.

    Entry i is q_i = d*a/d' + (i*jstar mod d/d') * g, a member of the
    (d/d')-fold sumset of {a, a+g}, and q_i = s_q + i*d' (mod d).
    """

    def __init__(self, d: int, a: int, g: int):
        require(d >= 2, "modulus-at-least-2", f"d={d}")
        require(g >= 1 and g % d != 0, "pair-gap-not-divisible", f"d={d}, g={g}")
        require(a >= 0, "pair-value-nonnegative", f"a={a}")
        dp, jstar = solve_residue_coefficient(d, g)
        self.d = d
        self.dp = dp
        self.a = a
        self.g = g
        self.jstar = jstar
        self.width = d // dp
        self.s_q = d * a // dp
        self.h_min = 0
        # rung heights are floor(j*g/d) for j < d/dp; the exact maximum (at
        # most the conservative g/dp) buys a longer progression
        self.h_max = (self.width - 1) * g // d

    def lookup(self, i: int) -> tuple[int, Parts]:
        width = self.width
        if not 0 <= i < width:
            raise InternalContract(f"ladder index {i} out of [0, {width})")
        # j < width, so a is always taken
        j = (i * self.jstar) % width
        if not j:
            return self.s_q, ((self.a, width),)
        return self.s_q + j * self.g, ((self.a, width - j), (self.a + self.g, j))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class LadderLayer:
    """Augmentation by a ladder: P' = {s + s_q + h_max*d} + {0, d', ..., l'd'}."""

    def __init__(self, inner: ArithProgression, ladder: LadderAccessor):
        d = inner.diff
        require(ladder.d == d, "ladder-modulus-matches-diff", f"{ladder.d} != {d}")
        require(
            1 <= ladder.dp < d and d % ladder.dp == 0,
            "ladder-proper-divisor",
            f"d'={ladder.dp}, d={d}",
        )
        require(
            inner.length >= ladder.h_max - ladder.h_min,
            "ap-long-enough-for-ladder",
            f"length {inner.length} < {ladder.h_max - ladder.h_min}",
        )
        self.inner = inner
        self.ladder = ladder
        dp = ladder.dp
        new_len = (inner.length - ladder.h_max + ladder.h_min) * (d // dp)
        self.outer = ArithProgression(
            inner.start + ladder.s_q + ladder.h_max * d, dp, new_len
        )

    def resolve(self, j: int) -> tuple[int, Parts]:
        d = self.inner.diff
        dp = self.outer.diff
        q_i, parts = self.ladder.lookup((j * dp % d) // dp)
        p = self.outer.term(j) - q_i
        off = p - self.inner.start
        contract(off >= 0 and off % d == 0, f"ladder residual {p} not on inner progression")
        inner_j = off // d
        contract(inner_j <= self.inner.length, "ladder residual beyond inner progression")
        return inner_j, parts


class DivPairLayer:
    """A run of divisible-pair steps at one difference d, outermost first.

    A step adds h copies of {a, a+g} with d | g and stretches the length by
    h*g/d. DivPairLayer(inner, a, g, h) is a run of one step; `join` puts a
    run on top of another. Each step is stored as (h*g/d, g/d, (a+g, h),
    (a, h)): its threshold, its pair gap in terms, and the parts it emits
    when the outer index is past the threshold or below g/d.
    """

    def __init__(self, inner: ArithProgression, a: int, g: int, h: int):
        d = inner.diff
        require(g >= 1 and g % d == 0, "pair-gap-divisible", f"d={d}, g={g}")
        require(g <= inner.length * d, "pair-gap-at-most-span", f"g={g}, span={inner.length * d}")
        require(h >= 1, "fold-count-positive", f"h={h}")
        require(a >= 0, "pair-value-nonnegative", f"a={a}")
        self.inner = inner
        self.outer = ArithProgression(inner.start + h * a, d, inner.length + h * g // d)
        self.steps = ((h * g // d, g // d, (a + g, h), (a, h)),)

    def join(self, inner_run: "DivPairLayer") -> "DivPairLayer":
        """The run of this run's steps followed by those of inner_run, which
        this run must sit on."""
        contract(self.inner == inner_run.outer, "layer chain mismatch")
        run = DivPairLayer.__new__(DivPairLayer)
        run.inner, run.outer = inner_run.inner, self.outer
        run.steps = self.steps + inner_run.steps
        return run

    def resolve(self, j: int) -> tuple[int, Parts]:
        parts: list[tuple[int, int]] = []
        for threshold, e, full, low in self.steps:
            if j >= threshold:
                j -= threshold
                parts.append(full)
            elif j < e:
                parts.append(low)
            else:
                # 0 < q < h copies take the larger value
                q, j = divmod(j, e)
                parts.append((full[0], q))
                parts.append((low[0], low[1] - q))
        return j, parts


# ---------------------------------------------------------------------------
# Augmentation operations
# ---------------------------------------------------------------------------

def augment_nondiv_pair(p: ArithProgression, a: int, g: int) -> LadderLayer:
    """Subdivide P's difference using a pair whose gap d does not divide;
    the layer's outer progression has the new difference d' = gcd(d, g)."""
    require(p.diff > 1, "diff-above-one", f"diff={p.diff}")
    ladder = PairLadder(p.diff, a, g)
    require(
        p.length >= g // ladder.dp,
        "ap-long-enough-for-pair",
        f"length {p.length} < g/d' = {g // ladder.dp}",
    )
    return LadderLayer(p, ladder)


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
        return (augment_nondiv_pair(p, a1, g1),), d // dp + h
    a2, g2 = pair2
    div_layer = DivPairLayer(p, a2, g2, h)
    p_mid = div_layer.outer
    contract(
        p_mid.length >= p.length + g1 // dp,
        "divisible-pair stretch must cover the ladder loss",
    )
    return (augment_nondiv_pair(p_mid, a1, g1), div_layer), d // dp + h


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
