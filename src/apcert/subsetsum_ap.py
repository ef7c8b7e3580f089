"""Arithmetic progressions inside subset sums, built from conflict-free pairs.

Strategy: harvest conflict-free consecutive pairs with small gaps, make the
gap multiset uniform, and transfer a progression in the k-fold sumset of the
gaps into S(A) by flipping chosen pairs from their low to their high endpoint.
The short progression is then lengthened round by round: pairs whose gap the
current difference divides stretch it (one fold each, a PairRun), and pairs
with non-divisible gaps feed a residue ladder (a ResidueLadderAccessor, this
module's ladder layer) that subdivides the difference.

Element-disjointness is structural: every source (the bridge bank, each run
of one-copy divisible-pair steps, each residue ladder's bank) owns pairs from
a pool that shrinks as rounds consume it, and a term takes exactly one end of
every pair (the witness checks the ends distinct and each query's mask).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from copy import copy
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, compress, filterfalse, repeat, starmap
from math import gcd
from operator import ge, lt, sub
from typing import Iterable, Iterator, Optional, Sequence, Union

from .augment import stacked_ap
from .core import (
    ArithProgression,
    CompactSolution,
    Exhausted,
    InternalContract,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    ceil_log2,
    contract,
    normalize,
    require,
)
from .profiles import TUNED, ConstantsProfile
from .sumset_ap import ap_in_kfold_sumset

Pair = tuple[int, int]


# ---------------------------------------------------------------------------
# Conflict-free pair sets
# ---------------------------------------------------------------------------

def conflict_free_pairs(pairs: Sequence[Pair]) -> tuple[Pair, ...]:
    """`pairs` as a tuple, checked conflict-free (lo < hi, no integer in two
    pairs) in C-level passes; the loop names the first fault only on one."""
    p = tuple(pairs)
    if not (all(starmap(lt, p)) and len(set(chain.from_iterable(p))) == 2 * len(p)):
        seen: set[int] = set()
        for lo, hi in p:
            require(lo < hi, "pair-ordered", f"({lo}, {hi})")
            require(lo not in seen and hi not in seen, "conflict-free", f"({lo}, {hi})")
            seen.add(lo)
            seen.add(hi)
    return p


def gen_pairs(a: SortedIntSet) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Columns (lo, hi, gaps) of at least n conflict-free consecutive pairs
    (lo[i], hi[i]) with gaps[i] = hi[i] - lo[i] <= m/n, where the largest
    |A| mod 4 elements are dropped first. Conflict-free by construction: the
    pairs (elems[i], elems[i + 1]) of one parity of i are disjoint, and
    lo < hi in a strictly increasing set. Every pass is C-level, and no
    pair tuple is built."""
    elems = a.elems[: len(a) - len(a) % 4]
    require(len(elems) >= 4, "set-at-least-four", f"kept {len(elems)}")
    n = len(elems) // 4
    cap = elems[-1] // n  # gap * n <= m exactly when gap <= m // n
    sides = []
    # the pairs at even and at odd positions i, (elems[i], elems[i + 1])
    for lo, hi in ((elems[0::2], elems[1::2]), (elems[1::2], elems[2::2])):
        gaps = list(map(sub, hi, lo))
        keep = list(map(ge, repeat(cap), gaps))
        sides.append((keep.count(True), lo, hi, gaps, keep))
    even, odd = sides
    count, lo, hi, gaps, keep = even if even[0] >= odd[0] else odd
    contract(count >= n, "pigeonhole guarantees n small-gap pairs")
    return tuple(compress(lo, keep)), tuple(compress(hi, keep)), tuple(compress(gaps, keep))


def uniformize(mult: Iterable[int]) -> int:
    """The multiplicity u maximizing u * #{key : multiplicity >= u} over the
    key multiplicities `mult`, the smallest u on ties.

    In ascending order, asc[i] * (len(asc) - i) is that score at u = asc[i]
    (lower at a repeat of asc[i] than at its first index), and `max` keeps
    the first, so the smallest, of equal scores.
    """
    asc = sorted(mult)
    return asc[max(range(len(asc)), key=lambda i: asc[i] * (len(asc) - i))]


# ---------------------------------------------------------------------------
# The pair bank: the gaps -> subset-sums bridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairBank:
    """Pairs banked behind a progression of their subset sums.

    Term j's subset takes the hi end of the pairs at the indices `flips[j]`
    and the lo end of every other pair, and sums to `sums[j]`. `ap`, in
    subset-sum units, is the bank's key progression times its gcd plus the
    sum of the lo ends. As the leaf of the gaps -> subset-sums bridge,
    `sums[j] == ap.term(j)` (checked once, by ap_by_pairs); a residue
    ladder's bank only keeps each sum on its residue."""

    ap: ArithProgression
    pairs: tuple[Pair, ...]
    flips: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...]

    def resolve(self, j: int) -> tuple[int, tuple[int, ...]]:
        """As a leaf: j itself and the pairs term j flips."""
        return j, self.flips[j]


def bank_pairs(
    lo: Sequence[int], hi: Sequence[int], keys: Sequence[int], bound: int,
    free: Sequence[int], noun: str, seed: int,
) -> PairBank:
    """Count the keys of the pairs (lo[i], hi[i]), keep the keys of at least
    u pairs (u from `uniformize`), certify every term of the progression of
    length `bound` over the gcd-reduced kept keys and `free` values once,
    and bank for each kept key its first pairs, as many as the certificates
    use of it. One index-order scan finds them and stops once all are
    found, and only they become pair tuples. Each certificate becomes its
    flip list: for every (key, count) part that is not free, the first
    `count` pairs of that key. `noun` names a key in Exhausted."""
    require(len(keys) >= 1, "pairs-nonempty")
    mult = Counter(keys)
    u = uniformize(mult.values())
    kept_keys = sorted(k for k, c in mult.items() if c >= u)
    contract(
        u * len(kept_keys) * ceil_log2(2 * len(keys)) >= len(keys),
        "uniform subset below |T|/log2(2|T|)",
    )
    values = set(free).union(kept_keys)
    scale = gcd(*values)
    reduced = SortedIntSet.from_iterable(v // scale for v in values)
    witness = ap_in_kfold_sumset(reduced, bound, ceil_div(bound + 1, len(reduced))).witness
    rng = RandomSource(seed)
    certs = tuple(witness.query(j, rng.derive("bank", j)) for j in range(witness.ap.length + 1))
    use: dict[int, int] = {}
    for sol in certs:
        for v, c in sol.parts:
            use[v] = max(use.get(v, 0), c)
    need: dict[int, int] = {}
    for key in kept_keys:
        need[key] = use.get(key // scale, 0)
        if need[key] > u:
            raise Exhausted(f"{noun} {key} needs multiplicity {need[key]}, uniform set has {u}")
    found: dict[int, list[int]] = {key: [] for key in kept_keys}
    todo = {key: c for key, c in need.items() if c}  # pairs still to find, by key
    for i, key in enumerate(keys):
        if key in todo:
            found[key].append(i)
            todo[key] -= 1
            if not todo[key]:
                del todo[key]
                if not todo:
                    break
    order: list[int] = []
    first: dict[int, int] = {}  # reduced key -> the index of its first banked pair
    for key in kept_keys:
        first[key // scale] = len(order)
        order += found[key]
    lo_ends, hi_ends = tuple(map(lo.__getitem__, order)), tuple(map(hi.__getitem__, order))
    gaps = tuple(map(sub, hi_ends, lo_ends))
    # a reduced value is a kept key or free, and the free values have no pairs
    flips = tuple(tuple(chain.from_iterable(range(first[v], first[v] + c)
                                            for v, c in sol.parts if v in first)) for sol in certs)
    base = sum(lo_ends)
    sums = tuple(base + sum(map(gaps.__getitem__, f)) for f in flips)
    w = witness.ap
    return PairBank(ArithProgression(base + w.start * scale, w.diff * scale, w.length),
                    tuple(zip(lo_ends, hi_ends)), flips, sums)


def ap_by_pairs(
    lo: Sequence[int], hi: Sequence[int], gaps: Sequence[int], g_bound: int,
    profile: ConstantsProfile = TUNED, seed: int = 0,
) -> PairBank:
    """AP of length g_bound in S(A_{T*}) for a small subset T* of the
    conflict-free pairs (lo[i], hi[i]) with gaps[i] = hi[i] - lo[i] (the
    columns of gen_pairs): the bank over T* = bank.pairs, each of whose
    flip lists is checked to sum to its term."""
    require(len(gaps) >= 1, "pairs-nonempty")
    g_max = max(gaps)
    if min(gaps) < 1 or g_max > g_bound:
        raise PreconditionViolated("gaps-within-bound", f"gaps up to {g_max} vs bound {g_bound}")
    if profile.enforce_caps:
        require(
            g_bound * profile.pair_cap * ceil_log2(2 * len(gaps)) <= len(gaps),
            "pairs-vs-gap-cap",
            f"g_bound={g_bound}, |T|={len(gaps)}",
        )
    bank = bank_pairs(lo, hi, gaps, g_bound, (0,), "gap", seed)
    contract(bank.sums == tuple(bank.ap.terms()), "flipped gaps must reproduce the inner target")
    if profile.enforce_caps:
        contract(len(bank.pairs) <= profile.pair_cap * g_bound, "pair coreset above cap")
    return bank


def short_ap_in_subset_sums(
    a: SortedIntSet, ell: int, profile: ConstantsProfile = TUNED, seed: int = 0
) -> PairBank:
    """The bank of an AP of length ell and diff <= m/n in S(A*), where A* is
    the endpoints of bank.pairs, |A*| <= 2000*ell (profile-scaled) and
    n = |A|/4."""
    require(len(a) >= 4, "set-at-least-four")
    require(a.min >= 1, "positive-elements")
    n = len(a) // 4
    m = a.max
    if profile.enforce_caps:
        require(ell * n >= m, "length-floor", f"ell={ell} < m/n={m}/{n}")
        require(
            ell * profile.pair_cap * ceil_log2(2 * n) <= n,
            "length-cap",
            f"ell={ell}, n={n}",
        )
    bank = ap_by_pairs(*gen_pairs(a), ell, profile, seed)
    contract(bank.ap.diff * n <= m, "short progression diff above m/n")
    return bank


# ---------------------------------------------------------------------------
# Gap scan: qualifying pairs under removals, for one augmentation round
# ---------------------------------------------------------------------------

class Gone:
    """The indices gone from a sorted pool, and the links that step over
    them: nxt[i] (prv[i]) is the next (previous) index not gone, stored only
    where an unlink made it differ from i + 1 (i - 1). Only the links of
    indices not gone are read; those of gone indices go stale, and -1 and
    the pool's length may get entries too."""

    __slots__ = ("dead", "nxt", "prv")

    def __init__(self) -> None:
        self.dead: set[int] = set()
        self.nxt: dict[int, int] = {}
        self.prv: dict[int, int] = {}

    def copy(self) -> Gone:
        """Three C-level copies: unlinking on the copy leaves this one as it is."""
        c = Gone()
        c.dead, c.nxt, c.prv = set(self.dead), self.nxt.copy(), self.prv.copy()
        return c

    def unlink(self, i: int) -> int:
        """Mark index i, not yet gone, gone and link its neighbours across
        it; returns the previous index not gone (-1 if none)."""
        p, q = self.prv.get(i, i - 1), self.nxt.get(i, i + 1)
        self.nxt[p] = q
        self.prv[q] = p
        self.dead.add(i)
        return p


def _gap_case(d: int, case1_cap: int, c2_lo: int, c2_hi: int):
    """The gap classifier: 1 for case 1, 2 for a case-2 run start, else 0."""
    def case(g: int) -> int:
        if g % d:
            return 1 if g <= case1_cap else 0
        return 2 if c2_lo <= g <= c2_hi or (g < c2_lo and g <= case1_cap) else 0
    return case


def _initial_walk(
    vals: Sequence[int], gone: set[int], case, want: int
) -> Iterator[int]:
    """The indices i not in `gone`, ascending, whose gap to the next index not
    in `gone` is of case `want`. Not a method: a generator holding its scan
    would make the cycle scan -> generator -> frame -> scan, which only the
    cycle collector frees."""
    alive = filterfalse(gone.__contains__, range(len(vals)))
    i = next(alive, None)
    if i is None:
        return
    prev = vals[i]
    for j in alive:
        cur = vals[j]
        if case(cur - prev) == want:
            yield i
        i, prev = j, cur


class GapScan:
    """Serves qualifying pairs of consecutive alive elements for fixed (d,
    ell, gamma) while removals merge the neighbouring gaps.

    Case 1: a single gap not divisible by d, at most ell/window_div.
    Case 2: a divisible gap (or run-sum of small divisible gaps) inside
    [ell*d/(window_lo_div*gamma), ell*d/window_div].

    Candidates of each case come from a lazy walk over the original gaps in
    index order, then, once it runs dry, from the tail deque (c1, c2) of gaps
    re-classified after a removal; each is revalidated when served. This is
    the order of an eager scan that queues every original gap up front and
    appends re-classified ones behind: its initial entries all precede its
    tail, and either way a candidate is judged on the state at its pop. So a
    round reads gaps only up to its last pair, and none for case 1 when d = 1
    (every gap is divisible). The elements at the indices in `gone` start
    dead, and the scan unlinks its removals on a copy of `gone`'s links, so
    set-up makes no Python-level pass over them and `gone` is left as it
    was, for a failed round or a case-1 round that uses only some pairs. A
    run's end comes from one bisect on its value bound, cut before the first
    alive element of another class mod d, since its gaps telescope.
    """

    def __init__(
        self,
        values: Sequence[int],
        d: int,
        ell: int,
        gamma: Fraction,
        profile: ConstantsProfile,
        gone: Gone,
    ):
        self.vals = values
        self.n = len(values)
        self.d = d
        self.c2_hi = ell * d // profile.window_div
        num = ell * d * gamma.denominator
        den = profile.window_lo_div * gamma.numerator
        self.c2_lo = max(1, ceil_div(num, den))
        self.case = _gap_case(d, ell // profile.window_div, self.c2_lo, self.c2_hi)
        links = gone.copy()
        self.nxt, self.dead, self.unlink = links.nxt, links.dead, links.unlink
        # the walks read the round's starting state, which the copy leaves as it is
        self.fresh1 = _initial_walk(values, gone.dead, self.case, 1) if d > 1 else iter(())
        self.fresh2 = _initial_walk(values, gone.dead, self.case, 2)
        self.c1: deque[int] = deque()
        self.c2: deque[int] = deque()

    def _gap(self, i: int) -> Optional[int]:
        j = self.nxt.get(i, i + 1)
        return self.vals[j] - self.vals[i] if j < self.n else None

    def _pop(self, fresh: Iterator[int], tail: deque[int], want: int) -> Optional[int]:
        """The next candidate whose current gap is still of case `want`."""
        while True:
            i = next(fresh, None)
            if i is None:
                if not tail:
                    return None
                i = tail.popleft()
            if i not in self.dead:
                g = self._gap(i)
                if g is not None and self.case(g) == want:
                    return i

    def pop_case1(self) -> Optional[tuple[int, int]]:
        i = self._pop(self.fresh1, self.c1, 1)
        return None if i is None else (i, self.nxt.get(i, i + 1))

    def pop_case2(self) -> Optional[tuple[int, int]]:
        while (i := self._pop(self.fresh2, self.c2, 2)) is not None:
            pair = self._walk_run(i)
            if pair is not None:
                return pair
        return None

    def _walk_run(self, start: int) -> Optional[tuple[int, int]]:
        """Accumulate consecutive divisible gaps from `start` as close to the
        window's upper edge as fits; one such run is one pair (its interior
        elements survive), so longer runs mean more length gain per pair.

        The gaps of a run telescope to vals[end] - vals[start], so `end` is
        the last alive index below both the value bound and the first alive
        element of another class mod d."""
        vals, d, dead = self.vals, self.d, self.dead
        hi = bisect_right(vals, vals[start] + self.c2_hi, start)
        if d > 1:
            r = vals[start] % d
            other = compress(
                range(start + 1, hi), map(r.__ne__, map(d.__rmod__, vals[start + 1 : hi]))
            )
            hi = next(filterfalse(dead.__contains__, other), hi)
        end = hi - 1
        while end in dead:
            end -= 1
        if vals[end] - vals[start] >= self.c2_lo:
            return start, end
        return None

    def remove_pair(self, i: int, j: int) -> None:
        for idx in (j, i):
            contract(idx not in self.dead, "removing a dead element")
            p = self.unlink(idx)
            g = self._gap(p) if p >= 0 else None
            case = 0 if g is None else self.case(g)
            if case:
                (self.c1 if case == 1 else self.c2).append(p)


def gamma_parameter(m: int, n: int, ell: int, profile: ConstantsProfile) -> Fraction:
    return Fraction(m, n) + Fraction(ell, profile.window_div * n)


def extract_aug_pairs(
    pool: SortedIntSet,
    d: int,
    ell: int,
    m: int,
    n: int,
    profile: ConstantsProfile,
    gain_target: int,
    gone: Gone,
) -> tuple[int, list[Pair]]:
    """Extract conflict-free augmentation pairs from `pool` less its elements
    at the indices in `gone` until one case reaches its target: case 1 at
    case1_pair_factor*d*log2(d) pairs, case 2 at window_div*gamma pairs or
    at a total length gain of gain_target. Returns (case, pairs of that
    case), each pair the indices (i, j) of its ends in pool.elems."""
    gamma = gamma_parameter(m, n, ell, profile)
    scan = GapScan(pool.elems, d, ell, gamma, profile, gone)
    c1_target = (
        profile.case1_pair_factor * d * ceil_log2(d) if d >= 2 else None
    )
    c2_pair_target = ceil_div(
        profile.window_div * gamma.numerator, gamma.denominator
    )
    case1: list[Pair] = []
    case2: list[Pair] = []
    gain = 0
    while True:
        # a small non-divisible gap comes first; otherwise a divisible gap
        # (possibly a run-sum) inside the window
        case, hit = 1, scan.pop_case1()
        if hit is None:
            case, hit = 2, scan.pop_case2()
        if hit is None:
            break
        i, j = hit
        scan.remove_pair(i, j)
        if case == 1:
            case1.append(hit)
            if c1_target is not None and len(case1) >= c1_target:
                return 1, case1
        else:
            case2.append(hit)
            gain += (pool.elems[j] - pool.elems[i]) // d
            if gain >= gain_target or len(case2) >= c2_pair_target:
                return 2, case2
    if case1:
        return 1, case1
    if case2:
        return 2, case2
    raise Exhausted(f"no qualifying augmentation pair (d={d}, ell={ell})")


# ---------------------------------------------------------------------------
# Residue ladder from non-divisible pairs
# ---------------------------------------------------------------------------

class ResidueLadderAccessor:
    """The subset-sum ladder layer: P' = {s + s_q + h_max*d} + {0, d', ...,
    l'd'}, where the bank's progression {s_q} + {0, d', ...} lists its rungs.
    Rung i, for i < d/d', is the bank's sum q_i and flip list of term i, and
    q_i = s_q + i*d' (mod d); h_min and h_max are the least and the greatest
    rung height floor((q_i - s_q)/d). A term takes exactly one end of each of
    the bank's `pairs`."""

    def __init__(self, inner: ArithProgression, bank: PairBank):
        d, dp, s_q = inner.diff, bank.ap.diff, bank.ap.start
        rungs = bank.sums[: d // dp]
        for i, q in enumerate(rungs):
            contract((q - s_q) % d == i * dp % d, "ladder rung residue mismatch")
        heights = [(q - s_q) // d for q in rungs]
        h_min, h_max = min(heights), max(heights)
        if inner.length < h_max - h_min:
            raise Exhausted(
                f"ladder window {h_max - h_min} exceeds progression length {inner.length}"
            )
        self.inner, self.bank, self.pairs = inner, bank, bank.pairs
        self.outer = ArithProgression(
            inner.start + s_q + h_max * d, dp, (inner.length - h_max + h_min) * (d // dp)
        )

    def lookup(self, i: int) -> tuple[int, tuple[int, ...]]:
        """(q_i, the indices of the pairs rung i flips)."""
        return self.bank.sums[i], self.bank.flips[i]

    def resolve(self, j: int) -> tuple[int, tuple[int, ...]]:
        """(the inner index, the pairs the rung of outer index j flips)."""
        d, dp = self.inner.diff, self.outer.diff
        q_i, flips = self.lookup((j * dp % d) // dp)
        p = self.outer.term(j) - q_i
        off = p - self.inner.start
        if off < 0 or off % d:
            raise InternalContract(f"ladder residual {p} not on inner progression")
        inner_j = off // d
        contract(inner_j <= self.inner.length, "ladder residual beyond inner progression")
        return inner_j, flips


def residue_ladder(
    p: ArithProgression,
    pairs: Sequence[Pair],
    profile: ConstantsProfile = TUNED,
    seed: int = 0,
) -> ResidueLadderAccessor:
    """The ladder layer on `p` over S(A_{T*}) for pairs whose gaps d =
    p.diff does not divide; T* is the layer's `pairs`.

    d' = gcd of the gap residues together with d, a proper divisor of d.
    Raises Exhausted when the rung heights span more than p's length.
    """
    d = p.diff
    require(d >= 2, "modulus-at-least-2", f"d={d}")
    pairs = conflict_free_pairs(pairs)
    lo, hi = tuple(zip(*pairs)) or ((), ())
    residues = [g % d for g in map(sub, hi, lo)]
    require(
        all(residues),
        "gaps-not-divisible",
        "residue ladder needs d to divide no gap",
    )
    if profile.enforce_caps:
        require(
            d * profile.pair_cap * ceil_log2(2 * len(pairs)) <= len(pairs),
            "pairs-vs-modulus-cap",
            f"d={d}, |T|={len(pairs)}",
        )
    # d joins the residues, so the progression's difference is gcd(residues, d)
    bank = bank_pairs(lo, hi, residues, d, (0, d), "residue", seed)
    dp = bank.ap.diff
    contract(1 <= dp < d and d % dp == 0, "residue gcd must properly divide d")
    if profile.enforce_caps:
        contract(len(bank.pairs) <= profile.pair_cap * d, "ladder coreset above cap")
    return ResidueLadderAccessor(p, bank)


# ---------------------------------------------------------------------------
# Runs of one-copy divisible pairs, and the subset-sum witness
# ---------------------------------------------------------------------------

class PairRun:
    """One-copy divisible-pair steps at one difference d, outermost first: a
    step takes the lo or the hi end of its pair (lo, hi), d | hi - lo, and
    stretches the length by its gain (hi - lo)/d. `prefix` holds the sums of
    the gains of the first 0, 1, ..., all steps."""

    def __init__(self, inner: ArithProgression, pairs: Sequence[Pair]):
        """The run of `pairs`, innermost first, on `inner`, each checked
        against the progression the steps before it reach."""
        d, start, length = inner.diff, inner.start, inner.length
        for a, b in pairs:
            g = b - a
            require(g >= 1 and g % d == 0, "pair-gap-divisible", f"d={d}, g={g}")
            require(g <= length * d, "pair-gap-at-most-span", f"g={g}, span={length * d}")
            require(a >= 0, "pair-value-nonnegative", f"a={a}")
            start, length = start + a, length + g // d
        self.inner, self.outer = inner, ArithProgression(start, d, length)
        self.pairs = tuple(pairs[::-1])
        self.gains = tuple((b - a) // d for a, b in self.pairs)
        self.prefix = (0, *accumulate(self.gains))

    def join(self, inner_run: "PairRun") -> "PairRun":
        """This run's steps followed by those of inner_run, which it must sit
        on; no step is checked again."""
        contract(self.inner == inner_run.outer, "layer chain mismatch")
        run = copy(self)
        vars(run).pop("smaller", None)
        run.inner, run.pairs = inner_run.inner, self.pairs + inner_run.pairs
        run.gains = self.gains + inner_run.gains
        run.prefix = (0, *accumulate(run.gains))
        return run

    @cached_property
    def smaller(self) -> list[int]:
        """For each step i, and for i = the step count, the first step after i
        with a smaller gain, else the step count; built on first use, not by join."""
        gains, stack = self.gains, []
        nxt = [len(gains)] * (len(gains) + 1)
        for i, g in enumerate(gains):
            while stack and gains[stack[-1]] > g:
                nxt[stack.pop()] = i
            stack.append(i)
        return nxt

    def tail(self, j: int) -> tuple[int, int, list[int]]:
        """(k, the inner index, the later steps that take their pair's hi end): one
        bisect over `prefix` finds the k leading steps that take it. A step takes it
        when the index left reaches its gain, else the walk jumps to the next smaller gain."""
        prefix, gains, smaller = self.prefix, self.gains, self.smaller
        k = bisect_right(prefix, j) - 1
        j -= prefix[k]
        n, flips, i = len(gains), [], smaller[k]
        while i < n:
            t = gains[i]
            if j >= t:
                j -= t
                flips.append(i)
                i += 1
            else:
                i = smaller[i]
        return k, j, flips

    def resolve(self, j: int) -> tuple[int, list[int]]:
        """(the inner index, the steps that take their pair's hi end)."""
        k, j, flips = self.tail(j)
        return j, [*range(k), *flips]


SubsetLayer = Union[PairRun, ResidueLadderAccessor]


class SubsetWitness:
    """Immutable subset-sum witness: query(j) certifies term start + j*diff.

    Its sources, outermost first, are the `layers` (each a PairRun or a
    residue ladder's ResidueLadderAccessor) and then the bridge bank `leaf`;
    each holds its `pairs`, and a term takes exactly one end of each. Set-up
    stores the pair ends, checked distinct, sorted (`ends`, with their (v, 1)
    `end_parts`), the byte mask `lo_mask` of the lo ends and, per source, the
    ranks of its pairs' ends. The outermost layer, if a PairRun, else an
    empty run, is the `head`, with `lead[k]` the mask with its first k steps
    flipped; the other sources are the `sources`. A query copies the lead
    mask that the head's tail(j) names, and patches two bytes per pair that
    it or a source's resolve(j) -> (inner j, flipped pair indices) names."""

    fold_budget = 0

    def __init__(self, leaf: PairBank, layers: Sequence[SubsetLayer] = ()):
        self.leaf = leaf
        self.layers = tuple(layers)
        self.ap = stacked_ap(leaf.ap, self.layers)
        sources = [(source, source.pairs) for source in (*self.layers, leaf)]
        ends = sorted(chain.from_iterable(chain.from_iterable(p for _, p in sources)))
        contract(len(set(ends)) == len(ends), "subset-sum pair ends must be distinct")
        rank = {v: r for r, v in enumerate(ends)}.__getitem__
        lo_ends = frozenset(lo for _, pairs in sources for lo, _ in pairs)
        self.ends = tuple(ends)
        self.end_parts = tuple(zip(ends, repeat(1)))
        self.lo_mask = bytes(map(lo_ends.__contains__, ends))
        sources = [(source, tuple(rank(lo) for lo, _ in pairs),
                    tuple(rank(hi) for _, hi in pairs)) for source, pairs in sources]
        if not isinstance(sources[0][0], PairRun):
            sources.insert(0, (PairRun(self.ap, ()), (), ()))
        self.head, self.sources = sources[0], tuple(sources[1:])
        mask, lead = bytearray(self.lo_mask), [self.lo_mask]
        for i, h in zip(*self.head[1:]):
            mask[i], mask[h] = 0, 1
            lead.append(bytes(mask))
        self.lead = tuple(lead)

    def query(self, j: int, rng: RandomSource) -> CompactSolution:
        target = self.ap.term(j)
        run, lo, hi = self.head
        k, j, flips = run.tail(j)
        mask, patches = bytearray(self.lead[k]), [(flips, lo, hi)]
        for source, lo, hi in self.sources:
            j, flips = source.resolve(j)
            patches.append((flips, lo, hi))
        for flips, lo, hi in patches:
            for i in flips:
                mask[lo[i]] = 0
                mask[hi[i]] = 1
        contract(2 * mask.count(1) == len(mask), "flips must keep one end of every pair")
        total = sum(compress(self.ends, mask))
        if total != target:
            raise InternalContract(f"certificate sums to {total}, wanted {target}")
        return CompactSolution._built(tuple(compress(self.end_parts, mask)), target, 0)

    def truncated(self, length: int) -> "SubsetWitness":
        w = copy(self)
        w.ap = self.ap.truncate(length)
        return w


# ---------------------------------------------------------------------------
# One augmentation round and the full pipeline
# ---------------------------------------------------------------------------

def extend_ap_once(
    p: ArithProgression,
    pool: SortedIntSet,
    n: int,
    m: int,
    profile: ConstantsProfile,
    gain_target: int,
    seed: int,
    gone: Gone,
) -> tuple[ArithProgression, SubsetLayer, tuple[int, ...]]:
    """(ap, layer, used): the progression grown by at least gain_target with
    pairs of `pool` less its elements at the indices in `gone`, the layer
    that grows it, and the indices in pool.elems of the endpoints of the
    pairs it consumed."""
    d, ell = p.diff, p.length
    gamma = gamma_parameter(m, n, ell, profile)
    if profile.enforce_caps:
        require(ell * n >= profile.min_len_factor * m, "aug-min-length",
                f"ell={ell} < {profile.min_len_factor}m/n")
        reserve = (
            n
            + profile.reserve_factor * d * ceil_log2(max(d, 2))
            + ceil_div(profile.window_lo_div * gamma.numerator, gamma.denominator)
        )
        alive = len(pool) - len(gone.dead)
        require(alive >= reserve, "aug-availability", f"|pool|={alive} < {reserve}")
    case, spots = extract_aug_pairs(pool, d, ell, m, n, profile, gain_target, gone)
    vals = pool.elems
    if case == 2:
        # extraction stops at the pair that reaches gain_target: one step per pair
        layer = PairRun(p, [(vals[i], vals[j]) for i, j in spots])
        used = spots
    else:
        layer = residue_ladder(p, [(vals[i], vals[j]) for i, j in spots], profile, seed)
        # the bank keeps a subset of the pairs; lo ends are distinct
        spot_of = {vals[i]: (i, j) for i, j in spots}
        used = [spot_of[lo] for lo, _ in layer.pairs]
    cur = layer.outer
    if cur.length < ell + gain_target:
        raise Exhausted(
            f"augmentation gained {cur.length - ell}, wanted {gain_target}"
        )
    return cur, layer, tuple(chain.from_iterable(used))


def _unlink_indices(gone: Gone, n: int, indices: Iterable[int]) -> None:
    """Unlink from `gone` each of `indices`, every one an index of a pool of
    n elements that is not yet gone."""
    for i in indices:
        contract(0 <= i < n and i not in gone.dead, "removed value is not in the set")
        gone.unlink(i)


def coreset_size_bound(ell: int, n: int, profile: ConstantsProfile) -> int:
    """Allowed coreset size: the scaled factor*ell*log2(n)/n law, plus the
    same factor times log2(ell) additively (any progression of length ell
    needs log2(ell) elements, which the pure ratio law drops below when
    ell << n)."""
    f = profile.coreset_factor
    return ceil_div(f * ell * ceil_log2(max(2, n)), n) + f * ceil_log2(2 * ell + 2)


@dataclass(frozen=True)
class SubsetSumApResult:
    """AP of length ell in S(coreset) with a subset-sum witness."""

    ap: ArithProgression
    witness: SubsetWitness
    coreset: SortedIntSet
    rounds: int


def ap_in_subset_sums(
    a_raw,
    ell: int,
    profile: ConstantsProfile = TUNED,
    seed: int = 0,
) -> SubsetSumApResult:
    """{s} + {0, d, ..., ell*d} inside S(A') for a small coreset A' of A,
    with d <= 7m/n and element-disjoint certificates.

    Under the paper profile every published inequality is enforced and desk
    inputs are rejected; under the tuned profile thresholds are advisory and
    genuine construction failure raises Exhausted.
    """
    a = a_raw if isinstance(a_raw, SortedIntSet) else normalize(a_raw)[0]
    require(len(a) >= 1, "set-nonempty")
    require(a.min >= 1, "positive-elements", "subset-sum input must be within [1, m]")
    big_n = len(a)
    m = a.max
    require(ell >= 1, "length-positive", f"ell={ell}")
    if profile.enforce_caps:
        require(ell >= m, "length-at-least-max", f"ell={ell} < m={m}")
        require(
            ell * profile.length_cap_factor * ceil_log2(2 * big_n) <= big_n * big_n,
            "length-cap",
            f"ell={ell} > n^2/({profile.length_cap_factor}*log2(2n)) with n={big_n}",
        )
    nbar = big_n // 6
    require(nbar >= 1 and 7 * nbar >= big_n, "partition-floor", f"n={big_n}")
    # a slice of the input
    first = SortedIntSet._ordered(a.elems[: 4 * nbar])
    ell0 = ceil_div(profile.min_len_factor * ell, nbar)
    if not profile.enforce_caps:
        # desk-scale clamp: long enough that the gap windows are nonempty,
        # short enough that the pair coreset stays small
        cap = nbar // max(1, profile.pair_cap * ceil_log2(2 * nbar))
        floor = max(2 * profile.window_div, ceil_div(2 * m, nbar))
        ell0 = min(max(ell0, floor), max(cap, floor), ell)
        ell0 = max(ell0, 1)
    bank = short_ap_in_subset_sums(first, ell0, profile, seed)
    # the pool is `a` less its elements at the indices in `gone`; a round
    # scans a copy of its links, and only the indices a round uses are
    # unlinked here, so a failed round consumes nothing, nor a case-1 round
    # the pairs its ladder leaves out. The first bank's endpoints are
    # elements of `first`, a prefix of `a`.
    gone = Gone()
    ends = chain.from_iterable(bank.pairs)
    _unlink_indices(gone, big_n, map(bisect_left, repeat(a.elems), ends))
    p = bank.ap
    layers: list[SubsetLayer] = []  # outermost first
    rounds = 0
    round_cap = 2 * ceil_log2(max(2, nbar)) + ceil_log2(ell + 2) + 8
    while p.length < ell:
        rounds += 1
        contract(rounds <= round_cap, "augmentation rounds exceeded the cap")
        gain_target = min(ceil_div(p.length, 2), ell - p.length)
        while True:
            # retry a failed round with a smaller target
            try:
                step = extend_ap_once(p, a, nbar, m, profile, gain_target, seed + rounds, gone)
                break
            except Exhausted as exc:
                if profile.enforce_caps or gain_target <= 1:
                    raise Exhausted(exc.reason, partial=p) from exc
                gain_target //= 2
        p, layer, used = step
        # a case-2 round right after another extends its run
        if isinstance(layer, PairRun) and layers and isinstance(layers[0], PairRun):
            layers[0] = layer.join(layers[0])
        else:
            layers.insert(0, layer)
        _unlink_indices(gone, big_n, used)
    # the elements of `a` at ascending indices
    coreset = SortedIntSet._ordered(tuple(map(a.elems.__getitem__, sorted(gone.dead))))
    contract(p.diff * big_n <= 7 * m, f"diff {p.diff} above 7m/n")
    bound = coreset_size_bound(ell, big_n, profile)
    if len(coreset) > bound:
        raise Exhausted(f"coreset size {len(coreset)} above bound {bound}", partial=p)
    witness = SubsetWitness(bank, layers)
    contract(witness.ap == p, "assembled witness progression mismatch")
    contract(witness.ends == coreset.elems, "witness pair ends must be the coreset")
    witness = witness.truncated(ell)
    return SubsetSumApResult(witness.ap, witness, coreset, rounds)
