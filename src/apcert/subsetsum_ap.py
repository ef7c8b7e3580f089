"""Arithmetic progressions inside subset sums, built from conflict-free pairs.

Strategy: harvest conflict-free consecutive pairs with small gaps, make the
gap multiset uniform, and transfer a progression in the k-fold sumset of the
gaps into S(A) by flipping chosen pairs from their low to their high endpoint.
The short progression is then lengthened round by round: pairs whose gap the
current difference divides stretch it (one fold each), and pairs with
non-divisible gaps feed a residue ladder that subdivides the difference.

Element-disjointness is structural: every layer owns pairs drawn from a pool
that shrinks as rounds consume it, and each certificate uses each element at
most once (checked on every merge).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, filterfalse, repeat, starmap
from math import gcd
from operator import ge, lt, sub
from typing import Iterable, Iterator, Optional, Sequence

from .augment import ApWitness, DivPairLayer, Layer, LadderLayer
from .core import (
    ArithProgression,
    CompactSolution,
    Exhausted,
    MultiplicityExceeded,
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
# The pair bank: the gaps -> subset-sums bridge, and the one flip routine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairBank:
    """Pairs banked behind a progression of their subset sums.

    `certs[j]` certifies term j of {s} + {0, 1, ..., bound} in a k-fold
    sumset of the keys divided by `scale` (their gcd together with the free
    values). `ap`, in subset-sum units, is that progression times `scale`
    plus `base`, the sum of the banked pairs' lo ends; `flip(j)` turns
    `certs[j]` into the pairs to take at their hi end. As the leaf of the
    gaps -> subset-sums bridge, `resolve_flips(j)` checks that this subset
    sums to `ap.term(j)`. `buckets` maps each reduced key to the indices of
    its pairs in `pairs`; reduced values in `free` need no pair when they
    occur in a certificate.

    Derived once from the fields: `gains`, for each key the prefix sums of
    its bucket's gaps, so gains[key][c] is what flipping its first c pairs
    adds. A flip does no Python-level work per banked pair.
    """

    ap: ArithProgression
    certs: tuple[CompactSolution, ...]
    scale: int
    base: int
    pairs: tuple[Pair, ...]
    buckets: dict[int, tuple[int, ...]]
    free: frozenset[int]
    gains: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = tuple(zip(*self.pairs)) or ((), ())
        gaps = tuple(map(sub, hi, lo))
        object.__setattr__(self, "gains", {
            key: (0, *accumulate(map(gaps.__getitem__, idxs)))
            for key, idxs in self.buckets.items()
        })

    def flip(self, j: int) -> tuple[int, list[int]]:
        """Flip `count` pairs of each reduced key of `certs[j]` from lo to hi.

        Returns the sum of the subset (hi ends of the flipped pairs, lo ends
        of the rest) and the indices of the flipped pairs."""
        total = self.base
        flipped: list[int] = []
        for key, c in self.certs[j].parts:
            if key in self.free:
                continue
            idxs = self.buckets.get(key, ())
            if c > len(idxs):
                raise MultiplicityExceeded(
                    f"key {key * self.scale} needs {c} pairs, only {len(idxs)} present"
                )
            total += self.gains[key][c]
            flipped += idxs[:c]
        return total, flipped

    def resolve_flips(self, j: int) -> tuple[int, list[int]]:
        """As a leaf: j itself and flip(j)'s flipped pairs, its sum checked."""
        total, flipped = self.flip(j)
        contract(total == self.ap.term(j), "flipped gaps must reproduce the inner target")
        return j, flipped


def bank_pairs(
    lo: Sequence[int], hi: Sequence[int], keys: Sequence[int], bound: int,
    free: Sequence[int], noun: str, seed: int,
) -> PairBank:
    """Count the keys of the pairs (lo[i], hi[i]), keep the keys of at least
    u pairs (u from `uniformize`), certify every term of the progression of
    length `bound` over the gcd-reduced kept keys and `free` values once,
    and bank for each kept key its first pairs, as many as the certificates
    use of it. One index-order scan finds them and stops once all are
    found, and only they become pair tuples. `noun` names a key in
    Exhausted."""
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
    buckets: dict[int, tuple[int, ...]] = {}
    for key in kept_keys:
        buckets[key // scale] = tuple(range(len(order), len(order) + need[key]))
        order += found[key]
    lo_ends = tuple(map(lo.__getitem__, order))
    w = witness.ap
    base = sum(lo_ends)
    ap = ArithProgression(base + w.start * scale, w.diff * scale, w.length)
    return PairBank(
        ap, certs, scale, base, tuple(zip(lo_ends, map(hi.__getitem__, order))), buckets,
        frozenset(v // scale for v in free),
    )


def ap_by_pairs(
    lo: Sequence[int], hi: Sequence[int], gaps: Sequence[int], g_bound: int,
    profile: ConstantsProfile = TUNED, seed: int = 0,
) -> PairBank:
    """AP of length g_bound in S(A_{T*}) for a small subset T* of the
    conflict-free pairs (lo[i], hi[i]) with gaps[i] = hi[i] - lo[i] (the
    columns of gen_pairs): the bank over T* = bank.pairs, whose
    resolve_flips(j) certifies term j."""
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
    """Ladder whose rungs are subset sums of pair endpoints: rung i is
    congruent to s_q + i*d' modulo d, realized by flipping the pairs of the
    bank's certificate i over the residues. Each rung is stored at build as
    (q_i, the indices of the bank's pairs it flips)."""

    def __init__(self, bank: PairBank, d: int):
        self.bank = bank
        self.d = d
        self.dp = bank.ap.diff
        self.s_q = bank.ap.start
        self.rungs = [(q, tuple(f)) for q, f in map(bank.flip, range(d // self.dp))]
        for i, (q, _) in enumerate(self.rungs):
            contract(
                (q - self.s_q) % d == (i * self.dp) % d,
                "ladder rung residue mismatch",
            )
        heights = [(q - self.s_q) // d for q, _ in self.rungs]
        self.h_min = min(heights)
        self.h_max = max(heights)

    def lookup(self, i: int) -> tuple[int, tuple[int, ...]]:
        return self.rungs[i]


def residue_ladder(
    pairs: Sequence[Pair],
    d: int,
    profile: ConstantsProfile = TUNED,
    seed: int = 0,
) -> ResidueLadderAccessor:
    """Ladder over S(A_{T*}) for pairs whose gaps d does not divide; T* is
    the accessor's bank.pairs.

    d' = gcd of the gap residues together with d, a proper divisor of d.
    """
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
    return ResidueLadderAccessor(bank, d)


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
) -> tuple[ArithProgression, tuple[Layer, ...], tuple[int, ...]]:
    """(ap, layers, used): the progression grown by at least gain_target with
    pairs of `pool` less its elements at the indices in `gone`, its layers
    outermost first, and the indices in pool.elems of the endpoints of the
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
    layers: list[Layer] = []
    if case == 2:
        # extraction stops at the pair that reaches gain_target: one layer per pair
        cur = p
        for i, j in spots:
            layer = DivPairLayer(cur, vals[i], vals[j] - vals[i], 1)
            cur = layer.outer
            layers.insert(0, layer)
        used = spots
    else:
        ladder = residue_ladder([(vals[i], vals[j]) for i, j in spots], d, profile, seed)
        if p.length < ladder.h_max - ladder.h_min:
            raise Exhausted(
                f"ladder window {ladder.h_max - ladder.h_min} "
                f"exceeds progression length {p.length}"
            )
        layer = LadderLayer(p, ladder)
        cur = layer.outer
        layers = [layer]
        # the bank keeps a subset of the pairs; lo ends are distinct
        spot_of = {vals[i]: (i, j) for i, j in spots}
        used = [spot_of[lo] for lo, _ in ladder.bank.pairs]
    if cur.length < ell + gain_target:
        raise Exhausted(
            f"augmentation gained {cur.length - ell}, wanted {gain_target}"
        )
    return cur, tuple(layers), tuple(chain.from_iterable(used))


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
    witness: ApWitness
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
    layers: list[Layer] = []
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
        p, step_layers, used = step
        layers = list(step_layers) + layers
        _unlink_indices(gone, big_n, used)
    # the elements of `a` at ascending indices
    coreset = SortedIntSet._ordered(tuple(map(a.elems.__getitem__, sorted(gone.dead))))
    contract(p.diff * big_n <= 7 * m, f"diff {p.diff} above 7m/n")
    bound = coreset_size_bound(ell, big_n, profile)
    if len(coreset) > bound:
        raise Exhausted(f"coreset size {len(coreset)} above bound {bound}", partial=p)
    witness = ApWitness(bank, layers, fold_budget=0)
    contract(witness.ap == p, "assembled witness progression mismatch")
    contract(witness.ends == coreset.elems, "witness pair ends must be the coreset")
    witness = witness.truncated(ell)
    return SubsetSumApResult(witness.ap, witness, coreset, rounds)
