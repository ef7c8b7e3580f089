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

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap
from math import gcd
from operator import lt
from typing import Iterator, Optional, Sequence

from .augment import ApWitness, DivPairLayer, Layer, LadderLayer
from .core import (
    ArithProgression,
    CompactSolution,
    Exhausted,
    MultiplicityExceeded,
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

@dataclass(frozen=True)
class PairSet:
    """Conflict-free (lo, hi) pairs: lo < hi and no integer in two pairs."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        # C-level passes; the loop names the first fault only when one fails
        p = self.pairs
        if not (all(starmap(lt, p)) and len(set(chain.from_iterable(p))) == 2 * len(p)):
            seen: set[int] = set()
            for lo, hi in p:
                require(lo < hi, "pair-ordered", f"({lo}, {hi})")
                require(lo not in seen and hi not in seen, "conflict-free", f"({lo}, {hi})")
                seen.add(lo)
                seen.add(hi)


def gen_pairs(a: SortedIntSet) -> tuple[Pair, ...]:
    """At least n conflict-free consecutive pairs with gaps <= m/n, where the
    largest |A| mod 4 elements are dropped first. Conflict-free by
    construction: the pairs (elems[i], elems[i + 1]) of one parity of i are
    disjoint, and lo < hi in a strictly increasing set."""
    elems = a.elems[: len(a) - len(a) % 4]
    require(len(elems) >= 4, "set-at-least-four", f"kept {len(elems)}")
    n = len(elems) // 4
    m = elems[-1]
    # the pairs at even and at odd positions i, (elems[i], elems[i + 1])
    even = [(lo, hi) for lo, hi in zip(elems[0::2], elems[1::2]) if (hi - lo) * n <= m]
    odd = [(lo, hi) for lo, hi in zip(elems[1::2], elems[2::2]) if (hi - lo) * n <= m]
    chosen = even if len(even) >= len(odd) else odd
    contract(len(chosen) >= n, "pigeonhole guarantees n small-gap pairs")
    return tuple(chosen)


def uniformize(keys: Sequence[int]) -> tuple[int, list[int]]:
    """The multiplicity u maximizing u * #{key : multiplicity >= u} (smallest
    u on ties), and the indices of the first u occurrences of every key that
    occurs at least u times; at least len(keys) / log2(2*len(keys)) survive.

    The count of keys with multiplicity >= u is constant between consecutive
    distinct multiplicities, so the score is maximized at a distinct value.
    """
    require(len(keys) >= 1, "pairs-nonempty")
    mult: dict[int, int] = {}
    for k in keys:
        mult[k] = mult.get(k, 0) + 1
    asc = sorted(mult.values())
    u, best_score = 1, 0
    for i, v in enumerate(asc):
        if i and v == asc[i - 1]:
            continue
        score = v * (len(asc) - i)
        if score > best_score:
            u, best_score = v, score
    taken: dict[int, int] = {}
    kept: list[int] = []
    for i, k in enumerate(keys):
        if mult[k] >= u and taken.get(k, 0) < u:
            taken[k] = taken.get(k, 0) + 1
            kept.append(i)
    contract(
        len(kept) * ceil_log2(2 * len(keys)) >= len(keys),
        "uniform subset below |T|/log2(2|T|)",
    )
    return u, kept


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
    `certs[j]` into a subset of the pair endpoints. As the leaf of the
    gaps -> subset-sums bridge, `query_parts(j)` checks that this subset sums
    to `ap.term(j)`. `buckets` maps each reduced key to the indices of its
    pairs in `pairs`; reduced values in `free` need no pair when they occur
    in a certificate.
    """

    ap: ArithProgression
    certs: tuple[CompactSolution, ...]
    scale: int
    base: int
    pairs: tuple[Pair, ...]
    buckets: dict[int, tuple[int, ...]]
    free: frozenset[int]

    def flip(self, j: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Flip `count` pairs of each reduced key of `certs[j]` from lo to hi.

        Returns the sum of the subset and its parts (hi for flipped pairs,
        lo for the rest)."""
        flipped: set[int] = set()
        total = self.base
        for key, c in self.certs[j].parts:
            if key in self.free:
                continue
            idxs = self.buckets.get(key, ())
            if c > len(idxs):
                raise MultiplicityExceeded(
                    f"key {key * self.scale} needs {c} pairs, only {len(idxs)} present"
                )
            for i in idxs[:c]:
                flipped.add(i)
                lo, hi = self.pairs[i]
                total += hi - lo
        parts = tuple((hi if i in flipped else lo, 1) for i, (lo, hi) in enumerate(self.pairs))
        return total, parts

    def query_parts(self, j: int, rng: RandomSource):
        total, parts = self.flip(j)
        contract(total == self.ap.term(j), "flipped gaps must reproduce the inner target")
        return parts


def bank_pairs(
    pairs: Sequence[Pair], keys: Sequence[int], bound: int, free: Sequence[int], noun: str,
    seed: int,
) -> PairBank:
    """Uniformize the keys, certify every term of the progression of length
    `bound` over the gcd-reduced kept keys and `free` values once, and keep
    for each key as many pairs as the certificates use of it. `noun` names a
    key in Exhausted."""
    _, kept = uniformize(keys)
    by_key: dict[int, list[Pair]] = {}
    for i in kept:
        by_key.setdefault(keys[i], []).append(pairs[i])
    values = set(free) | set(by_key)
    scale = gcd(*values)
    reduced = SortedIntSet.from_iterable(v // scale for v in values)
    witness = ap_in_kfold_sumset(reduced, bound, ceil_div(bound + 1, len(reduced))).witness
    rng = RandomSource(seed)
    certs = tuple(witness.query(j, rng.derive("bank", j)) for j in range(witness.ap.length + 1))
    use: dict[int, int] = {}
    for sol in certs:
        for v, c in sol.parts:
            use[v] = max(use.get(v, 0), c)
    banked: list[Pair] = []
    buckets: dict[int, tuple[int, ...]] = {}
    for key, plist in sorted(by_key.items()):
        need = use.get(key // scale, 0)
        if need > len(plist):
            raise Exhausted(
                f"{noun} {key} needs multiplicity {need}, uniform set has {len(plist)}"
            )
        buckets[key // scale] = tuple(range(len(banked), len(banked) + need))
        banked.extend(plist[:need])
    base = sum(lo for lo, _ in banked)
    w = witness.ap
    ap = ArithProgression(base + w.start * scale, w.diff * scale, w.length)
    return PairBank(
        ap, certs, scale, base, tuple(banked), buckets, frozenset(v // scale for v in free)
    )


def ap_by_pairs(
    t: tuple[Pair, ...], g_bound: int, profile: ConstantsProfile = TUNED, seed: int = 0
) -> PairBank:
    """AP of length g_bound in S(A_{T*}) for a small subset T* of the
    conflict-free pairs t (those of gen_pairs): the bank over T* =
    bank.pairs, whose query_parts(j) certifies term j."""
    require(len(t) >= 1, "pairs-nonempty")
    gaps = [hi - lo for lo, hi in t]
    require(
        all(1 <= g <= g_bound for g in gaps),
        "gaps-within-bound",
        f"gaps up to {max(gaps)} vs bound {g_bound}",
    )
    if profile.enforce_caps:
        require(
            g_bound * profile.pair_cap * ceil_log2(2 * len(t)) <= len(t),
            "pairs-vs-gap-cap",
            f"g_bound={g_bound}, |T|={len(t)}",
        )
    bank = bank_pairs(t, gaps, g_bound, (0,), "gap", seed)
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
    bank = ap_by_pairs(gen_pairs(a), ell, profile, seed)
    contract(bank.ap.diff * n <= m, "short progression diff above m/n")
    return bank


# ---------------------------------------------------------------------------
# Gap scan: qualifying pairs under removals, for one augmentation round
# ---------------------------------------------------------------------------

def _gap_case(d: int, case1_cap: int, c2_lo: int, c2_hi: int):
    """The gap classifier: 1 for case 1, 2 for a case-2 run start, else 0."""
    def case(g: int) -> int:
        if g % d:
            return 1 if g <= case1_cap else 0
        return 2 if c2_lo <= g <= c2_hi or (g < c2_lo and g <= case1_cap) else 0
    return case


def _initial_walk(vals: Sequence[int], case, want: int) -> Iterator[int]:
    """The indices i, ascending, whose original gap vals[i+1] - vals[i] is of
    case `want`. Not a method: a generator holding its scan would make the
    cycle scan -> generator -> frame -> scan, which only the cycle collector
    frees."""
    it = iter(vals)
    prev = next(it, None)
    for i, cur in enumerate(it):
        if case(cur - prev) == want:
            yield i
        prev = cur


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
    (every gap is divisible). Links and deaths are stored only where a removal
    changed them (defaults i - 1, i + 1, alive): set-up is O(1).
    """

    def __init__(
        self,
        values: Sequence[int],
        d: int,
        ell: int,
        gamma: Fraction,
        profile: ConstantsProfile,
    ):
        self.vals = values
        self.n = len(values)
        self.d = d
        self.c2_hi = ell * d // profile.window_div
        num = ell * d * gamma.denominator
        den = profile.window_lo_div * gamma.numerator
        self.c2_lo = max(1, ceil_div(num, den))
        self.case = _gap_case(d, ell // profile.window_div, self.c2_lo, self.c2_hi)
        self.nxt: dict[int, int] = {}
        self.prv: dict[int, int] = {}
        self.dead: set[int] = set()
        self.fresh1 = _initial_walk(values, self.case, 1) if d > 1 else iter(())
        self.fresh2 = _initial_walk(values, self.case, 2)
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
        elements survive), so longer runs mean more length gain per pair."""
        cur = start
        total = 0
        end = start
        while True:
            g = self._gap(cur)
            if g is None or g % self.d or total + g > self.c2_hi:
                break
            total += g
            end = self.nxt.get(cur, cur + 1)
            cur = end
        if total >= self.c2_lo:
            return start, end
        return None

    def remove_pair(self, i: int, j: int) -> None:
        for idx in (j, i):
            contract(idx not in self.dead, "removing a dead element")
            p, q = self.prv.get(idx, idx - 1), self.nxt.get(idx, idx + 1)
            if p >= 0:
                self.nxt[p] = q
            if q < self.n:
                self.prv[q] = p
            self.dead.add(idx)
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
    profile: ConstantsProfile = TUNED,
    gain_target: Optional[int] = None,
) -> tuple[int, list[Pair]]:
    """Extract conflict-free augmentation pairs until one case reaches its
    target: case 1 at case1_pair_factor*d*log2(d) pairs, case 2 at
    window_div*gamma pairs or (when given) at a total length gain of
    gain_target. Returns (case, pairs of that case)."""
    gamma = gamma_parameter(m, n, ell, profile)
    scan = GapScan(pool.elems, d, ell, gamma, profile)
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
        lo, hi = scan.vals[i], scan.vals[j]
        scan.remove_pair(i, j)
        if case == 1:
            case1.append((lo, hi))
            if c1_target is not None and len(case1) >= c1_target:
                return 1, case1
        else:
            case2.append((lo, hi))
            gain += (hi - lo) // d
            if gain_target is not None and gain >= gain_target:
                return 2, case2
            if len(case2) >= c2_pair_target:
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
    bank's certificate i over the residues."""

    def __init__(self, bank: PairBank, d: int):
        self.bank = bank
        self.d = d
        self.dp = bank.ap.diff
        self.s_q = bank.ap.start
        self.rungs = [bank.flip(i) for i in range(d // self.dp)]
        for i, (q, _) in enumerate(self.rungs):
            contract(
                (q - self.s_q) % d == (i * self.dp) % d,
                "ladder rung residue mismatch",
            )
        heights = [(q - self.s_q) // d for q, _ in self.rungs]
        self.h_min = min(heights)
        self.h_max = max(heights)

    def lookup(self, i: int) -> tuple[int, tuple[tuple[int, int], ...]]:
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
    pairs = PairSet(tuple(pairs)).pairs
    require(
        all((hi - lo) % d for lo, hi in pairs),
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
    bank = bank_pairs(pairs, [(hi - lo) % d for lo, hi in pairs], d, (0, d), "residue", seed)
    dp = bank.ap.diff
    contract(1 <= dp < d and d % dp == 0, "residue gcd must properly divide d")
    if profile.enforce_caps:
        contract(len(bank.pairs) <= profile.pair_cap * d, "ladder coreset above cap")
    return ResidueLadderAccessor(bank, d)


# ---------------------------------------------------------------------------
# One augmentation round and the full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendOnceResult:
    ap: ArithProgression
    layers: tuple[Layer, ...]
    used: SortedIntSet


def extend_ap_once(
    p: ArithProgression,
    pool: SortedIntSet,
    n: int,
    m: int,
    profile: ConstantsProfile,
    gain_target: int,
    seed: int = 0,
) -> ExtendOnceResult:
    """Grow the progression by at least gain_target using pairs from the
    pool; consumed elements are reported in `used`."""
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
        require(len(pool) >= reserve, "aug-availability",
                f"|pool|={len(pool)} < {reserve}")
    case, pairs = extract_aug_pairs(pool, d, ell, m, n, profile, gain_target)
    layers: list[Layer] = []
    used_vals: list[int] = []
    if case == 2:
        cur = p
        for lo, hi in pairs:
            if cur.length >= ell + gain_target:
                break
            layer = DivPairLayer(cur, lo, hi - lo, 1)
            cur = layer.outer
            layers.insert(0, layer)
            used_vals.extend((lo, hi))
    else:
        ladder = residue_ladder(pairs, d, profile, seed)
        if p.length < ladder.h_max - ladder.h_min:
            raise Exhausted(
                f"ladder window {ladder.h_max - ladder.h_min} "
                f"exceeds progression length {p.length}"
            )
        layer = LadderLayer(p, ladder)
        cur = layer.outer
        layers = [layer]
        for lo, hi in ladder.bank.pairs:
            used_vals.extend((lo, hi))
    if cur.length < ell + gain_target:
        raise Exhausted(
            f"augmentation gained {cur.length - ell}, wanted {gain_target}"
        )
    return ExtendOnceResult(cur, tuple(layers), SortedIntSet.from_iterable(used_vals))


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
    coreset_vals = set(chain.from_iterable(bank.pairs))
    pool = a.without(coreset_vals)
    p = bank.ap
    layers: list[Layer] = []
    rounds = 0
    round_cap = 2 * ceil_log2(max(2, nbar)) + ceil_log2(ell + 2) + 8
    while p.length < ell:
        rounds += 1
        contract(rounds <= round_cap, "augmentation rounds exceeded the cap")
        gain_target = min(ceil_div(p.length, 2), ell - p.length)
        while True:
            # a failed round consumes nothing, so retry with a smaller target
            try:
                step = extend_ap_once(p, pool, nbar, m, profile, gain_target, seed + rounds)
                break
            except Exhausted as exc:
                if profile.enforce_caps or gain_target <= 1:
                    raise Exhausted(exc.reason, partial=p) from exc
                gain_target //= 2
        p = step.ap
        layers = list(step.layers) + layers
        coreset_vals.update(step.used)
        pool = pool.without(step.used)
    coreset = SortedIntSet.from_iterable(coreset_vals)
    contract(p.diff * big_n <= 7 * m, f"diff {p.diff} above 7m/n")
    bound = coreset_size_bound(ell, big_n, profile)
    if len(coreset) > bound:
        raise Exhausted(f"coreset size {len(coreset)} above bound {bound}", partial=p)
    witness = ApWitness(bank, layers, fold_budget=0)
    contract(witness.ap == p, "assembled witness progression mismatch")
    witness = witness.truncated(ell)
    return SubsetSumApResult(witness.ap, witness, coreset, rounds)
