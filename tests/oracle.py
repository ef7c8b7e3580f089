"""Brute-force ground truth used by the tests: exact sumsets, subset sums,
coin-style reachability, greedy sumsets (materialized and by membership) and
k-fold greedy certificates, the restricted shift and closest-pair lift that
the one-pass k-fold leaf must match value for value, the eager gap scan that the lazy `GapScan` must
match pair for pair and the gap-by-gap run walk that its bisected walk must
match run for run, the single divisible-pair step that `DivPairLayer` and
every step of a `PairRun` must match part for part, the pair-ladder rung,
with j* found by search, that `LadderLayer` must match part for part, the
per-element input checks, the per-part certificate check and the pair
harvest that the C-level passes of the package must match error for error,
the subset-mode accept that unzips the parts, which the one-pass accept
must match reason for reason, the run walk that visits every step after its
prefix bisect, which the jumping `PairRun.resolve` must match flip for flip,
the select-by-index uniformize whose selection the pair bank's one grouping pass must bank pair
for pair, the flip of a k-fold certificate that rebuilds a part for every
banked pair, which the flip lists and sums that `bank_pairs` stores must
match part for part once their flipped indices are made parts, the
subset-sum query that takes every source's parts step by step and flip by
flip, then sets, sorts and rebuilds them, which the mask-patching
`SubsetWitness.query` must match certificate for certificate and message
for message, the per-element loops of the k-fold
build (endpoint scan, closest-gap class, gap pairs) that its C-level passes
must match value for value and tie for tie, the greedy walk that bisects
for every pick, the draw that calls `_next64` per word, the certificate
built by the dataclass constructor and the leaf that counts both sides of
every lifted pair in its dict, which the k-fold term path must match run
for run, draw for draw and part for part, plus the small set and
certificate helpers that only the tests read.

Bitsets are plain Python integers (bit i set iff i is reachable), which makes
the convolution-by-shift rounds both exact and fast. These are deliberately
naive; none of them is a production path.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import islice, repeat
from math import gcd
from operator import lt
from typing import Iterable, Optional, Sequence

from apcert.core import (
    MAX_ELEMENT,
    ApcertError,
    CompactSolution,
    EmptySet,
    InternalContract,
    NegativeInput,
    OverflowRisk,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    check_solution,
    contract,
    require,
)
from apcert.density_witness import density_with_argmin, kfold_greedy_steps
from apcert.profiles import ConstantsProfile
from apcert.subsetsum_ap import Gone, ResidueLadderAccessor

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


def check_solution_loop(base: SortedIntSet, sol: CompactSolution) -> Optional[str]:
    """Reference for `core.check_solution`: one bisect per part, in both
    modes; the reason code of the first fault in part order, else None. A
    negative fold budget fails before any part is read."""
    if sol.fold_budget < 0:
        return "negative-fold-budget"
    elems = base.elems
    subset_mode = sol.fold_budget == 0
    seen = sol.parts[0][0] - 1 if sol.parts else 0  # the first value is never out of order
    total = acc = i = 0
    for v, c in sol.parts:
        if c <= 0:
            return "nonpositive-count"
        if v <= seen:
            return "parts-not-sorted-distinct"
        seen = v
        i = bisect_left(elems, v, i)  # v is above every earlier part
        if i == len(elems) or elems[i] != v:
            return "value-not-in-base"
        if subset_mode and c != 1:
            return "count-not-one"
        total += c
        acc += v * c
    if acc != sol.target:
        return "sum-mismatch"
    if sol.fold_budget > 0 and total > sol.fold_budget:
        return "budget-exceeded"
    return None


def check_solution_by_zip(base: SortedIntSet, sol: CompactSolution) -> Optional[str]:
    """`core.check_solution` as it accepted subset-mode parts before its
    one-pass accept: the parts unzipped into values and counts, every count
    1, then the order, membership and sum passes; a certificate they do not
    accept goes to the per-part loop, as it did there. `zip` cuts mixed 2-
    and 3-tuple parts to their first two fields, so it may accept them."""
    parts = sol.parts
    if sol.fold_budget == 0 and parts:
        values, counts = zip(*parts)
        if (counts.count(1) == len(counts) and all(map(lt, values, islice(values, 1, None)))
                and base.members.issuperset(values) and sum(values) == sol.target):
            return None
    return check_solution_loop(base, sol)


def run_resolve_by_steps(run, j: int) -> tuple[int, list[int]]:
    """`PairRun.resolve(j)` step by step: one bisect over `prefix` skips the
    leading steps that take their pair's hi end, then every later step takes
    it when the index left reaches its gain."""
    prefix, gains = run.prefix, run.gains
    k = bisect_right(prefix, j) - 1
    j -= prefix[k]
    flips = list(range(k))
    for i in range(k + 1, len(gains)):
        t = gains[i]
        if j >= t:
            j -= t
            flips.append(i)
    return j, flips


def merge_counts(*part_groups: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The counts of each value over all the groups, added up."""
    out: dict[int, int] = {}
    for group in part_groups:
        for v, c in group:
            out[v] = out.get(v, 0) + c
    return out


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


def density_query(w, z: int, rng) -> CompactSolution:
    """Certificate for z from a density witness: its parts, merged, at fold budget 2*k_inner."""
    return CompactSolution.from_counts(merge_counts(w.query_parts(z, rng)), z, w.fold_budget)


def restricted_pairs(u: int, dw, z: int, rng) -> list[tuple[int, int]]:
    """Reference for the restricted shift of `sumset_ap.ap_restricted`: each
    part b of the density witness's certificate for z becomes the two parts of
    the pair (0, u+1) if b = 0, else (1, u+b)."""
    parts = []
    for b, c in dw.query_parts(z, rng):
        for v in (0, u + 1) if b == 0 else (1, u + b):
            parts.append((v, c))
    return parts


def closest_pair_lift(
    base: SortedIntSet, g: int, a_prime: int, a_star: int, parts, branches=None
) -> dict[int, int]:
    """Reference for the closest-pair lift of `sumset_ap.ShortLeaf`: each value
    x becomes x*g + a' and a* if x*g + a' is in A (a bisect on A), else
    x*g + a' - g and a* + g; the lifted parts merged into counts. The
    membership outcomes are added to `branches` when it is given."""
    lifted = []
    for x, c in parts:
        v = x * g + a_prime
        if branches is not None:
            branches.add(v in base)
        if v in base:
            lifted += [(v, c), (a_star, c)]
        else:
            lifted += [(v - g, c), (a_star + g, c)]
    return merge_counts(lifted)


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


def block_plus_sparse(seed: int, m: int = 4 * 10**5, n: int = 8000, block: int = 5000) -> list[int]:
    """[1..block] and n - block seeded values of (block, m]: dense enough for
    the tuned profile, yet the tuned dense region of such a set is empty."""
    sparse = random.Random(seed).sample(range(block + 1, m + 1), n - block)
    return sorted(set(range(1, block + 1)) | set(sparse))


def div_pair_step(d: int, a: int, g: int, h: int, j: int) -> tuple[int, tuple]:
    """One divisible-pair step, h copies of {a, a+g} with d | g, on a
    progression of difference d: outer index j -> (inner index, parts)."""
    hgd = h * g // d
    if j >= hgd:
        return j - hgd, ((a + g, h),)
    q = j * d // g
    inner_j = (j * d % g) // d
    parts = []
    if q:
        parts.append((a + g, q))
    if h - q:
        parts.append((a, h - q))
    return inner_j, tuple(parts)


def pair_ladder_rung(d: int, a: int, g: int, i: int) -> tuple[int, tuple]:
    """Rung i of the ladder of a pair {a, a+g} with d not dividing g: with
    d' = gcd(d, g), w = d/d' and j* the least j >= 0 with j*g = d' (mod d),
    found by search, it is (q_i, parts), where k = i*j* mod w copies take
    a+g and the other w - k take a, q_i = w*a + k*g."""
    dp = gcd(d, g)
    w = d // dp
    jstar = next(j for j in range(w) if j * g % d == dp)
    k = i * jstar % w
    if not k:
        return w * a, ((a, w),)
    return w * a + k * g, ((a, w - k), (a + g, k))


def walk_run_by_steps(gap, nxt, start: int, d: int, c2_lo: int, c2_hi: int):
    """(start, end) of the run of divisible gaps from `start`, read one gap at
    a time: `gap(i)` is the gap from alive index i to the next alive index
    `nxt(i)` (None past the last). The run stops before a gap d does not
    divide or that takes its total above c2_hi, and counts only if its total
    reaches c2_lo; otherwise None."""
    cur = start
    total = 0
    end = start
    while True:
        g = gap(cur)
        if g is None or g % d or total + g > c2_hi:
            break
        total += g
        end = nxt(cur)
        cur = end
    if total >= c2_lo:
        return start, end
    return None


class EagerGapScan:
    """Reference for `subsetsum_ap.GapScan`, with the same interface: the
    values at the indices in `gone` are dropped first, every gap of the rest
    is classified up front into the deques c1 and c2, and the gaps
    re-classified after a removal are appended behind them. The scan runs on
    the compacted values `kept`; the indices it serves and removes are those
    of `values`, as GapScan's are, and `at` maps the one to the other."""

    def __init__(
        self,
        values: Sequence[int],
        d: int,
        ell: int,
        gamma: Fraction,
        profile: ConstantsProfile,
        gone: Gone,
    ):
        self.at = [i for i in range(len(values)) if i not in gone.dead]
        self.pos = {i: k for k, i in enumerate(self.at)}
        self.kept = [values[i] for i in self.at]
        n = len(self.kept)
        self.d = d
        self.case1_cap = ell // profile.window_div
        self.c2_hi = ell * d // profile.window_div
        num = ell * d * gamma.denominator
        den = profile.window_lo_div * gamma.numerator
        self.c2_lo = max(1, ceil_div(num, den))
        self.nxt = list(range(1, n)) + [-1]
        self.prv = [-1] + list(range(n - 1))
        self.alive = [True] * n
        self.c1: deque[int] = deque()
        self.c2: deque[int] = deque()
        for i in range(n - 1):
            self._classify(i)

    def _gap(self, i: int) -> Optional[int]:
        j = self.nxt[i]
        if j < 0:
            return None
        return self.kept[j] - self.kept[i]

    def _is_c1(self, g: int) -> bool:
        return g % self.d != 0 and g <= self.case1_cap

    def _is_c2_start(self, g: int) -> bool:
        if g % self.d:
            return False
        return (self.c2_lo <= g <= self.c2_hi) or (g < self.c2_lo and g <= self.case1_cap)

    def _classify(self, i: int) -> None:
        g = self._gap(i)
        if g is None or not self.alive[i]:
            return
        if self._is_c1(g):
            self.c1.append(i)
        elif self._is_c2_start(g):
            self.c2.append(i)

    def pop_case1(self) -> Optional[tuple[int, int]]:
        while self.c1:
            i = self.c1.popleft()
            if not self.alive[i]:
                continue
            g = self._gap(i)
            if g is None or not self._is_c1(g):
                continue
            return self.at[i], self.at[self.nxt[i]]
        return None

    def pop_case2(self) -> Optional[tuple[int, int]]:
        while self.c2:
            i = self.c2.popleft()
            if not self.alive[i]:
                continue
            g = self._gap(i)
            if g is None or not self._is_c2_start(g):
                continue
            pair = self._walk_run(i)
            if pair is not None:
                return self.at[pair[0]], self.at[pair[1]]
        return None

    def _walk_run(self, start: int) -> Optional[tuple[int, int]]:
        return walk_run_by_steps(
            self._gap, self.nxt.__getitem__, start, self.d, self.c2_lo, self.c2_hi
        )

    def remove_pair(self, i: int, j: int) -> None:
        for idx in (self.pos[j], self.pos[i]):
            contract(self.alive[idx], "removing a dead element")
            p, q = self.prv[idx], self.nxt[idx]
            if p >= 0:
                self.nxt[p] = q
            if q >= 0:
                self.prv[q] = p
            self.alive[idx] = False
            if p >= 0:
                self._classify(p)


def error_of(f, arg):
    """(class, name, detail) of the precondition `f(arg)` raises, or None."""
    try:
        f(arg)
    except PreconditionViolated as exc:
        return type(exc), exc.name, exc.detail
    return None


def check_sorted_elems(elems: Sequence[int]) -> None:
    """Reference for `SortedIntSet.__post_init__`: one element at a time,
    raise the named error of the first element out of range or order."""
    prev = -1
    for e in elems:
        if e < 0:
            raise NegativeInput(e)
        if e > MAX_ELEMENT:
            raise OverflowRisk(e)
        if e <= prev:
            raise PreconditionViolated("strictly-increasing", f"{e} after {prev}")
        prev = e


def check_pairs(pairs: Sequence[tuple[int, int]]) -> None:
    """Reference for `subsetsum_ap.conflict_free_pairs`: the first pair that is not
    ordered or shares an endpoint with an earlier pair raises."""
    seen: set[int] = set()
    for lo, hi in pairs:
        require(lo < hi, "pair-ordered", f"({lo}, {hi})")
        require(lo not in seen and hi not in seen, "conflict-free", f"({lo}, {hi})")
        seen.add(lo)
        seen.add(hi)


def normalize_by_element(raw: Sequence[int]) -> tuple[SortedIntSet, int]:
    """Reference for `core.normalize`: the range check one value at a time."""
    for v in raw:
        if v < 0:
            raise NegativeInput(v)
        if v > MAX_ELEMENT:
            raise OverflowRisk(v)
    s = SortedIntSet.from_iterable(raw)
    return s, len(raw) - len(s)


def gen_pairs_by_index(a: SortedIntSet) -> tuple[tuple[int, int], ...]:
    """Reference for `subsetsum_ap.gen_pairs`: the chosen pairs, harvested
    by index over the consecutive gaps."""
    elems = a.elems[: len(a) - len(a) % 4]
    n = len(elems) // 4
    m = elems[-1]
    odd: list[tuple[int, int]] = []
    even: list[tuple[int, int]] = []
    for i in range(len(elems) - 1):
        if (elems[i + 1] - elems[i]) * n <= m:
            (even if i % 2 == 0 else odd).append((elems[i], elems[i + 1]))
    return tuple(even if len(even) >= len(odd) else odd)


def parts_of_flips(pairs, flipped) -> tuple[tuple[int, int], ...]:
    """The part (hi if i is in `flipped`, else lo, 1) of every pair i, in
    pair order."""
    flipped = set(flipped)
    return tuple((hi if i in flipped else lo, 1) for i, (lo, hi) in enumerate(pairs))


def flip_by_pair(pairs, keys, scale: int, free, cert) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The subset of `pairs` that the k-fold certificate `cert` over keys
    divided by `scale` flips, by one pass over every pair: for each part
    (v, c) whose key v*scale is not in `free`, the first c pairs i with
    keys[i] == v*scale are flipped. Returns the sum of the lo ends with
    every flipped pair's gap added, and a part (hi if flipped, else lo, 1)
    per pair."""
    flipped: set[int] = set()
    total = sum(lo for lo, _ in pairs)
    for v, c in cert.parts:
        key = v * scale
        if key in free:
            continue
        idxs = [i for i, k in enumerate(keys) if k == key]
        if c > len(idxs):
            raise InternalContract(f"key {key} needs {c} pairs, only {len(idxs)} present")
        for i in idxs[:c]:
            flipped.add(i)
            lo, hi = pairs[i]
            total += hi - lo
    return total, parts_of_flips(pairs, flipped)


def subset_query_by_set(witness, j: int, rng) -> CompactSolution:
    """`SubsetWitness.query(j)` from the parts of every source: each step of
    a run by `div_pair_step`, each ladder rung and the leaf by their stored
    flip lists. A set checks the values distinct, and the sorted values are
    rebuilt into a fresh (value, 1) part each."""
    target = witness.ap.term(j)
    collected: list[tuple[int, int]] = []
    for layer in witness.layers:
        d = layer.inner.diff
        if isinstance(layer, ResidueLadderAccessor):
            dp = layer.outer.diff
            bank = layer.bank
            i = (j * dp % d) // dp
            j = (layer.outer.term(j) - bank.sums[i] - layer.inner.start) // d
            collected.extend(parts_of_flips(bank.pairs, bank.flips[i]))
        else:
            for lo, hi in layer.pairs:
                j, parts = div_pair_step(d, lo, hi - lo, 1, j)
                collected.extend(parts)
    collected.extend(parts_of_flips(witness.leaf.pairs, witness.leaf.flips[j]))
    values, counts = zip(*collected) if collected else ((), ())
    contract(counts.count(1) == len(counts), "subset-sum parts must have count 1")
    contract(len(set(values)) == len(values), "subset-sum parts must be distinct")
    total = sum(values)
    if total != target:
        raise InternalContract(f"certificate sums to {total}, wanted {target}")
    return CompactSolution(tuple(zip(sorted(values), repeat(1))), target, 0)


def fold_query_by_merge(witness, j: int, rng) -> CompactSolution:
    """`ApWitness.query(j)` in fold mode by merging the leaf's items and the
    parts of every layer into a new dict with `merge_counts`, which leaves
    the dict the leaf hands over as it is."""
    target = witness.ap.term(j)
    collected: list[tuple[int, int]] = []
    for layer in witness.layers:
        j, extra = layer.resolve(j)
        collected.extend(extra)
    counts = merge_counts(witness.leaf.query_parts(j, rng).items(), collected)
    sol = CompactSolution.from_counts(counts, target, witness.fold_budget)
    total = sum(v * c for v, c in sol.parts)
    if total != target:
        raise InternalContract(f"certificate sums to {total}, wanted {target}")
    return sol


def query_or_message(query, witness, j: int):
    """(parts, target, fold budget) of query(witness, j, rng) with a fresh
    stream of seed j, or the message of the InternalContract it raises."""
    try:
        sol = query(witness, j, RandomSource(j))
    except InternalContract as exc:
        return f"InternalContract: {exc}"
    return sol.parts, sol.target, sol.fold_budget


def uniformize_by_index(keys: Sequence[int]) -> tuple[int, list[int]]:
    """Reference for `subsetsum_ap.uniformize` and the selection `bank_pairs`
    makes from it: the multiplicity u maximizing u * #{key : multiplicity >=
    u} (smallest u on ties), and the indices of the first u occurrences of
    every key that occurs at least u times, from a count loop and a
    select-by-index pass."""
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
    return u, kept


def scan_two_pointer(elems: Sequence[int], m: int, k: int) -> int:
    """Reference for `sumset_ap._scan_min_good_start`: the two-pointer scan
    for the smallest index i such that every pair (i, j), i <= j <= n,
    satisfies 2k(j - i) >= a_j - a_i (sentinel a_n = m + 1); returns the
    endpoint a_i - 1."""
    a = list(elems) + [m + 1]
    i = 0
    for j in range(1, len(a)):
        while 2 * k * (j - i) < a[j] - a[i]:
            i += 1
    return a[i] - 1


def closest_class_loop(a: SortedIntSet) -> tuple[int, int, int, int, bytes, SortedIntSet]:
    """Reference for the closest-gap and class passes of `sumset_ap.ap_short`:
    (g, a*, t, a', in_class, B). g is the smallest gap, a* the smallest
    element starting one; t counts the residues mod g; the class is the most
    frequent residue (ties to the smallest), a' its first element, in_class
    marks its b-values (e - a')/g, and B is b-values union b-values + 1."""
    elems = a.elems
    g, a_star = min((elems[i + 1] - elems[i], elems[i]) for i in range(len(elems) - 1))
    residues: dict[int, int] = {}
    for e in elems:
        residues[e % g] = residues.get(e % g, 0) + 1
    r_best = min(residues, key=lambda r: (-residues[r], r))
    cls = [e for e in elems if e % g == r_best]
    a_prime = cls[0]
    b_vals = {(e - a_prime) // g for e in cls}
    in_class = bytearray(max(b_vals) + 2)
    for b in b_vals:
        in_class[b] = 1
    b_set = SortedIntSet.from_iterable(b_vals | {b + 1 for b in b_vals})
    return g, a_star, len(residues), a_prime, bytes(in_class), b_set


def find_gap_pairs_loop(a: SortedIntSet, d: int, m: int):
    """Reference for `augment.find_gap_pairs` (after its preconditions):
    (case, pair1, pair2) from lists of the gaps and non-divisible indices and
    a loop over the divisible runs; the first index wins every tie."""
    elems = a.elems
    n = len(elems)
    gaps = [elems[i + 1] - elems[i] for i in range(n - 1)]
    nondiv = [i for i, g in enumerate(gaps) if g % d]
    i_small = min(nondiv, key=lambda i: (gaps[i], i))
    pair1 = (elems[i_small], gaps[i_small])
    if 4 * len(nondiv) >= n:
        return 1, pair1, None
    best_lo, best_hi, best_size = -1, -1, 0
    boundaries = [-1] + nondiv + [n - 1]
    for b in range(len(boundaries) - 1):
        lo, hi = boundaries[b] + 1, boundaries[b + 1] - 1
        if hi - lo + 1 > best_size:
            best_lo, best_hi, best_size = lo, hi, hi - lo + 1
    return 2, pair1, (elems[best_lo], elems[best_hi + 1] - elems[best_lo])


def kfold_greedy_steps_by_pick(a: SortedIntSet, k: int, z: int) -> Optional[list[tuple[int, int]]]:
    """Reference for `density_witness.kfold_greedy_steps`: the walk that
    bisects for every pick until k steps are taken, a pick of 0 included, and
    caps a run at the remaining steps."""
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
            break
        q = residual // v
        if q > remaining:
            q = remaining
        runs.append((v, q))
        residual -= q * v
        remaining -= q
    return runs if residual == 0 else None


def uniform_int_by_next64(rng: RandomSource, lo: int, hi: int) -> int:
    """Reference for `RandomSource.uniform_int`: the same rejection sampling
    with one `_next64` call per 64-bit word."""
    if hi < lo:
        raise ValueError("empty range")
    rng.draws += 1
    span = hi - lo + 1
    mask64 = (1 << 64) - 1
    if span > mask64:
        width = span.bit_length()
        while True:
            x = 0
            for _ in range((width + 63) // 64):
                x = (x << 64) | rng._next64()
            x &= (1 << width) - 1
            if x < span:
                return lo + x
    limit = ((mask64 + 1) // span) * span
    while True:
        x = rng._next64()
        if x < limit:
            return lo + x % span


def from_counts_by_constructor(counts: dict[int, int], target: int,
                               fold_budget: int) -> CompactSolution:
    """Reference for `CompactSolution.from_counts`: the nonzero counts,
    sorted by a generator, through the dataclass constructor."""
    parts = tuple(sorted((v, c) for v, c in counts.items() if c))
    return CompactSolution(parts, target, fold_budget)


def leaf_parts_by_pair(leaf, j: int, rng) -> dict[int, int]:
    """Reference for `sumset_ap.ShortLeaf.query_parts`: each part b != 0
    adds its lifted pair's two values into the counts, and the lifts of 0,
    u+1 and 1 are added last, at the zero parts' count and the rest."""
    u, g, a_star, in_class = leaf.u, leaf.g, leaf.a_star, leaf.in_class
    shift = u * g + leaf.a_prime
    counts: dict[int, int] = {}
    zeros = 0
    for b, c in leaf.dw.query_parts(j, rng):
        if not b:
            zeros += c
            continue
        if in_class[u + b]:
            v, w = b * g + shift, a_star
        else:
            v, w = b * g + shift - g, a_star + g
        counts[v] = counts.get(v, 0) + c
        counts[w] = counts.get(w, 0) + c
    zero_lift = leaf._lift(0) + leaf._lift(u + 1)
    for values, c in ((zero_lift, zeros), (leaf._lift(1), leaf.dw.fold_budget - zeros)):
        if c:
            for v in values:
                counts[v] = counts.get(v, 0) + c
    return counts
