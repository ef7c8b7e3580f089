"""Dense Subset Sum: O(1) decision after preprocessing, plus linear search.

Preprocessing on a dense set A: strip almost divisors to get gamma and the
reduced set A1 = A(gamma)/gamma, split A1 into

  R -- a small remainder set whose subset sums cover every residue class
       modulo the progression difference,
  P -- a coreset whose subset sums contain a progression {s, s+d, ..., s+2md},
  G -- the bulk, holding at least half the total sum,

and record everything a target does not change: the target region, the
residues of S(A) modulo gamma, Sigma(A1), a predecessor table of subset sums
modulo gamma over the non-multiples of gamma, one modulo d over R, and every
BULK_BLOCK-th prefix sum of G taken from its largest element down.

Deciding t is a bounds check and one bit test. Searching walks t down: a
small Y read off the gamma table fixes t mod gamma, a greedy prefix of G found
by bisecting the block sums lands in a window of width m, a subset of R read
off the d table fixes the residue mod d, and the progression witness supplies
the exact remainder. Search is linear in N, and its cost is a few C-level
passes over a subset of up to N elements: the bulk prefix, the R walk and
the witness parts go into one list, which dense_search checks once for
repeats (one set) and for its sum. With gamma 1 and no flip that list,
sorted in place, is the answer. Otherwise the flip takes the complement and
checks its sum, the list is scaled by gamma, joined to Y and sorted, and the
assembled answer is checked again for its sum and for repeats.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from math import gcd
from typing import Optional, Sequence

from .core import (
    Exhausted,
    InternalContract,
    OutOfRegion,
    RandomSource,
    SortedIntSet,
    ceil_div,
    ceil_log2,
    contract,
    normalize,
    require,
)
from .profiles import TUNED, ConstantsProfile
from .subsetsum_ap import SubsetSumApResult, ap_in_subset_sums

# the bulk keeps the sum of every BULK_BLOCK largest elements
BULK_BLOCK = 64


# ---------------------------------------------------------------------------
# Almost divisors
# ---------------------------------------------------------------------------

def prime_factors(v: int) -> list[int]:
    """Prime factors of v >= 1 with multiplicity, ascending, by trial division."""
    out: list[int] = []
    p = 2
    while p * p <= v:
        while v % p == 0:
            out.append(p)
            v //= p
        p += 1 if p == 2 else 2
    if v > 1:
        out.append(v)
    return out


def _misses_at_most(vals: Sequence[int], p: int, tau: int) -> bool:
    """Whether at most tau of vals are not multiples of p."""
    missed = 0
    for v in vals:
        if v % p:
            missed += 1
            if missed > tau:
                return False
    return True


def _require_delta_dense(a: SortedIntSet, profile: ConstantsProfile) -> None:
    """N^2 >= delta*m with delta = delta_c*log2(2N): the density the
    decomposition and the almost-divisor bounds are proven for."""
    n, m = len(a), a.max
    delta = profile.delta_c * ceil_log2(2 * n)
    require(n * n >= delta * m, "delta-dense", f"n^2 = {n * n} < delta*m = {delta * m}")


def find_gamma(a: SortedIntSet, profile: ConstantsProfile = TUNED) -> tuple[int, SortedIntSet]:
    """Strip almost divisors: repeatedly find the smallest prime p such that
    at most tau = alpha*Sigma/N^2 elements are not multiples of p, keep the
    multiples divided by p, and accumulate gamma as the product.

    A composite almost divisor always has a prime factor that is one (fewer
    non-multiples), so scanning primes suffices. Such a prime divides one of
    any tau+1 elements, and both elements of one of any tau+1 disjoint pairs,
    so the prime factors of such a probe hold every candidate. The classical
    size bounds (gamma <= 4*Sigma/N^2, at least 3/4 of elements and of
    Sigma/gamma survive) are asserted, not assumed. They are proven for
    delta-dense input only: where one fails, input that is not delta-dense
    is refused as such, and only a failure on delta-dense input is a bug.
    """
    require(len(a) >= 1, "set-nonempty")
    require(a.min >= 1, "positive-elements")
    vals = list(a.elems)
    n0 = len(vals)
    sigma0 = sum(vals)
    alpha = profile.alpha_c  # times log2(2*mu) = 1 for sets
    gamma = 1
    while True:
        n = len(vals)
        tau = alpha * sum(vals) // (n * n)
        if 2 * tau + 2 <= n:
            probe = [gcd(vals[2 * i], vals[2 * i + 1]) for i in range(tau + 1)]
        else:
            probe = vals[: tau + 1]
        primes = sorted({p for v in probe for p in prime_factors(v)})
        candidate = next((p for p in primes if _misses_at_most(vals, p, tau)), None)
        if candidate is None:
            break
        vals = [v // candidate for v in vals if v % candidate == 0]
        gamma *= candidate
        contract(len(vals) >= 1, "almost divisor stripped every element")
    # the multiples of gamma in A, divided by gamma, in A's order
    reduced = SortedIntSet._ordered(tuple(vals))
    for holds, msg in (
        (gamma == 1 or gamma * n0 * n0 <= 4 * sigma0, "gamma above 4*Sigma/N^2"),
        (4 * len(reduced) >= 3 * n0, "fewer than 3/4 of the elements survive"),
        (4 * sum(vals) * gamma >= 3 * sigma0, "less than 3/4 of Sigma/gamma survives"),
    ):
        if not holds:
            _require_delta_dense(a, profile)
        contract(holds, msg)
    return gamma, reduced


# ---------------------------------------------------------------------------
# Modular subset sum (desk-scale DP with reconstruction)
# ---------------------------------------------------------------------------

# pred[t] = (v, s): residue t was first reached by adding v to residue s;
# pred[0] and the unreached residues are None
ResidueTable = tuple[Optional[tuple[int, int]], ...]


def residue_table(values: Sequence[int], modulus: int) -> ResidueTable:
    """Plain O(N * modulus) dynamic program over subsets of `values` (each
    used once) modulo `modulus`, in the order given. A residue's predecessor
    is fixed when it is first reached, so the walk from r gives the subset a
    DP that stopped as soon as it reached r would give."""
    require(modulus >= 1, "modulus-positive", f"modulus={modulus}")
    pred: list[Optional[tuple[int, int]]] = [None] * modulus
    reached = bytearray(modulus)
    reached[0] = 1
    frontier = [0]
    for v in values:
        if len(frontier) == modulus:
            break
        vm = v % modulus
        if vm == 0:
            continue
        new: list[int] = []
        for s in frontier:
            t = (s + vm) % modulus
            if not reached[t]:
                reached[t] = 1
                pred[t] = (v, s)
                new.append(t)
        frontier.extend(new)
    return tuple(pred)


def walk_residue_table(table: ResidueTable, r: int) -> Optional[list[int]]:
    """The subset whose sum first reached r modulo len(table), or None."""
    r %= len(table)
    if r and table[r] is None:
        return None
    out: list[int] = []
    cur = r
    while table[cur] is not None:
        v, cur = table[cur]
        out.append(v)
    contract(cur == 0, "backtracking must end at the empty subset")
    return out


def modular_subset_sum(values: Sequence[int], modulus: int, r: int) -> Optional[list[int]]:
    """Any subset of `values` (each used once) summing to r modulo `modulus`,
    or None."""
    return walk_residue_table(residue_table(values, modulus), r)


def block_sums(elems: Sequence[int]) -> tuple[int, ...]:
    """Entry i: the sum of the BULK_BLOCK*(i+1) largest of the ascending
    `elems`."""
    return tuple(islice(accumulate(reversed(elems)), BULK_BLOCK - 1, None, BULK_BLOCK))


def greedy_fill(elems: Sequence[int], blocks: Sequence[int], upper: int) -> tuple[list[int], int]:
    """(taken, sum of taken): the elements a scan of the ascending positive
    `elems` from the largest down takes when it takes each one that still
    fits under `upper`; `blocks` is block_sums(elems).

    The scan first takes the longest run of largest elements that fits,
    found by bisecting the block sums and then stepping at most
    BULK_BLOCK - 1 elements; after it, each element taken is the largest
    one not yet scanned that fits the gap left. `taken` is a fresh list that
    shares nothing with `elems`, so the caller may extend it in place."""
    b = bisect_right(blocks, upper)
    acc = blocks[b - 1] if b else 0
    hi = len(elems) - BULK_BLOCK * b
    while hi and acc + elems[hi - 1] <= upper:
        hi -= 1
        acc += elems[hi]
    taken = [*elems[hi:]]
    while acc < upper:
        hi = bisect_right(elems, upper - acc, 0, hi) - 1
        if hi < 0:
            break
        taken.append(elems[hi])
        acc += elems[hi]
    return taken, acc


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseDecomposition:
    """Preprocessed state for O(1) decide and linear search."""

    original: SortedIntSet
    gamma: int
    reduced: SortedIntSet           # A(gamma)/gamma
    remainder: SortedIntSet         # R: covers residues modulo the diff
    progression: SubsetSumApResult  # P: coreset + witness, start s, diff d
    bulk: SortedIntSet              # G: carries at least half the sum
    residue_bits: int               # S(A) mod gamma, read off y_table
    lo: int                         # target region [lo, hi], see build_rpg
    hi: int
    reduced_sum: int                # Sigma(A1)
    y_table: ResidueTable           # S(non-multiples of gamma) mod gamma
    r_table: ResidueTable           # S(R) mod the diff
    bulk_blocks: tuple[int, ...]    # block_sums(G)

    def region(self) -> tuple[int, int]:
        """Inclusive target region [lo, hi]."""
        return self.lo, self.hi


def build_rpg(
    a_raw, profile: ConstantsProfile = TUNED, seed: int = 0
) -> DenseDecomposition:
    """Split a dense set into remainder / progression / bulk with witnesses."""
    a, dups = normalize(a_raw)
    require(dups == 0, "set-input", f"{dups} duplicate values (multisets unsupported)")
    require(len(a) >= 1, "set-nonempty")
    require(a.min >= 1, "positive-elements")
    _require_delta_dense(a, profile)
    gamma, reduced = find_gamma(a, profile)
    n1 = len(reduced)
    sigma1 = sum(reduced.elems)
    m1 = reduced.max
    # remainder set: tau = ceil(alpha*Sigma/N^2); 2*tau base elements plus tau
    # non-multiples of every prime p <= tau that the base misses
    tau = ceil_div(profile.alpha_c * sigma1, n1 * n1)
    r_vals = set(reduced.elems[-2 * tau:])
    primes = [p for p in range(2, tau + 1) if prime_factors(p) == [p]]
    for p in primes:
        have = sum(1 for v in r_vals if v % p)
        if have >= tau:
            continue
        extra = [v for v in reduced if v % p and v not in r_vals]
        contract(len(extra) >= tau - have, "no almost divisor guarantees non-multiples")
        r_vals.update(extra[: tau - have])
    remainder = SortedIntSet.from_iterable(r_vals)
    pool = reduced.without(r_vals)
    # the smallest half feeds the progression; Sigma_G >= Sigma/2 is checked
    # exactly below, and the published N/4 split starves the augmentation
    # pool at desk scale
    b_count = len(pool) // 2
    require(b_count >= 4, "set-too-small-for-progression", f"N/2 = {b_count}")
    # a slice of the pool
    b_set = SortedIntSet._ordered(pool.elems[:b_count])
    # diff 1 needs no remainder payment, so a progression of length m
    # suffices; rebuild at 2m when the difference comes out larger
    prog = ap_in_subset_sums(b_set, m1, profile, seed)
    if prog.ap.diff > 1:
        prog = ap_in_subset_sums(b_set, 2 * m1, profile, seed)
    bulk = pool.without(prog.coreset)
    sigma_g = sum(bulk.elems)
    contract(2 * sigma_g >= sigma1, "bulk keeps less than half the sum")
    d = prog.ap.diff
    require(d <= 10**4, "diff-completeness-checkable", f"d={d}")
    r_table = residue_table(remainder.elems, d)
    if None in r_table[1:]:
        raise Exhausted(f"remainder set does not cover all residues modulo {d}")
    # lo is the published (4 + 2*C_lambda)*m*Sigma/N^2 bound intersected with
    # what this decomposition can actually reconstruct: after paying for Y
    # (at most gamma*m) the reduced target must still clear the greedy window
    # above the progression start
    big_n, m = len(a), a.max
    sigma = sum(a.elems)
    c_lambda = profile.lambda_c * ceil_log2(2 * big_n)
    offset = d * (m1 + 1) if d > 1 else 0
    lo = max(ceil_div((4 + 2 * c_lambda) * m * sigma, big_n * big_n),
             gamma * (prog.ap.start + offset + m1 + m))
    hi = sigma // 2
    require(lo <= hi, "region-nonempty", f"lo {lo} above hi {hi}")
    # the DP skips multiples of the modulus: a table over the non-multiples
    y_table = residue_table(a.elems, gamma)
    return DenseDecomposition(
        original=a,
        gamma=gamma,
        reduced=reduced,
        remainder=remainder,
        progression=prog,
        bulk=bulk,
        residue_bits=sum(1 << r for r, hit in enumerate(y_table) if r == 0 or hit is not None),
        lo=lo,
        hi=hi,
        reduced_sum=sigma1,
        y_table=y_table,
        r_table=r_table,
        bulk_blocks=block_sums(bulk.elems),
    )


# ---------------------------------------------------------------------------
# Decide and search
# ---------------------------------------------------------------------------

def dense_decide(d: DenseDecomposition, t: int) -> bool:
    """t in S(A) iff t mod gamma is a reachable residue, for t in the region."""
    if not d.lo <= t <= d.hi:
        raise OutOfRegion(f"t={t} outside [{d.lo}, {d.hi}]")
    return bool(d.residue_bits >> (t % d.gamma) & 1)


def dense_search(d: DenseDecomposition, t: int, rng: RandomSource) -> list[int]:
    """A subset of A summing to t; requires dense_decide(d, t) to hold."""
    if not dense_decide(d, t):
        raise OutOfRegion(f"t={t} has an unreachable residue modulo {d.gamma}")
    gamma = d.gamma
    y = walk_residue_table(d.y_table, t)
    contract(y is not None, "decide said yes but no Y subset exists")
    rest = t - sum(y)
    contract(rest % gamma == 0, "Y must clear the residue modulo gamma")
    z = rest // gamma
    flip = 2 * z > d.reduced_sum
    z_work = d.reduced_sum - z if flip else z
    picked = _search_reduced(d, z_work, rng)
    picked_set = set(picked)
    contract(len(picked_set) == len(picked), "reduced subset repeats an element")
    contract(sum(picked) == z_work, "reduced subset misses its target")
    if flip:
        picked = [v for v in d.reduced if v not in picked_set]
        contract(sum(picked) == z, "reduced-world subset misses its target")
    elif gamma == 1 and not y:
        # t == z: the checks above ran on the very list returned
        picked.sort()
        return picked
    out = [*y, *map(gamma.__mul__, picked)]
    out.sort()
    contract(sum(out) == t, "assembled subset misses the target")
    contract(len(set(out)) == len(out), "assembled subset repeats an element")
    return out


def _search_reduced(d: DenseDecomposition, z: int, rng: RandomSource) -> list[int]:
    """Subset of the reduced set summing to z via greedy bulk + remainder +
    progression witness, unsorted; dense_search checks it."""
    m1 = d.reduced.max
    ap = d.progression.ap
    s, diff = ap.start, ap.diff
    # diff > 1 pays up to diff*(m1+1) to the remainder set afterwards;
    # diff == 1 needs no remainder and lands directly above s
    offset = diff * (m1 + 1) if diff > 1 else 0
    upper = z - s - offset
    contract(upper >= 0, "target below the greedy window; region too loose")
    g_taken, acc = greedy_fill(d.bulk.elems, d.bulk_blocks, upper)
    contract(upper - m1 < acc <= upper, "greedy bulk prefix missed its window")
    r_taken = walk_residue_table(d.r_table, z - acc - s)
    contract(r_taken is not None, "remainder set is not complete for the diff")
    t_p = z - acc - sum(r_taken)
    contract((t_p - s) % diff == 0, "progression residue mismatch")
    j = (t_p - s) // diff
    if not 0 <= j <= ap.length:
        raise InternalContract(f"progression index {j} out of range")
    sol = d.progression.witness.query(j, rng)
    g_taken += r_taken
    g_taken += [v for v, _ in sol.parts]
    return g_taken
