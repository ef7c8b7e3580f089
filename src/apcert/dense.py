"""Dense Subset Sum: O(1) decision after preprocessing, plus search.

Preprocessing on a dense set A: strip almost divisors to get gamma and the
reduced set A1 = A(gamma)/gamma, split A1 into

  R -- a small remainder set whose subset sums cover every residue class
       modulo the progression difference,
  P -- a coreset whose subset sums contain a progression {s, s+d, ..., s+2md},
  G -- the bulk, holding at least half the total sum,

and record the residues of S(A) modulo gamma. Deciding t is a bitmap lookup;
searching walks t down: a small Y fixes t mod gamma, a greedy prefix of G
lands in a window of width m, R fixes the residue mod d, and the progression
witness supplies the exact remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import (
    Exhausted,
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


def find_gamma(a: SortedIntSet, profile: ConstantsProfile = TUNED) -> tuple[int, SortedIntSet]:
    """Strip almost divisors: repeatedly find the smallest prime p such that
    at most tau = alpha*Sigma/N^2 elements are not multiples of p, keep the
    multiples divided by p, and accumulate gamma as the product.

    A composite almost divisor always has a prime factor that is one (fewer
    non-multiples), so scanning primes suffices. Such a prime divides one of
    any tau+1 elements, and both elements of one of any tau+1 disjoint pairs,
    so the prime factors of such a probe hold every candidate. The classical
    size bounds (gamma <= 4*Sigma/N^2, at least 3/4 of elements and of
    Sigma/gamma survive) are asserted, not assumed.
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
    reduced = SortedIntSet(tuple(vals))
    if gamma > 1:
        contract(gamma * n0 * n0 <= 4 * sigma0, "gamma above 4*Sigma/N^2")
    contract(4 * len(reduced) >= 3 * n0, "fewer than 3/4 of the elements survive")
    contract(4 * sum(vals) * gamma >= 3 * sigma0, "less than 3/4 of Sigma/gamma survives")
    return gamma, reduced


# ---------------------------------------------------------------------------
# Modular subset sum (desk-scale DP with reconstruction)
# ---------------------------------------------------------------------------

def modular_subset_sum(values: Sequence[int], modulus: int, r: int) -> Optional[list[int]]:
    """Any subset of `values` (each used once) summing to r modulo `modulus`,
    or None. Plain O(N * modulus) dynamic program with predecessor tracking."""
    require(modulus >= 1, "modulus-positive", f"modulus={modulus}")
    r %= modulus
    if modulus == 1 or r == 0:
        return []
    pred: list[Optional[tuple[int, int]]] = [None] * modulus
    reached = bytearray(modulus)
    reached[0] = 1
    frontier = [0]
    for idx, v in enumerate(values):
        vm = v % modulus
        if vm == 0:
            continue
        new: list[int] = []
        for s in frontier:
            t = (s + vm) % modulus
            if not reached[t]:
                reached[t] = 1
                pred[t] = (idx, s)
                new.append(t)
        frontier.extend(new)
        if reached[r]:
            break
    if not reached[r]:
        return None
    out: list[int] = []
    cur = r
    while pred[cur] is not None:
        idx, prev = pred[cur]
        out.append(values[idx])
        cur = prev
    contract(cur == 0, "backtracking must end at the empty subset")
    return out


def shrink_mod(values: Sequence[int], modulus: int) -> list[int]:
    """Drop a block between equal partial-sum residues until at most
    `modulus` elements remain; the total stays fixed modulo `modulus`."""
    require(modulus >= 1, "modulus-positive")
    y = list(values)
    while len(y) > modulus:
        seen = {0: 0}
        acc = 0
        cut = None
        for i, v in enumerate(y, start=1):
            acc = (acc + v) % modulus
            if acc in seen:
                cut = (seen[acc], i)
                break
            seen[acc] = i
        contract(cut is not None, "pigeonhole guarantees a repeated partial sum")
        lo, hi = cut
        del y[lo:hi]
    return y


def reachable_residues(values: Sequence[int], modulus: int) -> int:
    """Bitmask of S(values) modulo `modulus`."""
    mask = (1 << modulus) - 1
    bits = 1
    for v in values:
        vm = v % modulus
        if vm == 0:
            continue
        bits |= ((bits << vm) | (bits >> (modulus - vm))) & mask
    return bits


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseDecomposition:
    """Preprocessed state for O(1) decide and near-linear search."""

    original: SortedIntSet
    gamma: int
    reduced: SortedIntSet           # A(gamma)/gamma
    remainder: SortedIntSet         # R: covers residues modulo the diff
    progression: SubsetSumApResult  # P: coreset + witness, start s, diff d
    bulk: SortedIntSet              # G: carries at least half the sum
    residue_bits: int               # S(A) mod gamma
    profile: ConstantsProfile

    @property
    def diff(self) -> int:
        return self.progression.ap.diff

    @property
    def start(self) -> int:
        return self.progression.ap.start

    def region(self) -> tuple[int, int]:
        """Inclusive target region [lo, hi].

        lo is the published (4 + 2*C_lambda)*m*Sigma/N^2 bound intersected
        with what this decomposition can actually reconstruct: after paying
        for Y (at most gamma*m) the reduced target must still clear the
        greedy window above the progression start.
        """
        n = len(self.original)
        sigma = sum(self.original.elems)
        m = self.original.max
        c_lambda = self.profile.lambda_c * ceil_log2(2 * n)
        lo = ceil_div((4 + 2 * c_lambda) * m * sigma, n * n)
        m1 = self.reduced.max
        offset = self.diff * (m1 + 1) if self.diff > 1 else 0
        construct_lo = self.gamma * (self.start + offset + m1 + m)
        return max(lo, construct_lo), sigma // 2


def build_rpg(
    a_raw, profile: ConstantsProfile = TUNED, seed: int = 0
) -> DenseDecomposition:
    """Split a dense set into remainder / progression / bulk with witnesses."""
    if isinstance(a_raw, SortedIntSet):
        a, dups = a_raw, 0
    else:
        a, dups = normalize(a_raw)
    require(dups == 0, "set-input", f"{dups} duplicate values (multisets unsupported)")
    require(len(a) >= 1, "set-nonempty")
    require(a.min >= 1, "positive-elements")
    big_n = len(a)
    m = a.max
    delta = profile.delta_c * ceil_log2(2 * big_n)
    require(big_n * big_n >= delta * m, "delta-dense",
            f"n^2 = {big_n * big_n} < delta*m = {delta * m}")
    gamma, reduced = find_gamma(a, profile)
    n1 = len(reduced)
    sigma1 = sum(reduced.elems)
    m1 = reduced.max
    # remainder set: tau = ceil(alpha*Sigma/N^2); 2*tau base elements plus tau
    # non-multiples of every prime p <= tau that the base misses
    tau = ceil_div(profile.alpha_c * sigma1, n1 * n1)
    r_vals = set(reduced.elems[-2 * tau:])
    sieve_primes = [p for p in range(2, tau + 1) if all(p % q for q in range(2, p))]
    for p in sieve_primes:
        have = sum(1 for v in r_vals if v % p)
        if have >= tau:
            continue
        extra = [v for v in reduced if v % p and v not in r_vals]
        contract(len(extra) >= tau - have, "no almost divisor guarantees non-multiples")
        r_vals.update(extra[: tau - have])
    remainder = SortedIntSet.from_iterable(r_vals)
    pool = [v for v in reduced if v not in r_vals]
    # the smallest half feeds the progression; Sigma_G >= Sigma/2 is checked
    # exactly below, and the published N/4 split starves the augmentation
    # pool at desk scale
    b_count = len(pool) // 2
    require(b_count >= 4, "set-too-small-for-progression", f"N/2 = {b_count}")
    b_set = SortedIntSet(tuple(pool[:b_count]))
    # diff 1 needs no remainder payment, so a progression of length m
    # suffices; rebuild at 2m when the difference comes out larger
    prog = ap_in_subset_sums(b_set, m1, profile, seed)
    if prog.ap.diff > 1:
        prog = ap_in_subset_sums(b_set, 2 * m1, profile, seed)
    p_core = set(prog.coreset.elems)
    bulk = SortedIntSet.from_iterable(v for v in reduced if v not in r_vals and v not in p_core)
    sigma_g = sum(bulk.elems)
    contract(2 * sigma_g >= sigma1, "bulk keeps less than half the sum")
    d = prog.ap.diff
    if d > 1:
        require(d <= 10**4, "diff-completeness-checkable", f"d={d}")
        if reachable_residues(remainder.elems, d) != (1 << d) - 1:
            raise Exhausted(f"remainder set does not cover all residues modulo {d}")
    bits = reachable_residues(a.elems, gamma)
    return DenseDecomposition(
        original=a,
        gamma=gamma,
        reduced=reduced,
        remainder=remainder,
        progression=prog,
        bulk=bulk,
        residue_bits=bits,
        profile=profile,
    )


# ---------------------------------------------------------------------------
# Decide and search
# ---------------------------------------------------------------------------

def dense_decide(d: DenseDecomposition, t: int) -> bool:
    """t in S(A) iff t mod gamma is a reachable residue, for t in the region."""
    lo, hi = d.region()
    if not lo <= t <= hi:
        raise OutOfRegion(f"t={t} outside [{lo}, {hi}]")
    return bool(d.residue_bits >> (t % d.gamma) & 1)


def dense_search(d: DenseDecomposition, t: int, rng: RandomSource) -> list[int]:
    """A subset of A summing to t; requires dense_decide(d, t) to hold."""
    if not dense_decide(d, t):
        raise OutOfRegion(f"t={t} has an unreachable residue modulo {d.gamma}")
    gamma = d.gamma
    outside = [v for v in d.original if v % gamma]
    if gamma == 1:
        y: list[int] = []
    else:
        y_raw = modular_subset_sum(outside, gamma, t % gamma)
        contract(y_raw is not None, "decide said yes but no Y subset exists")
        y = shrink_mod(y_raw, gamma)
    rest = t - sum(y)
    contract(rest % gamma == 0, "Y must clear the residue modulo gamma")
    z = rest // gamma
    sigma1 = sum(d.reduced.elems)
    flip = 2 * z > sigma1
    z_work = sigma1 - z if flip else z
    picked = _search_reduced(d, z_work)
    if flip:
        picked_set = set(picked)
        picked = [v for v in d.reduced if v not in picked_set]
    contract(sum(picked) == z, "reduced-world subset misses its target")
    out = sorted(y + [gamma * v for v in picked])
    contract(sum(out) == t, "assembled subset misses the target")
    contract(len(set(out)) == len(out), "assembled subset repeats an element")
    return out


def _search_reduced(d: DenseDecomposition, z: int) -> list[int]:
    """Subset of the reduced set summing to z via greedy bulk + remainder +
    progression witness."""
    m1 = d.reduced.max
    s, diff = d.start, d.diff
    # diff > 1 pays up to diff*(m1+1) to the remainder set afterwards;
    # diff == 1 needs no remainder and lands directly above s
    offset = diff * (m1 + 1) if diff > 1 else 0
    upper = z - s - offset
    contract(upper >= 0, "target below the greedy window; region too loose")
    g_taken: list[int] = []
    acc = 0
    for v in reversed(d.bulk.elems):
        if acc + v <= upper:
            acc += v
            g_taken.append(v)
        if acc == upper:
            break
    contract(upper - m1 < acc <= upper, "greedy bulk prefix missed its window")
    rho = (z - acc - s) % diff
    if diff == 1 or rho == 0:
        r_taken: list[int] = []
    else:
        r_raw = modular_subset_sum(d.remainder.elems, diff, rho)
        contract(r_raw is not None, "remainder set is not complete for the diff")
        r_taken = shrink_mod(r_raw, diff)
    t_p = z - acc - sum(r_taken)
    contract((t_p - s) % diff == 0, "progression residue mismatch")
    j = (t_p - s) // diff
    contract(0 <= j <= d.progression.ap.length, f"progression index {j} out of range")
    rng = RandomSource(d.progression.ap.start).derive("dense-search", j)
    sol = d.progression.witness.query(j, rng)
    p_taken = [v for v, _ in sol.parts]
    out = g_taken + r_taken + p_taken
    contract(len(set(out)) == len(out), "reduced subset repeats an element")
    contract(sum(out) == z, "reduced subset misses its target")
    return out
