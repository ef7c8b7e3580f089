import gc
import itertools
import math
import random
import weakref
from collections import Counter
from collections.abc import Sequence
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apcert.subsetsum_ap
from apcert.augment import ApWitness, LadderLayer
from apcert.core import (
    ApcertError,
    ArithProgression,
    CompactSolution,
    Exhausted,
    InternalContract,
    MultiplicityExceeded,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
)
from apcert.profiles import PAPER, TUNED
from apcert.subsetsum_ap import (
    GapScan,
    Gone,
    PairBank,
    ap_by_pairs,
    ap_in_subset_sums,
    bank_pairs,
    conflict_free_pairs,
    coreset_size_bound,
    extend_ap_once,
    extract_aug_pairs,
    gamma_parameter,
    gen_pairs,
    residue_ladder,
    short_ap_in_subset_sums,
    uniformize,
)
from oracle import (
    EagerGapScan,
    brute_subset_sums,
    check_pairs,
    error_of,
    gen_pairs_by_index,
    uniformize_by_index,
    verify_solution,
    walk_run_by_steps,
)

S = SortedIntSet.from_iterable


def columns(pairs):
    """The columns (lo, hi, gaps) of `pairs`."""
    pairs = tuple(pairs)
    return (tuple(lo for lo, _ in pairs), tuple(hi for _, hi in pairs),
            tuple(hi - lo for lo, hi in pairs))


def pairs_of(cols):
    """The pairs of the columns (lo, hi, gaps), each column a tuple of one
    length and each gap its pair's."""
    lo, hi, gaps = cols
    assert all(type(c) is tuple for c in cols) and len(lo) == len(hi) == len(gaps)
    assert gaps == tuple(h - l for l, h in zip(lo, hi))
    return tuple(zip(lo, hi))


def gone_of(indices):
    """A Gone with `indices` unlinked, in the given order."""
    gone = Gone()
    for i in indices:
        gone.unlink(i)
    return gone


@st.composite
def faulty_pairs(draw):
    """Conflict-free pairs in shuffled order, with up to two of them swapped,
    collapsed to one endpoint, or given an endpoint of another pair."""
    vals = sorted(draw(st.sets(st.integers(0, 60), max_size=16)))
    pairs = draw(st.permutations([[lo, hi] for lo, hi in zip(vals[0::2], vals[1::2])]))
    for _ in range(draw(st.integers(0, 2)) if pairs else 0):
        i, j = draw(st.integers(0, len(pairs) - 1)), draw(st.integers(0, len(pairs) - 1))
        lo, hi = pairs[i]
        kind = draw(st.sampled_from(["swap", "collapse", "share"]))
        if kind == "swap":
            pairs[i] = [hi, lo]
        elif kind == "collapse":
            pairs[i] = [lo, lo]
        else:
            pairs[i][draw(st.integers(0, 1))] = pairs[j][draw(st.integers(0, 1))]
    return tuple(map(tuple, pairs))


class TestPairSet:
    def test_conflict_detected(self):
        with pytest.raises(PreconditionViolated):
            conflict_free_pairs(((1, 2), (2, 3)))

    @given(faulty_pairs())
    def test_same_error_as_the_pair_loop(self, pairs):
        assert error_of(conflict_free_pairs, pairs) == error_of(check_pairs, pairs)

    @pytest.mark.parametrize("pairs, error", [
        ((), None),
        (((0, 2**62),), None),
        (((0, 1), (3, 2)), (PreconditionViolated, "pair-ordered", "(3, 2)")),
        (((3, 1), (1, 2)), (PreconditionViolated, "pair-ordered", "(3, 1)")),
        (((0, 1), (1, 2), (4, 4)), (PreconditionViolated, "conflict-free", "(1, 2)")),
        (((0, 1), (4, 4), (1, 2)), (PreconditionViolated, "pair-ordered", "(4, 4)")),
    ])
    def test_first_fault_wins(self, pairs, error):
        assert error_of(conflict_free_pairs, pairs) == error == error_of(check_pairs, pairs)


class TestGenPairs:
    @given(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 300)), min_size=3,
                    max_size=40))
    @example([1, 1, 1, 1, 1, 1, 7])  # the pair (7, 14) has gap m // n = 7 and is kept
    def test_same_pairs_as_the_index_loop(self, gaps):
        a = S(itertools.accumulate(gaps, initial=1))
        pairs = pairs_of(gen_pairs(a))
        assert pairs == gen_pairs_by_index(a)
        check_pairs(pairs)

    def test_odd_pairs_chosen(self):
        # three wide gaps at even positions leave the odd pairs the majority
        a = S(itertools.accumulate([100, 1, 100, 1, 100] + [1] * 10, initial=1))
        assert pairs_of(gen_pairs(a)) == gen_pairs_by_index(a) == tuple(
            (v, v + 1) for v in (101, 202, 303, 305, 307, 309, 311))

    def test_consecutive(self):
        t = pairs_of(gen_pairs(S(range(1, 9))))
        assert len(t) >= 2
        n, m = 2, 8
        assert all(hi - lo <= m // n for lo, hi in t)

    def test_clustered(self):
        t = pairs_of(gen_pairs(S([1, 2, 100, 101, 200, 201, 300, 301])))
        assert len(t) >= 2
        assert all(hi - lo == 1 for lo, hi in t)

    def test_drop_count(self):
        t = pairs_of(gen_pairs(S(range(1, 12))))  # 11 elements -> drop 3
        assert not set(itertools.chain.from_iterable(t)) & {9, 10, 11}

    def test_pigeonhole_bound_random(self):
        rnd = random.Random(0)
        for _ in range(100):
            n4 = 4 * rnd.randint(1, 30)
            m = rnd.randint(n4, n4 * 20)
            a = S(rnd.sample(range(1, m + 1), n4))
            t = pairs_of(gen_pairs(a))
            n = n4 // 4
            assert len(t) >= n
            assert all((hi - lo) * n <= a.max for lo, hi in t)


def gaps(pairs):
    return [hi - lo for lo, hi in pairs]


def uniform(keys):
    """u from the key multiplicities of `keys`, and the keys of at least u
    occurrences, ascending."""
    mult = Counter(keys)
    u = uniformize(mult.values())
    return u, sorted(k for k, c in mult.items() if c >= u)


class TestUniformize:
    def test_mixed_gaps(self):
        u, kept = uniform(gaps(((0, 1), (2, 3), (5, 6), (10, 12))))
        assert u == 3 and kept == [1]

    def test_all_distinct(self):
        u, kept = uniform(gaps((10 * i, 10 * i + i + 1) for i in range(8)))
        assert u == 1 and len(kept) == 8

    def test_all_equal(self):
        u, kept = uniform(gaps((10 * i, 10 * i + 3) for i in range(8)))
        assert u == 8 and kept == [3]

    def test_size_bound_random(self):
        rnd = random.Random(4)
        for _ in range(50):
            keys = [rnd.randint(1, 6) for _ in range(rnd.randint(1, 400))]
            u, kept = uniform(keys)
            assert u * len(kept) * math.log2(2 * len(keys)) >= len(keys) - 1e-9

    def test_size_bound_ten_thousand_pairs(self):
        rnd = random.Random(6)
        keys = [rnd.randint(1, 40) for _ in range(10**4)]
        u, kept = uniform(keys)
        assert u * len(kept) * math.log2(2 * len(keys)) >= len(keys) - 1e-9
        assert u == uniformize_by_index(keys)[0]


def bank_or_error(pairs, keys, bound, seed):
    """The fields of the gap bank over `pairs` under `keys`, or the error it
    raises as (class, message)."""
    try:
        bank = bank_pairs(*columns(pairs)[:2], keys, bound, (0,), "gap", seed)
    except ApcertError as exc:
        return type(exc), str(exc)
    return bank.pairs, bank.buckets, bank.base, bank.ap, bank.certs


@st.composite
def bank_keys(draw):
    """(keys, bound): 1-400 gap keys in [1, bound], drawn from a few values so
    that keys repeat and multiplicities tie."""
    bound = draw(st.integers(1, 40))
    alphabet = draw(st.lists(st.integers(1, bound), min_size=1, max_size=8, unique=True))
    return draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=400)), bound


def cert(*parts):
    """A 2-fold gap certificate with the given (reduced key, count) parts."""
    return CompactSolution(parts, sum(v * c for v, c in parts), 2)


def two_pair_bank(*certs, scale=1):
    """Bank of the pairs (1, 1+s), (5, 5+s) for s = scale, both under reduced
    key 1, behind the given certificates of the terms of {6} + {0, s, 2s, ...}."""
    pairs = ((1, 1 + scale), (5, 5 + scale))
    ap = ArithProgression(6, scale, len(certs) - 1)
    return PairBank(ap, certs, scale, 6, pairs, {1: (0, 1)}, frozenset({0}))


class TestPairsToSubsetSum:
    """Gap certificates become endpoint subsets through PairBank.flip."""

    def test_example_two_ones(self):
        bank = two_pair_bank(cert(), cert((1, 1)), cert((1, 2)))
        assert bank.flip(2) == (8, ((2, 1), (6, 1)))

    def test_zero(self):
        bank = two_pair_bank(cert(), cert((0, 2)))
        for j in (0, 1):
            assert bank.flip(j) == (6, ((1, 1), (5, 1)))

    def test_single_flip(self):
        total, parts = two_pair_bank(cert(), cert((1, 1))).flip(1)
        assert total == 7
        assert sum(v for v, _ in parts) == 7

    def test_scaled_keys(self):
        # reduced key 1 stands for gap 2; the flip adds the gap, not the key
        bank = two_pair_bank(cert(), cert((1, 1)), scale=2)
        assert bank.flip(1) == (8, ((3, 1), (5, 1))) and bank.ap.term(1) == 8

    def test_multiplicity_guard(self):
        ap = ArithProgression(1, 1, 1)
        bank = PairBank(ap, (cert((1, 2)), cert((3, 1))), 1, 1, ((1, 2),), {1: (0,)},
                        frozenset({0}))
        with pytest.raises(MultiplicityExceeded):
            bank.flip(0)
        with pytest.raises(MultiplicityExceeded):
            bank.flip(1)

    def test_query_checks_the_flip_against_the_progression(self):
        bank = two_pair_bank(cert(), cert((1, 1)), cert((1, 2)))
        assert [bank.query_parts(j, None) for j in range(3)] == [
            ((1, 1), (5, 1)), ((2, 1), (5, 1)), ((2, 1), (6, 1))]
        off = two_pair_bank(cert(), cert((1, 2)))
        with pytest.raises(InternalContract):
            off.query_parts(1, None)


def largest_use(certs):
    """The largest count of each reduced key in any certificate."""
    use = Counter()
    for sol in certs:
        for v, c in sol.parts:
            use[v] = max(use[v], c)
    return use


def assert_bank_reserves_its_use(bank):
    """Every certificate flips, and each key's bucket holds as many pairs as
    the most any flip turns over from it."""
    flipped = Counter()
    for j in range(len(bank.certs)):
        _, parts = bank.flip(j)
        hi = {i for i, ((v, _), (_, h)) in enumerate(zip(parts, bank.pairs)) if v == h}
        for key, idxs in bank.buckets.items():
            flipped[key] = max(flipped[key], len(hi.intersection(idxs)))
    assert all(len(idxs) == flipped[key] for key, idxs in bank.buckets.items())
    assert len(bank.pairs) == sum(map(len, bank.buckets.values()))


class TestBankPairs:
    def test_bucket_is_the_largest_use_of_its_key(self):
        t = make_pairs([(1, 20), (2, 20), (3, 20), (5, 20)])
        bank = bank_pairs(*columns(t), 5, (0,), "gap", 0)
        assert len(bank.certs) == bank.ap.length + 1 == 6
        assert_bank_reserves_its_use(bank)
        unused = [key for key in bank.buckets if not largest_use(bank.certs)[key]]
        assert unused and all(bank.buckets[key] == () for key in unused)

    @settings(max_examples=150, deadline=None)
    @given(bank_keys(), st.integers(0, 3))
    @example(([3], 5), 0)  # one key
    @example(([2] * 50, 4), 1)  # all keys equal
    @example((list(range(1, 41)), 40), 2)  # all keys distinct
    @example(([1, 1, 2, 2, 3, 4], 4), 0)  # u = 1 and u = 2 tie at score 4
    @example(([1, 1, 1, 2, 2, 2, 3], 3), 0)  # two keys of multiplicity exactly u = 3
    @example(([1] * 13 + [2] * 3 + [3], 5), 3)  # u = 13 leaves key 1 alone
    def test_matches_the_reference_selection(self, keys_bound, seed):
        """The one grouping pass banks what the select-by-index reference
        selects: every key of that selection has exactly u pairs, so a bank
        over the selection keeps all its keys, and must equal the bank over
        every pair."""
        keys, bound = keys_bound
        pairs = tuple((100 * i + 1, 100 * i + 1 + k) for i, k in enumerate(keys))
        u, kept = uniformize_by_index(keys)
        assert uniformize(Counter(keys).values()) == u
        chosen = [pairs[i] for i in kept], [keys[i] for i in kept]
        assert bank_or_error(pairs, keys, bound, seed) == bank_or_error(*chosen, bound, seed)

    def test_empty_rejected(self):
        assert error_of(lambda t: bank_pairs(t, t, t, 5, (0,), "gap", 0), ()) == (
            PreconditionViolated, "pairs-nonempty", "")

    def test_reads_only_the_banked_pairs(self):
        # 2,000 pairs with gaps 1-4 in turn: a bound-4 progression needs a
        # few pairs of each gap, all near the front, so the banking scan
        # stops early and reads lo and hi only at the banked indices
        t = tuple((10 * i + 1, 10 * i + 1 + i % 4 + 1) for i in range(2000))
        lo, hi, keys = columns(t)
        lo, hi, keys = ReadLog(lo), ReadLog(hi), IterLog(keys)
        bank = bank_pairs(lo, hi, keys, 4, (0,), "gap", 0)
        order = [t.index(pair) for pair in bank.pairs]
        assert bank.pairs and lo.read == hi.read == order
        assert keys.yielded == [2000, max(order) + 1] and max(order) < 40
        assert bank_or_error(t, keys, 4, 0) == (
            bank.pairs, bank.buckets, bank.base, bank.ap, bank.certs)


class ReadLog(Sequence):
    """A tuple that logs the indices read from it."""

    def __init__(self, values):
        self.values = tuple(values)
        self.read = []

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        self.read.append(i)
        return self.values[i]


class IterLog(list):
    """A list that logs how many items each iteration over it yields."""

    def __init__(self, values):
        super().__init__(values)
        self.yielded = []

    def __iter__(self):
        self.yielded.append(0)
        for v in super().__iter__():
            self.yielded[-1] += 1
            yield v


def make_pairs(gap_counts, spacing=5):
    pairs = []
    v = 1
    for g, count in gap_counts:
        for _ in range(count):
            pairs.append((v, v + g))
            v += g + spacing
    return tuple(pairs)


class TestApByPairs:
    def test_toy_against_subset_oracle(self):
        t = make_pairs([(1, 32), (2, 32)])
        bank = ap_by_pairs(*columns(t), 2, TUNED)
        base = S(itertools.chain.from_iterable(bank.pairs))
        tbl = brute_subset_sums(base, bank.ap.last + 1)
        witness = ApWitness(bank)
        for j in range(bank.ap.length + 1):
            sol = witness.query(j, RandomSource(j))
            assert verify_solution(base, sol)
            assert sol.target == bank.ap.term(j)
            assert sol.target in tbl

    @pytest.mark.parametrize("gap_counts, g_bound", [
        ([(1, 32), (2, 32)], 2),
        ([(2, 40), (4, 40), (6, 40)], 6),
        ([(3, 200), (5, 200), (7, 200)], 7),
    ], ids=["gaps-1-2", "gcd-2", "gaps-3-5-7"])
    def test_every_flip_is_its_term(self, gap_counts, g_bound):
        bank = ap_by_pairs(*columns(make_pairs(gap_counts)), g_bound, TUNED)
        assert len(bank.certs) == bank.ap.length + 1
        for j in range(bank.ap.length + 1):
            total, parts = bank.flip(j)
            assert total == bank.ap.term(j) == sum(v for v, _ in parts)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionViolated):
            ap_by_pairs((), (), (), 2, TUNED)

    @pytest.mark.parametrize("build, detail", [
        (lambda: ap_by_pairs(*columns(((1, 4), (6, 7))), 2, TUNED), "gaps up to 3 vs bound 2"),
        (lambda: ap_by_pairs(*columns(((1, 3), (5, 5))), 4, TUNED), "gaps up to 2 vs bound 4"),
        # every pair of range(2, 2000, 3) has gap 3, above ell = 1
        (lambda: ap_in_subset_sums(range(2, 2000, 3), 1), "gaps up to 3 vs bound 1"),
    ], ids=["above-bound", "zero-gap", "from-the-pipeline"])
    def test_gap_outside_the_bound_rejected(self, build, detail):
        with pytest.raises(PreconditionViolated) as exc:
            build()
        assert (exc.value.name, exc.value.detail) == ("gaps-within-bound", detail)

    def test_paper_cap_enforced(self):
        t = make_pairs([(1, 8)])
        with pytest.raises(PreconditionViolated) as exc:
            ap_by_pairs(*columns(t), 2, PAPER)
        assert exc.value.name == "pairs-vs-gap-cap"


class TestShortAp:
    def test_consecutive_toy(self):
        a = S(range(1, 4001))
        bank = short_ap_in_subset_sums(a, 10, TUNED)
        assert bank.ap.length == 10
        assert bank.ap.diff * (len(a) // 4) <= a.max
        coreset = S(itertools.chain.from_iterable(bank.pairs))
        tbl = brute_subset_sums(coreset, bank.ap.last + 1)
        witness = ApWitness(bank)
        for j in range(11):
            sol = witness.query(j, RandomSource(j))
            assert verify_solution(coreset, sol)
            vals = [v for v, _ in sol.parts]
            assert len(vals) == len(set(vals))
            assert sol.target in tbl

    def test_floor_enforced_under_paper(self):
        with pytest.raises(PreconditionViolated):
            short_ap_in_subset_sums(S(range(1, 4001)), 10, PAPER)


class TestExtractAugPairs:
    def test_case1_on_consecutive(self):
        pool = S(range(1, 2001))
        case, pairs = extract_aug_pairs(pool, 3, 600, 2000, 300, TUNED)
        assert case == 1
        assert all((hi - lo) % 3 != 0 for lo, hi in pairs)
        assert all(hi - lo <= 600 // TUNED.window_div for lo, hi in pairs)
        ends = [e for lo, hi in pairs for e in (lo, hi)]
        assert len(ends) == len(set(ends))

    def test_case2_when_diff_one(self):
        pool = S(range(1, 2001))
        case, pairs = extract_aug_pairs(pool, 1, 800, 2000, 300, TUNED, gain_target=400)
        assert case == 2
        gains = [hi - lo for lo, hi in pairs]
        assert sum(gains) >= 400
        lo_w = 800 * 1  # window bounds recomputed below
        from apcert.subsetsum_ap import gamma_parameter
        from apcert.core import ceil_div
        gamma = gamma_parameter(2000, 300, 800, TUNED)
        lo_bound = max(1, ceil_div(800 * gamma.denominator, TUNED.window_lo_div * gamma.numerator))
        hi_bound = 800 // TUNED.window_div
        assert all(lo_bound <= g <= hi_bound for g in gains)

    def test_exhausted_when_nothing_fits(self):
        # every gap is odd (never divisible by 2) and far above the case-1 cap
        pool = S([1, 1000000, 1999999, 2999998])
        with pytest.raises(Exhausted):
            extract_aug_pairs(pool, 2, 16, 3 * 10**6, 4, TUNED)


def _from_gaps(start, gaps):
    vals = [start]
    for g in gaps:
        vals.append(vals[-1] + g)
    return vals


@st.composite
def scan_inputs(draw):
    """(pool values, d, ell, m, n, gain_target) from five pool families:
    random, long runs of gap 1, every gap divisible by d, d = 1, and d >= 2
    with no case-1 gap."""
    family = draw(st.sampled_from(["random", "runs", "divisible", "d1", "no-case1"]))
    d = {"d1": 1, "no-case1": draw(st.integers(2, 6))}.get(family) or draw(st.integers(1, 6))
    ell = draw(st.integers(8, 600))
    if family in ("random", "d1"):
        vals = sorted(draw(st.sets(st.integers(1, 4000), min_size=1, max_size=160)))
    elif family == "runs":
        blocks = draw(st.lists(st.tuples(st.integers(1, 80), st.integers(1, 300)),
                               min_size=1, max_size=6))
        vals = _from_gaps(1, [g for run, jump in blocks for g in [1] * run + [jump]])
    elif family == "divisible":
        vals = _from_gaps(draw(st.integers(1, 50)),
                          [d * k for k in draw(st.lists(st.integers(1, 30), max_size=150))])
    else:
        # a gap is either divisible by d or not divisible and above the case-1 cap
        cap = ell // TUNED.window_div
        gaps = draw(st.lists(st.one_of(
            st.integers(1, 30).map(lambda k: d * k),
            st.integers(cap + 1, cap + 60).filter(lambda g: g % d)), max_size=150))
        vals = _from_gaps(draw(st.integers(1, 50)), gaps)
    m = draw(st.integers(max(1, vals[-1] // 4), 4 * vals[-1] + 1))
    n = draw(st.integers(1, 300))
    gain_target = draw(st.none() | st.integers(1, 400))
    return vals, d, ell, m, n, gain_target


@st.composite
def gone_inputs(draw):
    """scan_inputs plus values to be gone: blocks below and above the pool,
    a block inside it and scattered values, so gone elements sit at both
    ends and inside runs, and some are of another class mod d. Returns
    (full pool, gone indices, compacted pool values, d, ell, m, n,
    gain_target); the compacted values are those of scan_inputs."""
    vals, d, ell, m, n, gain_target = draw(scan_inputs())
    lo, hi = vals[0], vals[-1]
    extra = set(range(lo - draw(st.integers(0, min(lo, 6))), lo))
    extra |= set(range(hi + 1, hi + 1 + draw(st.integers(0, 6))))
    x = draw(st.integers(lo, hi))
    extra |= set(range(x, x + draw(st.integers(0, 8))))
    extra |= draw(st.sets(st.integers(lo, hi + 1), max_size=30))
    extra -= set(vals)
    full = S(set(vals) | extra)
    gone = frozenset(i for i, v in enumerate(full.elems) if v in extra)
    return full, gone, vals, d, ell, m, n, gain_target


def _extract_or_exhausted(pool, d, ell, m, n, gain_target, gone=frozenset()):
    """The case and pairs of one round, or "exhausted"; `gone` is a Gone or
    the gone indices."""
    if not isinstance(gone, Gone):
        gone = gone_of(gone)
    try:
        return extract_aug_pairs(pool, d, ell, m, n, TUNED, gain_target, gone)
    except Exhausted:
        return "exhausted"


class TestGapScanMatchesEagerScan:
    # the eager scan is patched in by position, and extract_aug_pairs hands
    # GapScan the gone indices as its sixth argument
    @settings(max_examples=300, deadline=None)
    @given(scan_inputs())
    def test_same_case_and_pairs(self, args):
        vals, d, ell, m, n, gain_target = args
        pool = S(vals)
        lazy = _extract_or_exhausted(pool, d, ell, m, n, gain_target)
        with mock.patch.object(apcert.subsetsum_ap, "GapScan", EagerGapScan):
            eager = _extract_or_exhausted(pool, d, ell, m, n, gain_target)
        assert lazy == eager

    @settings(max_examples=300, deadline=None)
    @given(gone_inputs())
    def test_gone_indices_match_the_compacted_pool(self, args):
        full, gone, vals, d, ell, m, n, gain_target = args
        lazy = _extract_or_exhausted(full, d, ell, m, n, gain_target, gone)
        with mock.patch.object(apcert.subsetsum_ap, "GapScan", EagerGapScan):
            eager = _extract_or_exhausted(S(vals), d, ell, m, n, gain_target)
        assert lazy == eager

    @settings(max_examples=150, deadline=None)
    @given(gone_inputs(), st.randoms(use_true_random=False))
    def test_bisected_run_matches_the_walk_by_steps(self, args, rnd):
        # every alive start, on the set-up state and after each removal
        full, gone, _, d, ell, m, n, _ = args
        scan = GapScan(full.elems, d, ell, gamma_parameter(m, n, ell, TUNED), TUNED,
                       gone_of(gone))
        for _ in range(6):
            alive = [i for i in range(scan.n) if i not in scan.dead]
            for i in alive:
                assert scan._walk_run(i) == walk_run_by_steps(
                    scan._gap, lambda k: scan.nxt.get(k, k + 1), i, d, scan.c2_lo, scan.c2_hi)
            if len(alive) < 2:
                break
            k = rnd.randrange(len(alive) - 1)
            scan.remove_pair(alive[k], alive[k + 1])

    @pytest.mark.parametrize("pool, d, ell, m, n, gain_target, case", [
        (range(1, 2001), 3, 600, 2000, 300, None, 1),
        (range(1, 2001), 1, 800, 2000, 300, 400, 2),
        (range(1, 2001), 1, 800, 2000, 300, None, 2),
        (range(5, 3000, 5), 5, 600, 3000, 200, None, 2),
        ([1, 1000000, 1999999, 2999998], 2, 16, 3 * 10**6, 4, None, None),
        # removing the run (158, 182) changes the gap after 173 from 9 to 86,
        # which puts 173 on the case-2 tail; the walk, on the round's starting
        # state, must not serve it before (259, 265)
        ([158, 171, 173, 182, 259, 265], 6, 53, 978, 121, 1, 2),
    ])
    def test_fixed_cases(self, pool, d, ell, m, n, gain_target, case):
        lazy = _extract_or_exhausted(S(pool), d, ell, m, n, gain_target)
        with mock.patch.object(apcert.subsetsum_ap, "GapScan", EagerGapScan):
            eager = _extract_or_exhausted(S(pool), d, ell, m, n, gain_target)
        assert lazy == eager
        assert (lazy == "exhausted") if case is None else lazy[0] == case


def assert_links_step_over_gone(gone, n):
    """Every index below n that is not gone links to its nearest neighbours
    that are not gone (-1 and n past the ends)."""
    alive = [i for i in range(n) if i not in gone.dead]
    for p, i, q in zip([-1, *alive], alive, [*alive[1:], n]):
        assert (gone.prv.get(i, i - 1), gone.nxt.get(i, i + 1)) == (p, q)


class TestGoneAcrossRounds:
    @settings(max_examples=150, deadline=None)
    @given(gone_inputs(), st.lists(st.tuples(
        st.integers(1, 6), st.integers(8, 600), st.none() | st.integers(1, 400),
        st.integers(0, 4)), min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_kept_links_serve_what_a_fresh_eager_scan_serves(self, args, rounds, rnd):
        """Rounds on one Gone, each using only its first `keep` pairs, as the
        build does: every scan starts from a copy of the kept links and
        leaves them as they were, and serves the pairs of an eager scan
        built fresh from the gone indices of that round."""
        full, gone_idx, _, _, _, m, n, _ = args
        gone = gone_of(rnd.sample(sorted(gone_idx), len(gone_idx)))
        for d, ell, gain_target, keep in rounds:
            assert_links_step_over_gone(gone, len(full))
            before = set(gone.dead), dict(gone.nxt), dict(gone.prv)
            lazy = _extract_or_exhausted(full, d, ell, m, n, gain_target, gone)
            assert (gone.dead, gone.nxt, gone.prv) == before
            with mock.patch.object(apcert.subsetsum_ap, "GapScan", EagerGapScan):
                eager = _extract_or_exhausted(full, d, ell, m, n, gain_target, gone)
            assert lazy == eager
            if lazy != "exhausted":
                for v in itertools.chain.from_iterable(lazy[1][:keep]):
                    gone.unlink(full.elems.index(v))

    @pytest.mark.parametrize("values, ell", [
        (list(range(1, 10001)), 10**4),
        (sorted(random.Random(10000).sample(range(1, 10001), 5000)), 10**4),
        (sorted(random.Random(3).sample(range(1, 30001), 9000)), 30000),
    ], ids=["consecutive", "half", "rand30"])
    def test_build_matches_eager_scans_built_each_round(self, values, ell):
        res = ap_in_subset_sums(values, ell, TUNED, seed=7)
        with mock.patch.object(apcert.subsetsum_ap, "GapScan", EagerGapScan):
            eager = ap_in_subset_sums(values, ell, TUNED, seed=7)
        assert res.rounds >= 10 and (res.ap, res.coreset, res.rounds) == (
            eager.ap, eager.coreset, eager.rounds)
        for j in (0, 1, ell // 2, ell):
            rng = RandomSource(1).derive("q", j)
            assert res.witness.query(j, rng) == eager.witness.query(j, rng)

    def test_links_are_updated_only_for_used_indices(self, monkeypatch):
        # the build unlinks each coreset index once, and each scan only the
        # indices it removes: no set-up pass over the gone indices
        unlinks, removals = [], []
        real_unlink, real_remove = Gone.unlink, GapScan.remove_pair
        monkeypatch.setattr(Gone, "unlink", lambda g, i: unlinks.append(i) or real_unlink(g, i))
        monkeypatch.setattr(GapScan, "remove_pair",
                            lambda sc, i, j: removals.append((i, j)) or real_remove(sc, i, j))
        values = sorted(random.Random(10000).sample(range(1, 10001), 5000))
        res = ap_in_subset_sums(values, 10**4, TUNED, seed=7)
        assert res.rounds >= 10
        assert len(unlinks) == len(res.coreset) + 2 * len(removals)


class CountingRange(Sequence):
    """range(step, step * (n + 1), step) that counts the values read from
    it, one per index and one per element of a slice."""

    def __init__(self, n, step=1):
        self.n = n
        self.step = step
        self.reads = 0

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            idx = range(self.n)[i]
            self.reads += len(idx)
            return tuple(self.step * (k + 1) for k in idx)
        if not 0 <= i < self.n:
            raise IndexError(i)
        self.reads += 1
        return self.step * (i + 1)


class TestGapScanWork:
    def test_reads_scale_with_the_pairs_taken(self):
        # d = 1 over a million consecutive values: each pair walks one run of
        # at most c2_hi unit gaps, and nothing behind the last run is read
        vals = CountingRange(10**6)
        ell, m, n = 800, 1000, 1000
        case, pairs = extract_aug_pairs(SimpleNamespace(elems=vals), 1, ell, m, n, TUNED)
        run = ell // TUNED.window_div
        assert case == 2 and 1 <= len(pairs) <= 20
        assert vals.reads <= 4 * len(pairs) * (run + 2)

    def test_runs_at_d_above_one_read_each_run_once(self):
        # d = 3 over a million multiples of 3, served by pop_case2 alone (a
        # case-1 walk would read every gap): each run's end is one bisect,
        # and its class cut reads the run's values once
        d, ell = 3, 8000
        vals = CountingRange(10**6, d)
        scan = GapScan(vals, d, ell, gamma_parameter(1000, 1000, ell, TUNED), TUNED)
        run = ell // TUNED.window_div
        for _ in range(20):
            i, j = scan.pop_case2()
            assert j - i == run
            scan.remove_pair(i, j)
        assert vals.reads <= 20 * (run + 2 * vals.n.bit_length())

    def test_finished_scan_freed_without_the_cycle_collector(self):
        pool = tuple(range(1, 5001))
        gamma = gamma_parameter(5000, 800, 800, TUNED)
        gc.disable()
        try:
            scan = GapScan(pool, 1, 800, gamma, TUNED)
            i, j = scan.pop_case2()
            scan.remove_pair(i, j)
            assert scan.pop_case1() is None and scan.pop_case2() is not None
            ref = weakref.ref(scan)
            del scan
            assert ref() is None
        finally:
            gc.enable()


class TestResidueLadder:
    def test_rungs_cover_residues(self):
        pairs = tuple((20 * i + 1, 20 * i + 2 + (i % 2)) for i in range(40))
        # gaps alternate 1, 2 -> residues mod 4 are 1 and 2
        ladder = residue_ladder(pairs, 4, TUNED, seed=9)
        d, dp = 4, ladder.dp
        assert 4 % dp == 0 and dp < 4
        base = S(itertools.chain.from_iterable(ladder.bank.pairs))
        for i in range(d // dp):
            q, parts = ladder.lookup(i)
            assert (q - ladder.s_q) % d == (i * dp) % d
            assert sum(v * c for v, c in parts) == q
            vals = [v for v, _ in parts]
            assert len(vals) == len(set(vals))
            assert all(v in base for v in vals)
        # every banked certificate, not only the d/d' rungs, lands on its residue
        bank = ladder.bank
        for i in range(len(bank.certs)):
            assert (bank.flip(i)[0] - bank.ap.start) % d == i * dp % d

    def test_window_is_the_rung_heights(self):
        # gaps 7, 9, 14 leave residues 1, 3, 2 modulo 6; rungs reach height 4
        pairs = tuple((100 * i + 1, 100 * i + 1 + (7, 9, 14)[i % 3]) for i in range(60))
        ladder = residue_ladder(pairs, 6, TUNED, seed=3)
        heights = [(ladder.lookup(i)[0] - ladder.s_q) // 6 for i in range(6 // ladder.dp)]
        assert (ladder.h_min, ladder.h_max) == (min(heights), max(heights)) == (0, 4)
        assert_bank_reserves_its_use(ladder.bank)

    def test_divisible_gap_rejected(self):
        with pytest.raises(PreconditionViolated):
            residue_ladder(((0, 4),), 4, TUNED)

    @pytest.mark.parametrize("pairs, d, seed", [
        (tuple((20 * i + 1, 20 * i + 2 + (i % 2)) for i in range(40)), 4, 9),
        (tuple((100 * i + 1, 100 * i + 1 + (7, 9, 14)[i % 3]) for i in range(60)), 6, 3),
    ], ids=["d4", "d6"])
    def test_layer_resolves_every_outer_index(self, pairs, d, seed):
        ladder = residue_ladder(pairs, d, TUNED, seed=seed)
        inner = ArithProgression(5, d, ladder.h_max - ladder.h_min + 3)
        layer = LadderLayer(inner, ladder)
        endpoints = set(itertools.chain.from_iterable(ladder.bank.pairs))
        for j in range(layer.outer.length + 1):
            inner_j, parts = layer.resolve(j)
            vals = [v for v, c in parts if c == 1]
            assert len(vals) == len(parts) == len(set(vals))
            assert endpoints.issuperset(vals)
            assert 0 <= inner_j <= inner.length
            assert inner.term(inner_j) + sum(vals) == layer.outer.term(j)


class TestExtendOnce:
    def test_growth_and_disjoint_consumption(self):
        pool = S(range(1, 3001))
        p = ArithProgression(50, 1, 64)
        ap, _, used = extend_ap_once(p, pool, 500, 3000, TUNED, gain_target=32, seed=1)
        assert ap.length >= 96
        assert all(v in pool for v in used)

    def test_availability_enforced_under_paper(self):
        pool = S(range(1, 3001))
        p = ArithProgression(50, 1, 64)
        with pytest.raises(PreconditionViolated):
            extend_ap_once(p, pool, 500, 3000, PAPER, gain_target=32)

    def test_availability_counts_only_the_alive_pool(self):
        # n = m = 1, d = 1, ell = 16000: gamma = 5 and the reserve is
        # n + 40000*d*log2(2) + 8000*gamma = 80001, the pool's full length
        pool = S(range(1, 80002))
        p = ArithProgression(0, 1, 16000)
        ap, _, _ = extend_ap_once(p, pool, 1, 1, PAPER, gain_target=1)
        assert ap.length > p.length
        with pytest.raises(PreconditionViolated) as exc:
            extend_ap_once(p, pool, 1, 1, PAPER, gain_target=1, gone=gone_of({0}))
        assert exc.value.name == "aug-availability"


def spy_rounds(monkeypatch, edit=lambda step: step):
    """Record the pool and the gone indices every extend_ap_once call sees
    (a copy, since the build keeps one Gone across rounds), after checking
    that its links step over them, and the values each successful one uses;
    `edit` may change the step it returns."""
    real = apcert.subsetsum_ap.extend_ap_once
    calls = []

    def spy(p, pool, n, m, profile, gain_target, seed, gone):
        assert_links_step_over_gone(gone, len(pool))
        calls.append([pool, frozenset(gone.dead), None])
        step = real(p, pool, n, m, profile, gain_target, seed, gone)
        calls[-1][2] = set(step[2])
        return edit(step)

    monkeypatch.setattr(apcert.subsetsum_ap, "extend_ap_once", spy)
    return calls


class TestPoolShrink:
    @pytest.mark.parametrize("values", [
        list(range(1, 10001)),
        sorted(random.Random(10000).sample(range(1, 10001), 5000)),
    ], ids=["consecutive", "half"])
    def test_each_round_sees_the_filtered_pool(self, monkeypatch, values):
        # every round sees the whole input less its gone indices
        calls = spy_rounds(monkeypatch)
        res = ap_in_subset_sums(values, 10**4, TUNED, seed=7)
        assert sum(used is not None for *_, used in calls) == res.rounds >= 13
        used_all = set().union(*(used for *_, used in calls if used))
        short = set(res.coreset) - used_all
        pool = tuple(v for v in values if v not in short)
        for full, gone, used in calls:
            assert full.elems == tuple(values)
            assert tuple(v for i, v in enumerate(full.elems) if i not in gone) == pool
            if used is not None:
                pool = tuple(v for v in pool if v not in used)
        assert set(values) - set(pool) == set(res.coreset)

    def test_used_value_outside_the_pool_is_a_contract(self, monkeypatch):
        def stray(step):
            ap, layers, used = step
            return ap, layers, S([*used, 10**6])

        spy_rounds(monkeypatch, stray)
        with pytest.raises(InternalContract, match="not in the set"):
            ap_in_subset_sums(list(range(1, 3001)), 3000, TUNED, seed=1)

    def test_used_value_already_gone_is_a_contract(self, monkeypatch):
        # a value of the input that an earlier stage consumed
        def reused(step):
            ap, layers, used = step
            full, gone, _ = calls[-1]
            return ap, layers, S([*used, full.elems[min(gone)]])

        calls = spy_rounds(monkeypatch, reused)
        with pytest.raises(InternalContract, match="not in the set"):
            ap_in_subset_sums(list(range(1, 3001)), 3000, TUNED, seed=1)


class TestFullPipeline:
    def test_toy_sixty(self):
        res = ap_in_subset_sums(list(range(1, 6001)), 60, TUNED, seed=5)
        assert res.ap.length == 60
        for j in range(61):
            sol = res.witness.query(j, RandomSource(j))
            assert verify_solution(res.coreset, sol)
            assert sol.target == res.ap.term(j)
            vals = [v for v, _ in sol.parts]
            assert len(vals) == len(set(vals))

    def test_small_instance_inside_enumerated_sums(self):
        res = ap_in_subset_sums(list(range(1, 241)), 240, TUNED, seed=2)
        tbl = brute_subset_sums(res.coreset, res.ap.last + 1)
        for j in range(res.ap.length + 1):
            assert res.ap.term(j) in tbl

    def test_diff_bound_and_coreset_bound(self):
        rnd = random.Random(7)
        for trial in range(6):
            m = rnd.randint(2000, 8000)
            n = rnd.randint(m // 2, m)
            a = sorted(rnd.sample(range(1, m + 1), n))
            res = ap_in_subset_sums(a, m, TUNED, seed=trial)
            assert res.ap.diff * n <= 7 * m
            assert len(res.coreset) <= coreset_size_bound(m, n, TUNED)

    @pytest.mark.parametrize("m,density", [(10**5, 0.05), (10**5, 0.1), (10**4, 0.2)])
    def test_random_sets_build_across_seeds(self, m, density):
        for s in range(6):
            a = sorted(random.Random(s).sample(range(1, m + 1), int(density * m)))
            res = ap_in_subset_sums(a, m, TUNED, seed=s)
            assert res.ap.length == m
            assert_bank_reserves_its_use(res.witness.leaf)
            for j in (0, m // 2, m):
                sol = res.witness.query(j, RandomSource(j))
                assert verify_solution(res.coreset, sol) and sol.target == res.ap.term(j)

    def test_paper_profile_rejects_desk_scale(self):
        with pytest.raises(PreconditionViolated) as exc:
            ap_in_subset_sums(list(range(1, 6001)), 6000, PAPER)
        assert exc.value.name in ("length-cap", "length-at-least-max")

    def test_positive_elements_required(self):
        with pytest.raises(PreconditionViolated):
            ap_in_subset_sums([0, 1, 2, 3], 3, TUNED)

    def test_seeded_reproducibility(self):
        r1 = ap_in_subset_sums(list(range(1, 3001)), 300, TUNED, seed=9)
        r2 = ap_in_subset_sums(list(range(1, 3001)), 300, TUNED, seed=9)
        assert r1.ap == r2.ap and r1.coreset == r2.coreset
        for j in (0, 150, 300):
            s1 = r1.witness.query(j, RandomSource(3).derive("q", j))
            s2 = r2.witness.query(j, RandomSource(3).derive("q", j))
            assert s1 == s2
