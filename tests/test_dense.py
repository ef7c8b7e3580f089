import dataclasses
import math
import random

import pytest

from apcert import dense
from apcert.core import (
    CompactSolution,
    InternalContract,
    OutOfRegion,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
)
from apcert.dense import (
    BULK_BLOCK,
    block_sums,
    build_rpg,
    dense_decide,
    dense_search,
    find_gamma,
    greedy_fill,
    modular_subset_sum,
    prime_factors,
    residue_table,
    walk_residue_table,
)
from apcert.profiles import PAPER, TUNED
from apcert.subsetsum_ap import SubsetWitness
from oracle import block_plus_sparse, brute_subset_sums

S = SortedIntSet.from_iterable


def multiples_plus_top(q, n, k):
    """The n multiples of q up to q*n and the k smallest non-multiples above."""
    top = [v for v in range(q * n + 1, q * n + 4 * k) if v % q][:k]
    return list(range(q, q * n + 1, q)) + top


class TestFactorize:
    def test_examples(self):
        assert prime_factors(12) == [2, 2, 3]
        assert prime_factors(1) == []
        assert prime_factors(97) == [97]

    def test_factor_consistency(self):
        for v in range(1, 1001):
            fs = prime_factors(v)
            assert math.prod(fs) == v
            assert fs == sorted(fs)
            assert all(all(p % q for q in range(2, p)) for p in fs)


class TestFindGamma:
    def test_all_even(self):
        g, reduced = find_gamma(S(2 * x for x in range(1, 501)), TUNED)
        assert g % 2 == 0
        assert reduced.max <= 500

    def test_no_almost_divisor(self):
        g, reduced = find_gamma(S(range(1, 1001)), TUNED)
        assert g == 1 and len(reduced) == 1000

    def test_gamma_size_bound(self):
        a = S(6 * x for x in range(1, 301))
        g, _ = find_gamma(a, TUNED)
        n, sigma = len(a), sum(a.elems)
        assert g * n * n <= 4 * sigma

    def test_divisibility_counts_drive_choice(self):
        # 500 multiples of 3 and two strays: 3 is an almost divisor
        vals = {3 * x for x in range(1, 501)} | {7, 11}
        g, reduced = find_gamma(S(vals), TUNED)
        assert g % 3 == 0
        assert all(v % 3 for v in (7, 11))  # strays dropped, not divided

    def test_max_beyond_ten_million(self):
        g, reduced = find_gamma(S(list(range(1, 1001)) + [2 * 10**7]), TUNED)
        assert g == 1 and len(reduced) == 1001
        g, reduced = find_gamma(S([3 * x for x in range(1, 1001)] + [3 * 10**7 + 3]), TUNED)
        assert g == 3 and reduced.max == 10**7 + 1

    def test_matches_scan_over_all_primes(self):
        def reference(vals):
            # smallest prime dividing some element that misses at most tau
            gamma = 1
            while True:
                tau = TUNED.alpha_c * sum(vals) // len(vals) ** 2
                primes = sorted({p for v in vals for p in prime_factors(v)})
                hit = next((p for p in primes if sum(v % p != 0 for v in vals) <= tau), None)
                if hit is None:
                    return gamma, vals
                vals = [v // hit for v in vals if v % hit == 0]
                gamma *= hit

        # delta-dense inputs (N^2 >= delta*m), as build_rpg admits them
        rnd = random.Random(11)
        n = 2000
        for scale in (1, 2, 3, 4, 5, 6, 10, 12, 15):
            vals = rnd.sample(range(1, n + n // 4), n - 3)
            strays = rnd.sample(range(1, scale * n), 3)
            a = S([scale * v for v in vals] + strays)
            g, reduced = find_gamma(a, TUNED)
            assert (g, list(reduced.elems)) == reference(list(a.elems))

    def _refused_like_build(self, a):
        with pytest.raises(PreconditionViolated) as got:
            find_gamma(a, TUNED)
        with pytest.raises(PreconditionViolated) as want:
            build_rpg(a, TUNED)
        assert got.value.name == want.value.name == "delta-dense"
        assert got.value.detail == want.value.detail

    def test_not_delta_dense_is_refused_by_name(self):
        # 2 strips four times: gamma = 16, above 4*Sigma/N^2 = 6.6
        self._refused_like_build(SortedIntSet((2, 9, 10, 13, 14, 16, 17, 24)))

    def test_sparse_multiples_of_49_are_refused_by_name(self):
        # after 49, the factor 2 strips again and again: gamma reaches
        # 11776 to 50176, where 4*Sigma/N^2 is below 300
        for seed in range(6):
            rnd = random.Random(seed)
            vals = {49 * v for v in rnd.sample(range(1, 1201), 400)}
            strays = rnd.sample(range(1, 49 * 1200), 5)
            self._refused_like_build(S(vals | set(strays)))


class TestModularSubsetSum:
    def test_examples(self):
        assert sorted(modular_subset_sum([3, 5], 4, 0)) == []
        assert modular_subset_sum([3, 5], 4, 3) == [3]
        assert modular_subset_sum([3, 5], 4, 0) == []
        assert modular_subset_sum([2], 4, 1) is None

    def test_unreachable_residue(self):
        # subsets of {3, 5} hit residues {0, 1, 3} mod 4 only
        assert modular_subset_sum([3, 5], 4, 2) is None

    def test_exhaustive_small(self):
        import itertools

        rnd = random.Random(0)
        for _ in range(40):
            vals = rnd.sample(range(1, 30), rnd.randint(1, 8))
            g = rnd.randint(1, 9)
            reachable = {
                sum(c) % g for r in range(len(vals) + 1)
                for c in itertools.combinations(vals, r)
            }
            for r in range(g):
                got = modular_subset_sum(vals, g, r)
                assert (got is not None) == (r in reachable)
                if got is not None:
                    assert sum(got) % g == r % g
                    assert len(set(got)) == len(got)
                    assert all(v in vals for v in got)
            assert table_residues(residue_table(vals, g)) == reachable


def descending_scan(elems, upper):
    """Take each element, largest first, that still fits under upper."""
    taken, acc = [], 0
    for v in reversed(elems):
        if acc + v <= upper:
            acc += v
            taken.append(v)
        if acc == upper:
            break
    return taken, acc


class TestGreedyFill:
    def _check(self, elems, upper):
        got, acc = greedy_fill(elems, block_sums(elems), upper)
        want, want_acc = descending_scan(elems, upper)
        assert (sorted(got), acc) == (sorted(want), want_acc)
        assert len(set(got)) == len(got) and sum(got) == acc

    def test_block_sums(self):
        elems = tuple(range(1, 200))
        assert block_sums(elems) == (
            sum(elems[-BULK_BLOCK:]), sum(elems[-2 * BULK_BLOCK:]), sum(elems[-3 * BULK_BLOCK:]))
        assert block_sums(elems[:BULK_BLOCK - 1]) == ()

    def test_edge_targets(self):
        rnd = random.Random(21)
        for size in (BULK_BLOCK - 1, 1000, 4 * BULK_BLOCK):
            elems = tuple(sorted(rnd.sample(range(1, 5 * size), size)))
            blocks = block_sums(elems)
            total = sum(elems)
            uppers = [0, elems[0] - 1, elems[0], total - 1, total, total + 7]
            for k in (BULK_BLOCK, 2 * BULK_BLOCK):
                if k < size:
                    uppers += [blocks[k // BULK_BLOCK - 1] + e for e in (-1, 0, 1)]
            for upper in uppers:
                self._check(elems, upper)

    def test_seeded_bulks(self):
        rnd = random.Random(22)
        for _ in range(30):
            size = rnd.randint(1, 700)
            elems = tuple(sorted(rnd.sample(range(1, rnd.randint(size + 1, 8 * size + 2)), size)))
            for _ in range(40):
                self._check(elems, rnd.randint(0, sum(elems) + 5))

    @pytest.mark.parametrize("container", [tuple, list])
    def test_taken_is_a_fresh_list(self, container):
        # dense_search extends the list in place, so it must not be the bulk
        elems = container(range(1, 3 * BULK_BLOCK))
        before = tuple(elems)
        blocks = block_sums(elems)
        for upper in (0, sum(elems[-BULK_BLOCK:]) + 5, sum(elems)):
            taken, _ = greedy_fill(elems, blocks, upper)
            again, _ = greedy_fill(elems, blocks, upper)
            assert type(taken) is list and taken is not elems and taken is not again
            taken += [0] * 5
            taken[:] = taken[::-1]
            assert tuple(elems) == before
            assert greedy_fill(elems, blocks, upper)[0] == again


def table_residues(table):
    """The residues a predecessor table reaches: 0 and every entry set."""
    return {r for r, hit in enumerate(table) if r == 0 or hit is not None}


def early_exit_dp(values, modulus, r):
    """Reference: the DP that stops once it reaches r, then walks back."""
    r %= modulus
    if modulus == 1 or r == 0:
        return []
    pred = [None] * modulus
    reached = bytearray(modulus)
    reached[0] = 1
    frontier = [0]
    for idx, v in enumerate(values):
        vm = v % modulus
        if vm == 0:
            continue
        new = []
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
    out = []
    cur = r
    while pred[cur] is not None:
        idx, cur = pred[cur]
        out.append(values[idx])
    return out


class TestResidueTables:
    @pytest.mark.parametrize("q, k, gamma", [(2, 4, 2), (3, 6, 3), (6, 16, 6), (6, 20, 2)])
    def test_gamma_table_walks_match_the_dp(self, q, k, gamma):
        d = build_rpg(multiples_plus_top(q, 1200, k), TUNED, seed=0)
        assert d.gamma == gamma
        outside = [v for v in d.original if v % gamma]
        assert outside
        reachable = set()
        for r in range(gamma):
            walk = walk_residue_table(d.y_table, r)
            assert walk == early_exit_dp(outside, gamma, r)
            if walk is not None:
                # a walk visits distinct nonzero residues, so it never has
                # as many elements as the modulus
                assert len(walk) < gamma
                reachable.add(r)
        bits = {r for r in range(gamma) if d.residue_bits >> r & 1}
        assert bits == table_residues(d.y_table) == reachable

    @pytest.mark.parametrize("q, k, diff", [(5, 12, 5), (6, 20, 3)])
    def test_diff_table_walks_match_the_dp(self, q, k, diff):
        d = build_rpg(multiples_plus_top(q, 1200, k), TUNED, seed=0)
        assert d.progression.ap.diff == diff
        for r in range(diff):
            got = walk_residue_table(d.r_table, r)
            assert got is not None
            assert got == early_exit_dp(d.remainder.elems, diff, r)
            assert len(got) < diff


class TestDecideIsConstantTime:
    def test_decide_reads_no_input_set(self):
        d = build_rpg([2 * x for x in range(1, 441)], TUNED, seed=2)
        bare = dataclasses.replace(d, original=None, reduced=None, bulk=None)
        lo, hi = d.region()
        rnd = random.Random(8)
        answers = set()
        for t in [lo, hi] + [rnd.randint(lo, hi) for _ in range(200)]:
            answers.add(dense_decide(d, t))
            assert dense_decide(bare, t) == dense_decide(d, t)
        assert answers == {True, False}
        for t in (lo - 1, hi + 1):
            with pytest.raises(OutOfRegion) as want:
                dense_decide(d, t)
            with pytest.raises(OutOfRegion) as got:
                dense_decide(bare, t)
            assert str(got.value) == str(want.value)


class TestBuildDecomposition:
    def test_consecutive(self):
        d = build_rpg(list(range(1, 601)), TUNED, seed=3)
        assert d.gamma == 1
        sigma1 = sum(d.reduced.elems)
        assert 2 * sum(d.bulk.elems) >= sigma1
        # the progression really sits inside the subset sums of its coreset
        tbl = brute_subset_sums(d.progression.coreset, d.progression.ap.last + 1)
        for j in range(0, d.progression.ap.length + 1, 37):
            assert d.progression.ap.term(j) in tbl

    @pytest.mark.parametrize("values", [range(1, 601), range(2, 10001, 2)])
    def test_bulk_is_the_reduced_set_less_remainder_and_coreset(self, values):
        d = build_rpg(list(values), TUNED, seed=3)
        drop = set(d.remainder) | set(d.progression.coreset)
        assert d.bulk.elems == tuple(v for v in d.reduced if v not in drop)
        assert not set(d.remainder) & set(d.progression.coreset)

    def test_remainder_covers_small_moduli(self):
        d = build_rpg(list(range(1, 601)), TUNED, seed=3)
        # the remainder set keeps enough non-multiples of every small modulus
        tau_bound = (TUNED.alpha_c * sum(d.reduced.elems)) / len(d.reduced) ** 2
        for q in range(2, min(201, int(tau_bound) + 1)):
            non_mult = sum(1 for v in d.remainder if v % q)
            assert non_mult >= q

    def test_multiset_rejected(self):
        with pytest.raises(PreconditionViolated) as exc:
            build_rpg([4, 4, 5, 6], TUNED)
        assert exc.value.name == "set-input"

    def test_sparse_rejected(self):
        with pytest.raises(PreconditionViolated) as exc:
            build_rpg([1, 10**6], TUNED)
        assert exc.value.name == "delta-dense"

    def test_paper_profile_rejects_desk_scale(self):
        with pytest.raises(PreconditionViolated) as exc:
            build_rpg(list(range(1, 601)), PAPER)
        assert exc.value.name == "delta-dense"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_empty_region_refused_by_name(self, seed):
        # a block [1..5000] plus sparse values clears the tuned density bar,
        # but lo's published term then lies above hi = Sigma/2
        values = block_plus_sparse(seed)
        with pytest.raises(PreconditionViolated) as exc:
            build_rpg(values, TUNED, seed=0)
        assert exc.value.name == "region-nonempty"


class TestDecideSearch:
    def setup_method(self):
        self.decomp = build_rpg(list(range(1, 501)), TUNED, seed=1)
        lo, hi = self.decomp.region()
        self.lo, self.hi = lo, hi
        self.table = brute_subset_sums(self.decomp.original, hi + 1)

    def test_gamma_one_always_yes_in_region(self):
        assert self.decomp.gamma == 1
        rnd = random.Random(0)
        for _ in range(50):
            t = rnd.randint(self.lo, self.hi)
            assert dense_decide(self.decomp, t)

    def test_agreement_and_search(self):
        rng = RandomSource(4)
        rnd = random.Random(4)
        for _ in range(60):
            t = rnd.randint(self.lo, self.hi)
            dec = dense_decide(self.decomp, t)
            assert dec == (t in self.table)
            if dec:
                sol = dense_search(self.decomp, t, rng)
                assert sum(sol) == t
                assert len(set(sol)) == len(sol)
                assert all(v in self.decomp.original for v in sol)

    def test_search_queries_with_the_callers_rng(self, monkeypatch):
        seen = []
        query = SubsetWitness.query

        def spy(self, j, rng):
            seen.append(rng)
            return query(self, j, rng)

        monkeypatch.setattr(SubsetWitness, "query", spy)
        rng = RandomSource(11)
        t = (self.lo + self.hi) // 2
        assert sum(dense_search(self.decomp, t, rng)) == t
        assert seen[0] is rng

    def test_boundary_targets(self):
        rng = RandomSource(5)
        for t in (self.lo, self.hi):
            if dense_decide(self.decomp, t):
                sol = dense_search(self.decomp, t, rng)
                assert sum(sol) == t

    def test_out_of_region(self):
        with pytest.raises(OutOfRegion):
            dense_decide(self.decomp, self.hi + 1)
        with pytest.raises(OutOfRegion):
            dense_decide(self.decomp, self.lo - 1)


class TestLargeInstance:
    def test_half_sum_target_on_four_thousand(self):
        # too large for the DP oracle; the summation audit is the check
        a = list(range(1, 4001))
        d = build_rpg(a, TUNED, seed=7)
        assert d.gamma == 1
        lo, hi = d.region()
        t = sum(a) // 2
        assert lo <= t <= hi
        assert dense_decide(d, t)
        sol = dense_search(d, t, RandomSource(7))
        assert sum(sol) == t
        assert len(set(sol)) == len(sol)
        assert all(v in d.original for v in sol)


class TestGammaAboveOne:
    def test_even_set(self):
        a = [2 * x for x in range(1, 441)]
        d = build_rpg(a, TUNED, seed=2)
        assert d.gamma == 2
        lo, hi = d.region()
        table = brute_subset_sums(d.original, hi + 1)
        rng = RandomSource(6)
        rnd = random.Random(6)
        yes = no = 0
        for _ in range(60):
            t = rnd.randint(lo, hi)
            dec = dense_decide(d, t)
            assert dec == (t in table)
            if dec:
                sol = dense_search(d, t, rng)
                assert sum(sol) == t and len(set(sol)) == len(sol)
                yes += 1
            else:
                no += 1
        assert yes and no  # odd targets are refused, even ones solved


def strays_decomposition():
    """gamma 2 with three odd strays: near hi the reduced target flips."""
    return build_rpg([3] + [2 * x for x in range(1, 441)] + [439, 879], TUNED, seed=2)


def reduced_target(d, t):
    y = walk_residue_table(d.y_table, t)
    return (t - sum(y)) // d.gamma


def search_cases():
    """(name, decomposition, yes targets) for gamma 1 and 2 without a flip
    and for flipped targets."""
    out = []
    for name, d, flip in (
        ("gamma1", build_rpg(list(range(1, 501)), TUNED, seed=1), False),
        ("gamma2", build_rpg([2 * x for x in range(1, 441)], TUNED, seed=2), False),
        ("flip", strays_decomposition(), True),
    ):
        lo, hi = d.region()
        rnd = random.Random(5)
        targets = []
        while len(targets) < 5:
            t = rnd.randint(hi - 600, hi) if flip else rnd.randint(lo, hi)
            if dense_decide(d, t) and (2 * reduced_target(d, t) > d.reduced_sum) == flip:
                targets.append(t)
        out.append((name, d, targets))
    return out


SEARCH_CASES = search_cases()
CASE = {name: (name, d, targets) for name, d, targets in SEARCH_CASES}


def expect_contract(d, targets, match):
    for t in targets:
        with pytest.raises(InternalContract, match=match):
            dense_search(d, t, RandomSource(3))


@pytest.mark.parametrize("name, d, targets", SEARCH_CASES, ids=list(CASE))
class TestSearchContracts:
    """Faults injected into the search must trip a contract, not return a
    wrong subset."""

    def test_unfaulted_search_succeeds(self, name, d, targets):
        for t in targets:
            got = dense_search(d, t, RandomSource(3))
            assert sum(got) == t and got == sorted(set(got))

    def test_greedy_repeating_an_element(self, name, d, targets, monkeypatch):
        fill = dense.greedy_fill

        def twice(elems, blocks, upper):
            taken, acc = fill(elems, blocks, upper)
            return taken + taken[:1], acc

        monkeypatch.setattr(dense, "greedy_fill", twice)
        expect_contract(d, targets, "^reduced subset repeats an element$")

    def test_wrong_diff_table_walk(self, name, d, targets, monkeypatch):
        # the extra value is the bulk's largest, which the greedy prefix
        # always takes: a repeat, or a progression index pushed below 0
        walk = dense.walk_residue_table

        def wrong(table, r):
            out = walk(table, r)
            return out + [d.bulk.max] if table is d.r_table else out

        monkeypatch.setattr(dense, "walk_residue_table", wrong)
        expect_contract(d, targets, "out of range|repeats an element")

    def test_witness_part_off_by_one(self, name, d, targets, monkeypatch):
        query = SubsetWitness.query

        def off_by_one(self, j, rng):
            sol = query(self, j, rng)
            (v, c), rest = sol.parts[-1], sol.parts[:-1]
            return CompactSolution(rest + ((v + 1, c),), sol.target, sol.fold_budget)

        monkeypatch.setattr(SubsetWitness, "query", off_by_one)
        expect_contract(d, targets, "^reduced subset misses its target$")

    def test_progression_index_past_the_end(self, name, d, targets, monkeypatch):
        # the progression cut one term below the index a search lands on:
        # the contract names that index
        query, seen = SubsetWitness.query, []

        def spy(self, j, rng):
            seen.append(j)
            return query(self, j, rng)

        monkeypatch.setattr(SubsetWitness, "query", spy)
        for t in targets:
            dense_search(d, t, RandomSource(3))
        assert any(seen)
        for t, j in zip(targets, seen):
            if not j:
                continue
            ap = d.progression.ap.truncate(j - 1)
            cut = dataclasses.replace(d, progression=dataclasses.replace(d.progression, ap=ap))
            with pytest.raises(InternalContract) as exc:
                dense_search(cut, t, RandomSource(3))
            assert str(exc.value) == f"progression index {j} out of range"


@pytest.mark.parametrize("name, d, targets", [CASE["gamma1"], CASE["gamma2"]],
                         ids=["gamma1", "gamma2"])
def test_y_repeating_a_bulk_element(name, d, targets, monkeypatch):
    # Y takes gamma times the bulk's largest element, which the greedy prefix
    # takes again; with gamma 1 this also leaves Y nonempty. Without a flip
    # only the assembled answer shows the repeat.
    walk = dense.walk_residue_table

    def with_bulk(table, r):
        out = walk(table, r)
        return out + [d.gamma * d.bulk.max] if table is d.y_table else out

    monkeypatch.setattr(dense, "walk_residue_table", with_bulk)
    expect_contract(d, targets, "^assembled subset repeats an element$")


@pytest.mark.parametrize("name, d, targets", [CASE["gamma2"], CASE["flip"]],
                         ids=["gamma2", "flip"])
def test_scaling_off_by_one(name, d, targets):
    class OffByOne(int):
        def __mul__(self, v):
            return int(self) * v + 1

    bad = dataclasses.replace(d, gamma=OffByOne(d.gamma))
    expect_contract(bad, targets, "^assembled subset misses the target$")


def test_recorded_reduced_sum_off_by_one():
    # only a flipped target takes the complement, whose sum this breaks
    _, d, targets = CASE["flip"]
    bad = dataclasses.replace(d, reduced_sum=d.reduced_sum + 1)
    expect_contract(bad, targets, "^reduced-world subset misses its target$")


class TestFlipBranch:
    def test_flipped_targets_take_the_complement(self, monkeypatch):
        d = strays_decomposition()
        assert d.gamma == 2
        lo, hi = d.region()
        members = set(d.original.elems)
        table = brute_subset_sums(d.original, hi + 1)
        seen = []
        search = dense._search_reduced

        def spy(decomp, z, rng):
            seen.append(z)
            return search(decomp, z, rng)

        monkeypatch.setattr(dense, "_search_reduced", spy)
        flipped = 0
        for t in range(hi - 600, hi + 1, 7):
            if not dense_decide(d, t):
                continue
            assert t in table
            z = reduced_target(d, t)
            flip = 2 * z > d.reduced_sum
            flipped += flip
            got = dense_search(d, t, RandomSource(t))
            assert seen.pop() == (d.reduced_sum - z if flip else z)
            assert sum(got) == t and len(set(got)) == len(got)
            assert set(got) <= members
        assert flipped >= 20
