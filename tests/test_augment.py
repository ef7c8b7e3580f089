import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apcert.augment import (
    ApWitness,
    DivPairLayer,
    LadderLayer,
    PairLadder,
    augment_nondiv_pair,
    augment_once,
    augment_to_full,
    find_gap_pairs,
)
from apcert.core import (
    ArithProgression,
    CompactSolution,
    InternalContract,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
)
from apcert.profiles import TUNED
from apcert.subsetsum_ap import PairBank, residue_ladder
from oracle import (
    div_pair_step,
    fold_query_by_merge,
    query_or_message,
    subset_query_by_set,
    verify_solution,
)

S = SortedIntSet.from_iterable
AP = ArithProgression


class FoldLeaf:
    """A fold-mode leaf backed by a precomputed table of parts per term:
    every query gets a fresh value -> count dict."""

    def __init__(self, ap, table):
        self.ap = ap
        self.table = {j: tuple(parts) for j, parts in table.items()}

    def query_parts(self, j, rng):
        return dict(self.table[j])


class FixedLadder:
    """Explicit ladder table for unit tests."""

    def __init__(self, d, dp, s_q, entries, h_min, h_max):
        self.d, self.dp, self.s_q = d, dp, s_q
        self.entries = entries  # i -> (q_i, parts)
        self.h_min, self.h_max = h_min, h_max

    def lookup(self, i):
        return self.entries[i]


class TestPairLadder:
    def test_example_d6_g4(self):
        lad = PairLadder(6, 0, 4)
        assert lad.dp == 2
        q1, parts1 = lad.lookup(1)
        assert q1 == 8 and dict(parts1) == {0: 1, 4: 2}
        q2, parts2 = lad.lookup(2)
        assert q2 == 4

    def test_example_d6_g5(self):
        lad = PairLadder(6, 0, 5)
        assert lad.dp == 1
        q3, _ = lad.lookup(3)
        assert q3 == 15 and q3 % 6 == 3

    def test_example_d2_g1(self):
        lad = PairLadder(2, 1, 1)
        assert lad.dp == 1
        q1, parts = lad.lookup(1)
        assert q1 == 3 and dict(parts) == {1: 1, 2: 1}

    def test_congruences_and_solutions_exhaustive(self):
        for d in range(2, 61):
            for g in range(1, 121):
                if g % d == 0:
                    continue
                for a in range(0, 6):
                    lad = PairLadder(d, a, g)
                    dp = lad.dp
                    assert dp == math.gcd(d, g)
                    for i in range(d // dp):
                        q, parts = lad.lookup(i)
                        assert q % d == (d * a // dp + i * dp) % d
                        assert sum(c for _, c in parts) == d // dp
                        assert sum(v * c for v, c in parts) == q
                        assert all(v in (a, a + g) for v, _ in parts)

    def test_divisible_gap_rejected(self):
        with pytest.raises(PreconditionViolated):
            PairLadder(4, 0, 8)


class TestAugmentByLadder:
    def test_spec_ladder_example(self):
        # d=6 -> d'=2 ladder with entries 0, 8, 4 and heights within [0, 1]
        p = AP(0, 6, 5)
        lad = FixedLadder(
            6, 2, 0,
            {0: (0, ()), 1: (8, ((8, 1),)), 2: (4, ((4, 1),))},
            0, 1,
        )
        layer = LadderLayer(p, lad)
        p2 = layer.outer
        assert (p2.start, p2.diff, p2.length) == (6, 2, 12)
        # term value 8 is index j' = 1: resolves to rung 1 with residual 0
        j_inner, parts = layer.resolve(1)
        assert p.term(j_inner) == 0 and dict(parts) == {8: 1}

    def test_boundary_zero_length(self):
        p = AP(0, 6, 1)
        lad = FixedLadder(6, 2, 0, {0: (0, ()), 1: (8, ()), 2: (4, ())}, 0, 1)
        assert LadderLayer(p, lad).outer.length == 0

    def test_terms_belong_to_p_plus_q_exhaustively(self):
        for d in (4, 6, 8, 9, 12):
            for g in range(1, 2 * d):
                if g % d == 0:
                    continue
                for ell in range(0, 9):
                    for a in (0, 3):
                        lad = PairLadder(d, a, g)
                        p = AP(5, d, ell)
                        if ell < lad.h_max - lad.h_min:
                            continue
                        layer = LadderLayer(p, lad)
                        p2 = layer.outer
                        q_set = {lad.lookup(i)[0] for i in range(d // lad.dp)}
                        p_plus_q = {x + q for x in p.terms() for q in q_set}
                        for j in range(p2.length + 1):
                            assert p2.term(j) in p_plus_q
                            j_in, parts = layer.resolve(j)
                            assert p.term(j_in) + sum(v * c for v, c in parts) == p2.term(j)


class TestAugmentNondivPair:
    def test_example_matches_ladder(self):
        p = AP(0, 6, 5)
        p2 = augment_nondiv_pair(p, 0, 4).outer
        assert (p2.start, p2.diff, p2.length) == (6, 2, 12)

    def test_example_diff_two(self):
        p = AP(0, 2, 10)
        p2 = augment_nondiv_pair(p, 0, 1).outer
        assert p2.diff == 1 and p2.length >= 18
        pset = set(p.terms())
        twofold = {x + y for x in (0, 1) for y in (0, 1)}
        full = {x + q for x in pset for q in twofold}
        assert set(p2.terms()) <= full

    def test_boundary_violation(self):
        with pytest.raises(PreconditionViolated):
            augment_nondiv_pair(AP(0, 6, 0), 0, 4)


class TestAugmentDivPair:
    def test_example_one(self):
        p2 = DivPairLayer(AP(0, 2, 5), 1, 4, 1).outer
        assert (p2.start, p2.diff, p2.length) == (1, 2, 7)
        assert list(p2.terms()) == list(range(1, 16, 2))

    def test_example_two(self):
        p2 = DivPairLayer(AP(0, 1, 10), 0, 10, 3).outer
        assert (p2.start, p2.diff, p2.length) == (0, 1, 40)

    def test_gap_above_span_rejected(self):
        with pytest.raises(PreconditionViolated):
            DivPairLayer(AP(0, 2, 5), 1, 12, 1)

    def test_containment_exhaustive(self):
        for d in range(1, 7):
            for ell in range(1, 9):
                for mult in range(1, max(2, ell + 1)):
                    g = d * mult
                    if g > ell * d:
                        continue
                    for h in range(1, 5):
                        for a in (0, 2):
                            p = AP(3, d, ell)
                            layer = DivPairLayer(p, a, g, h)
                            p2 = layer.outer
                            pair_sums = {
                                a * (h - i) + (a + g) * i for i in range(h + 1)
                            }
                            full = {x + y for x in p.terms() for y in pair_sums}
                            for j in range(p2.length + 1):
                                assert p2.term(j) in full
                                j_in, parts = layer.resolve(j)
                                assert sum(c for _, c in parts) == h
                                assert p.term(j_in) + sum(v * c for v, c in parts) == p2.term(j)


@st.composite
def div_pair_runs(draw, max_h=4):
    """An inner progression and 1-8 divisible-pair steps (a, g, h) on it,
    innermost first, with d in 1..6, d | g, g at most the span and h in
    1..max_h."""
    d = draw(st.integers(1, 6))
    cur = AP(draw(st.integers(0, 20)), d, draw(st.integers(1, 10)))
    inner, steps = cur, []
    for _ in range(draw(st.integers(1, 8))):
        g = d * draw(st.integers(1, min(cur.length, 8)))
        a, h = draw(st.integers(0, 30)), draw(st.integers(1, max_h))
        steps.append((a, g, h))
        cur = DivPairLayer(cur, a, g, h).outer
    return inner, steps


class TestDivPairRunMatchesSteps:
    @settings(max_examples=200, deadline=None)
    @given(div_pair_runs())
    def test_run_matches_chained_steps(self, drawn):
        inner, steps = drawn
        d = inner.diff
        layers, cur = [], inner
        for a, g, h in steps:
            layers.insert(0, DivPairLayer(cur, a, g, h))
            cur = layers[0].outer
        run = layers[0]
        for layer in layers[1:]:
            run = run.join(layer)
        assert (run.inner, run.outer) == (inner, cur)
        # every outer index; each step maps its outer indices onto all of its
        # inner ones, so each step also sees 0, h*g/d - 1, h*g/d and its length
        for j in range(run.outer.length + 1):
            ref_j, ref_parts = j, []
            for a, g, h in reversed(steps):
                ref_j, parts = div_pair_step(d, a, g, h, ref_j)
                ref_parts.extend(parts)
            got_j, got_parts = run.resolve(j)
            assert (got_j, list(got_parts)) == (ref_j, ref_parts)

    @settings(max_examples=200, deadline=None)
    @given(div_pair_runs(max_h=1))
    def test_one_copy_run_flips_match_chained_steps(self, drawn):
        # resolve_flips names, outermost first, the steps whose part is the
        # pair's hi end, and lands on the inner index the steps reach
        inner, steps = drawn
        layers, cur = [], inner
        for a, g, h in steps:
            layers.insert(0, DivPairLayer(cur, a, g, h))
            cur = layers[0].outer
        run = layers[0]
        for layer in layers[1:]:
            run = run.join(layer)
        for j in range(run.outer.length + 1):
            ref_j, ref_flips = j, []
            for i, (a, g, h) in enumerate(reversed(steps)):
                ref_j, ((v, _),) = div_pair_step(inner.diff, a, g, h, ref_j)
                if v == a + g:
                    ref_flips.append(i)
            assert run.resolve_flips(j) == (ref_j, ref_flips)

    def test_join_checks_the_chain(self):
        inner = DivPairLayer(AP(0, 2, 5), 1, 4, 1)
        with pytest.raises(InternalContract):
            DivPairLayer(AP(0, 2, 7), 0, 2, 1).join(inner)

    def test_witness_joins_adjacent_runs_only(self):
        p0 = AP(0, 2, 6)
        first = DivPairLayer(p0, 1, 4, 1)
        lad = LadderLayer(first.outer, PairLadder(2, 0, 1))
        second = DivPairLayer(lad.outer, 0, 2, 2)
        third = DivPairLayer(second.outer, 3, 4, 1)
        leaf = FoldLeaf(p0, {})
        w = ApWitness(leaf, (third, second, lad, first), fold_budget=1)
        assert [type(layer) for layer in w.layers] == [DivPairLayer, LadderLayer, DivPairLayer]
        assert len(w.layers[0].steps) == 2 and w.layers[0].inner == lad.outer
        assert w.layers[2] is first and w.ap == third.outer


class TestFindGapPairs:
    def test_case1_all_unit_gaps(self):
        case, pair1, _ = find_gap_pairs(S(range(0, 17)), 2, 16)
        assert case == 1 and pair1[1] == 1

    def test_case2_divisible_run(self):
        a = S(list(range(0, 15, 2)) + [15])
        case, pair1, (a2, g2) = find_gap_pairs(a, 2, 15)
        assert case == 2
        assert pair1 == (14, 1)
        assert g2 % 2 == 0 and g2 == 14 and a2 == 0

    def test_gcd_guard(self):
        with pytest.raises(PreconditionViolated):
            find_gap_pairs(S([0, 3]), 3, 3)

    def test_case_properties_random(self):
        rnd = random.Random(5)
        for _ in range(300):
            m = rnd.randint(4, 120)
            a = S({0} | set(rnd.sample(range(1, m + 1), rnd.randint(1, min(14, m)))))
            from apcert.core import gcd_all

            if gcd_all(a) != 1:
                continue
            d = rnd.randint(2, 9)
            case, (a1, g1), pair2 = find_gap_pairs(a, d, m)
            assert a1 in a and a1 + g1 in a and g1 % d != 0
            n = len(a)
            if case == 1:
                assert g1 * n <= 4 * m and pair2 is None
            else:
                a2, g2 = pair2
                assert a2 in a and a2 + g2 in a
                assert g2 % d == 0 and g2 <= m
                assert 4 * m * g2 >= n * d * g1


def explicit_witness_over(a, p, budget):
    """Leaf with genuine certificates: term j*diff decomposes into j copies of
    diff plus padding zeros (requires {0, diff} within A and start 0)."""
    table = {}
    for j in range(p.length + 1):
        parts = []
        if j:
            parts.append((p.diff, j))
        if budget - j:
            parts.append((0, budget - j))
        table[j] = tuple(parts)
    return FoldLeaf(p, table)


class TestAugmentOnce:
    def test_dense_example(self):
        a = S(range(0, 17))
        p = AP(0, 6, 20)
        layers, budget = augment_once(a, p, 16)
        p2 = layers[0].outer
        dp = p2.diff
        assert 6 % dp == 0 and dp < 6
        assert p2.length * p2.diff >= 16

    def test_span_precondition(self):
        with pytest.raises(PreconditionViolated):
            augment_once(S(range(0, 17)), AP(0, 6, 2), 16)

    def test_monotonicity_random(self):
        rnd = random.Random(11)
        from apcert.core import gcd_all

        for _ in range(200):
            m = rnd.randint(8, 200)
            a = S({0} | set(rnd.sample(range(1, m + 1), rnd.randint(2, min(20, m)))))
            if gcd_all(a) != 1:
                continue
            d = rnd.choice([2, 3, 4, 6, 8, 12])
            n = len(a)
            ell = ceil_div(5 * m, d) + rnd.randint(0, 30)
            p = AP(rnd.randint(0, 50), d, ell)
            try:
                layers, budget = augment_once(a, p, m)
            except PreconditionViolated:
                continue
            p2 = layers[0].outer
            dp = p2.diff
            assert d % dp == 0 and dp < d
            # span shrinks by at most (4m/n) * (d/dp), exactly rationally
            lhs = Fraction(p2.length * p2.diff)
            rhs = Fraction(p.length * p.diff) - Fraction(4 * m, n) * Fraction(d, dp)
            assert lhs >= rhs
            assert budget == d // dp + ceil_div(4 * m, n * dp)


class TestAugmentToFull:
    def test_fixed_point(self):
        a = S({0, 1, 2, 3})
        p = AP(0, 1, 100)
        p2, layers, budget = augment_to_full(a, p, 3)
        assert p2 == p and layers == () and budget == 0

    def test_initial_size_detail(self):
        with pytest.raises(PreconditionViolated) as exc:
            augment_to_full(S({0, 1, 2, 3}), AP(0, 2, 10), 10)
        assert exc.value.name == "ap-initial-size"
        assert exc.value.detail == "length*min(diff, n) = 20 < 5m = 50"

    def test_dense_single_iteration(self):
        m = 40
        a = S(range(0, m + 1))
        p = AP(0, 2, 5 * m // 2)
        p2, layers, budget = augment_to_full(a, p, m)
        assert p2.diff == 1 and p2.length >= m
        assert len(layers) <= 2

    def test_random_instances_with_certificates(self):
        rnd = random.Random(23)
        from apcert.core import gcd_all

        done = 0
        while done < 12:
            m = rnd.randint(10, 400)
            vals = {0, 1} | set(rnd.sample(range(1, m + 1), rnd.randint(3, min(25, m))))
            a = S(vals)
            if gcd_all(a) != 1:
                continue
            d = rnd.choice([2, 3, 4, 6])
            if d not in a:
                continue
            n = len(a)
            ell = ceil_div(5 * m, min(d, n)) + 1
            p = AP(0, d, ell)
            leaf = explicit_witness_over(a, p, ell)
            p2, layers, budget = augment_to_full(a, p, m)
            assert p2.diff == 1 and p2.length >= m
            w = ApWitness(leaf, layers, fold_budget=ell + budget)
            for j in rnd.sample(range(p2.length + 1), min(25, p2.length + 1)):
                sol = w.query(j, RandomSource(j))
                assert verify_solution(a, sol)
                assert sol.target == p2.term(j)
            done += 1


class TestFoldWitnessCounts:
    def test_distinct_leaf_parts_pass_through(self):
        leaf = FoldLeaf(AP(10, 1, 1), {0: [(7, 1), (3, 1)], 1: [(4, 2), (3, 1)]})
        w = ApWitness(leaf, (), fold_budget=3)
        assert w.query(0, RandomSource(0)).parts == ((3, 1), (7, 1))
        assert w.query(1, RandomSource(0)).parts == ((3, 1), (4, 2))

    def test_layer_part_adds_into_a_leaf_value(self):
        # the layer's low end 3, and past its threshold its high end 7, is
        # also a leaf value: the counts must add up, not overwrite
        leaf = FoldLeaf(AP(10, 1, 4), {0: [(3, 1), (7, 1)], 1: [(3, 1), (8, 1)]})
        w = ApWitness(leaf, (DivPairLayer(leaf.ap, 3, 4, 1),), fold_budget=3)
        assert w.ap == AP(13, 1, 8)
        for j, parts in [(0, ((3, 2), (7, 1))), (1, ((3, 2), (8, 1))),
                         (4, ((3, 1), (7, 2))), (5, ((3, 1), (7, 1), (8, 1)))]:
            sol = w.query(j, RandomSource(j))
            assert (sol.parts, sol.target) == (parts, 13 + j)


def unit_bank(pairs, certs):
    """A PairBank over `pairs`, all of gap g, in the one bucket of reduced
    key 1 (scale g), behind the certificates `certs`, each a tuple of
    (1, count) parts; its progression is {sum of the lo ends} + {0, g, ...}."""
    g = pairs[0][1] - pairs[0][0] if pairs else 1
    base = sum(lo for lo, _ in pairs)
    return PairBank(AP(base, g, len(certs) - 1),
                    tuple(CompactSolution(tuple(c), 0, 2) for c in certs), g, base,
                    tuple(pairs), {1: tuple(range(len(pairs)))}, frozenset({0}))


class TestSubsetWitnessContracts:
    def test_distinct_unit_parts_are_sorted(self):
        # pairs in falling value order; term 1 flips the first, (7, 8)
        w = ApWitness(unit_bank(((7, 8), (2, 3)), ((), ((1, 1),))))
        sol = w.query(1, RandomSource(0))
        assert sol.parts == ((2, 1), (8, 1))
        assert (sol.target, sol.fold_budget) == (10, 0)

    def test_empty_parts_give_an_empty_certificate(self):
        sol = ApWitness(unit_bank((), ((),))).query(0, RandomSource(0))
        assert (sol.parts, sol.target, sol.fold_budget) == ((), 0, 0)

    def test_shared_end_fails_at_set_up(self):
        # the run's pair (3, 4) shares the end 3 with the leaf's pair (2, 3)
        leaf = unit_bank(((2, 3), (7, 8)), ((), ((1, 1),)))
        with pytest.raises(InternalContract) as exc:
            ApWitness(leaf, (DivPairLayer(leaf.ap, 3, 1, 1),))
        assert str(exc.value) == "subset-sum pair ends must be distinct"

    def test_two_copy_run_step_fails_at_set_up(self):
        leaf = unit_bank(((1, 3), (5, 7)), ((), ((1, 1),), ((1, 2),)))
        with pytest.raises(InternalContract) as exc:
            ApWitness(leaf, (DivPairLayer(leaf.ap, 20, 2, 2),))
        assert str(exc.value) == "subset-sum run steps take one copy of their pair"

    def test_colliding_flip_trips_the_popcount(self):
        # the leaf's hi end of pair 0 is ranked onto the lo end of pair 1:
        # flipping pair 0 sets a byte that is already set
        w = ApWitness(unit_bank(((2, 3), (7, 8)), ((), ((1, 1),))))
        (leaf, lo, hi), = w.sources
        w.sources = ((leaf, lo, (lo[1], hi[1])),)
        assert w.query(0, RandomSource(0)).parts == ((2, 1), (7, 1))
        with pytest.raises(InternalContract) as exc:
            w.query(1, RandomSource(0))
        assert str(exc.value) == "flips must keep one end of every pair"

    @pytest.mark.parametrize("term, message", [
        # the certificate of term 1 names key 1 twice: its gains add up to
        # two flips, but the progression's term 1 is one flip above the base
        (1, "flipped gaps must reproduce the inner target"),
        # at term 2 the gains match, but pair 0 flips twice, so only once
        (2, "certificate sums to 10, wanted 11"),
    ], ids=["bank-total", "sum"])
    def test_repeated_flip_trips_a_total(self, term, message):
        leaf = unit_bank(((2, 3), (7, 8)), ((), ((1, 1), (1, 1)), ((1, 1), (1, 1))))
        with pytest.raises(InternalContract) as exc:
            ApWitness(leaf).query(term, RandomSource(0))
        assert str(exc.value) == message

    def test_fold_sum_mismatch_message(self):
        leaf = FoldLeaf(AP(30, 1, 0), {0: [(4, 2), (9, 1)]})
        with pytest.raises(InternalContract) as exc:
            ApWitness(leaf, (), fold_budget=3).query(0, RandomSource(0))
        assert str(exc.value) == "certificate sums to 17, wanted 30"


@st.composite
def subset_stacks(draw):
    """(leaf, layers, ends) of a subset-mode witness. The leaf is a pair
    bank over 0-6 pairs of gap d (d in 1..3) in shuffled order, so their lo
    ends are not in value order; the certificate of term j flips j of them,
    or sometimes one too many or too few, or names the key twice (a
    repeated flip), so some queries break the bank's total or the
    certificate's sum. On it sit 1-4 layers, innermost first: a one-copy
    run step whose pair has ends below 200, so it may share an end with the
    leaf or another step, or, while the difference is above 1, a residue
    ladder over 2d pairs of one gap, 1 or d+1, with ends of at least 1000.
    `ends` lists the ends of every pair, from the draw."""
    d = draw(st.integers(1, 3))
    xs = draw(st.lists(st.integers(0, 29), max_size=6, unique=True))
    pairs = [(2 * d * x + 1, 2 * d * x + 1 + d) for x in xs]
    certs = []
    for j in range(len(pairs) + 1):
        fault = draw(st.sampled_from([None] * 6 + ["off", "repeat"]))
        if fault == "off":
            certs.append(((1, j + 1),) if j < len(pairs) else ((1, j - 1),))
        elif fault == "repeat" and j >= 2:
            a = draw(st.integers(1, j - 1))
            certs.append(((1, a), (1, j - a)))
        else:
            certs.append(((1, j),) if j else ())
    leaf = unit_bank(tuple(draw(st.permutations(pairs))), certs)
    ends = [v for pair in pairs for v in pair]
    layers, p = [], leaf.ap
    for n in range(draw(st.integers(1, 4))):
        if p.diff > 1 and draw(st.booleans()):
            r = draw(st.sampled_from([1, p.diff + 1]))
            rungs = tuple((1000 * (n + 1) + 10 * i, 1000 * (n + 1) + 10 * i + r)
                          for i in range(2 * p.diff))
            ladder = residue_ladder(rungs, p.diff, TUNED, draw(st.integers(0, 3)))
            if p.length < ladder.h_max - ladder.h_min:
                continue
            layer = LadderLayer(p, ladder)
            ends += [v for pair in ladder.bank.pairs for v in pair]
        else:
            g = p.diff * draw(st.integers(1, max(1, p.length)))
            if g > p.length * p.diff:
                continue
            a = draw(st.integers(1, 199))
            layer = DivPairLayer(p, a, g, 1)
            ends += [a, a + g]
        layers.insert(0, layer)
        p = layer.outer
    return leaf, layers, ends


class TestSubsetAssemblyMatchesReference:
    """The subset-sum query, which patches a copy of the lo-end mask at the
    pairs its sources flip, against the step-by-step and flip-by-flip query
    of tests/oracle.py."""

    @settings(max_examples=300, deadline=None)
    @given(subset_stacks())
    @example((unit_bank(((7, 8), (2, 3)), ((), ((1, 1),))), [], [7, 8, 2, 3]))
    def test_drawn_stacks(self, drawn):
        leaf, layers, ends = drawn
        if len(set(ends)) < len(ends):
            with pytest.raises(InternalContract) as exc:
                ApWitness(leaf, layers)
            assert str(exc.value) == "subset-sum pair ends must be distinct"
            return
        witness = ApWitness(leaf, layers)
        assert witness.ends == tuple(sorted(ends))
        for j in range(witness.ap.length + 1):
            assert (query_or_message(ApWitness.query, witness, j)
                    == query_or_message(subset_query_by_set, witness, j)), j


@st.composite
def fold_stacks(draw):
    """A fold-mode witness: 1-4 layers, each a DivPairLayer (h copies of a
    pair) or, while the difference is above 1, a pair-ladder LadderLayer, on
    a FoldLeaf. A leaf term's counts are a few values below 13 plus the one
    value that makes them sum to the term, sometimes off by one; the layers'
    pair values are drawn below 13 too, so they often add into a leaf value."""
    d = draw(st.integers(1, 6))
    leaf_ap = AP(draw(st.integers(150, 250)), d, draw(st.integers(4, 12)))
    table = {}
    for j in range(leaf_ap.length + 1):
        counts = draw(st.dictionaries(st.integers(0, 12), st.integers(1, 3), max_size=4))
        rest = leaf_ap.term(j) - sum(v * c for v, c in counts.items())
        counts[rest + draw(st.sampled_from([0] * 8 + [-1, 1]))] = 1
        table[j] = tuple(counts.items())
    layers, p = [], leaf_ap
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, 12))
        if p.diff > 1 and draw(st.booleans()):
            g = draw(st.integers(1, 2 * p.diff).filter(lambda g: g % p.diff))
            if p.length < g:
                continue
            layer = augment_nondiv_pair(p, a, g)
        else:
            layer = DivPairLayer(p, a, p.diff * draw(st.integers(1, p.length)),
                                 draw(st.integers(1, 3)))
        layers.insert(0, layer)
        p = layer.outer
    return ApWitness(FoldLeaf(leaf_ap, table), layers, fold_budget=draw(st.integers(1, 60)))


class TestFoldAssemblyMatchesReference:
    """The fold-mode query, which adds the layers' parts into the dict the
    leaf hands over, against the merge into a new dict of tests/oracle.py."""

    @settings(max_examples=300, deadline=None)
    @given(fold_stacks())
    def test_drawn_stacks(self, witness):
        for j in range(witness.ap.length + 1):
            assert (query_or_message(ApWitness.query, witness, j)
                    == query_or_message(fold_query_by_merge, witness, j)), j
