import collections
import functools
import importlib.util
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcert import sumset_ap
from apcert.augment import ApWitness, DivPairLayer, LadderLayer
from apcert.core import (
    CompactSolution,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ceil_div,
    gcd_all,
)
from apcert.sumset_ap import (
    Side,
    ap_in_kfold_sumset,
    ap_restricted,
    ap_short,
    find_dense_endpoint,
)
from oracle import (
    brute_kfold,
    closest_pair_lift,
    fold_query_by_merge,
    merge_counts,
    query_or_message,
    restricted_pairs,
    total_count,
    verify_solution,
)

S = SortedIntSet.from_iterable

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).resolve().parent / "golden" / "corpus.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)
GOLDEN_KFOLD_BUILDS = [c for c in corpus.LIBRARY_CASES if c[1] == "ap-sumset"]


@functools.lru_cache(maxsize=None)
def golden_witness(inp, m, k):
    """The witness of a golden k-fold build, built once per test run."""
    return corpus.build_witness("ap-sumset", inp, m, k)


def endpoint_quantifier_holds(a, m, k, u, side):
    """Direct check of the one-sided density condition."""
    if side is Side.LEFT:
        if not (-1 <= u and 2 * u <= m):
            return False
        return all(
            2 * k * a.count_range(u + 1, v) >= v - u for v in range(u + 1, m + 1)
        )
    if not m <= 2 * u <= 2 * (m + 1):
        return False
    return all(2 * k * a.count_range(v, u - 1) >= u - v for v in range(0, u))


class TestFindDenseEndpoint:
    def test_examples(self):
        assert find_dense_endpoint(S([0, 1, 2, 3]), 3, 1) == (-1, Side.LEFT)
        assert find_dense_endpoint(S([0, 1]), 1, 1) == (-1, Side.LEFT)
        assert find_dense_endpoint(S([2, 3]), 3, 2) == (1, Side.LEFT)

    def test_right_side_instances(self):
        # mass near the top forces the mirrored case
        a = S([0, 8, 9, 10])
        u, side = find_dense_endpoint(a, 10, 3)
        assert endpoint_quantifier_holds(a, 10, 3, u, side)

    def test_cardinality_precondition(self):
        with pytest.raises(PreconditionViolated):
            find_dense_endpoint(S([0, 5]), 9, 1)

    def test_quantifier_exhaustive_small(self):
        for m in range(1, 25):
            for bits in range(1, 1 << min(m + 1, 10)):
                vals = [i for i in range(min(m + 1, 10)) if bits >> i & 1]
                a = S(vals)
                for k in (1, 2, 3):
                    if len(a) * k < m + 1:
                        continue
                    u, side = find_dense_endpoint(a, m, k)
                    assert endpoint_quantifier_holds(a, m, k, u, side), (vals, m, k, u, side)

    def test_quantifier_random(self):
        rnd = random.Random(17)
        for _ in range(500):
            m = rnd.randint(1, 300)
            k = rnd.choice([1, 2, 5, 10])
            need = ceil_div(m + 1, k)
            if need > m + 1:
                continue
            vals = rnd.sample(range(0, m + 1), rnd.randint(need, min(m + 1, need + 20)))
            a = S(vals)
            u, side = find_dense_endpoint(a, m, k)
            assert endpoint_quantifier_holds(a, m, k, u, side)


def restricted_certificate(u, dw, k, j):
    """The reference expansion of term j of ap_restricted's (u, dw) in 32kA."""
    parts = merge_counts(restricted_pairs(u, dw, j, RandomSource(j)))
    return CompactSolution.from_counts(parts, dw.fold_budget * (u + 1) + j, 32 * k)


class TestApRestricted:
    def test_minimal(self):
        a = S([0, 1])
        u, dw = ap_restricted(a, 1, 1)
        assert u == -1 and dw.m == 1
        for j in range(2):
            sol = restricted_certificate(u, dw, 1, j)
            assert verify_solution(a, sol)
            assert total_count(sol) <= 32

    def test_full_interval(self):
        m = 20
        a = S(range(0, m + 1))
        u, dw = ap_restricted(a, m, 1)
        assert dw.m == m
        for j in range(m + 1):
            assert verify_solution(a, restricted_certificate(u, dw, 1, j))

    def test_positive_endpoint(self):
        # {0, 1} and a block [30, 50]: the scan gives up the starts 0 and 1
        a = S([0, 1] + list(range(30, 51)))
        m, k = 100, 5
        u, dw = ap_restricted(a, m, k)
        assert u == 29
        for j in range(m + 1):
            sol = restricted_certificate(u, dw, k, j)
            assert verify_solution(a, sol)
            assert total_count(sol) <= 32 * k

    def test_missing_one_rejected(self):
        with pytest.raises(PreconditionViolated):
            ap_restricted(S([0, 2, 3, 4]), 4, 2)

    def test_right_side_refused(self):
        # the mass of {0, 35, ..., 59} plus its shift by 1 sits in the top half
        # of [0, 60], so the endpoint scan ends right; ap_short never builds
        # such a set (see TestKfoldSumsetAp.test_pipeline_takes_left_side)
        cls = [0] + list(range(35, 60, 3))
        b_set = S(set(cls) | {b + 1 for b in cls})
        assert find_dense_endpoint(b_set, 60, 4) == (61, Side.RIGHT)
        with pytest.raises(PreconditionViolated) as exc:
            ap_restricted(b_set, 60, 4)
        assert exc.value.name == "left-dense-endpoint"


def gapped_set(rnd, g, n=25):
    """0 and n - 1 further elements, gaps drawn from [g, 4g], the first equal to g."""
    vals = [0, g]
    while len(vals) < n:
        vals.append(vals[-1] + rnd.randint(g, 4 * g))
    return S(vals)


def top_block_set(rnd, g):
    """{0, g} plus multiples of g drawn from a block in the top quarter: the
    endpoint scan of ap_short's class set stops above -1 (u >= 0)."""
    n = rnd.randint(50 * g, 50 * g + 10)
    w = rnd.randint(n, 2 * n)
    return S({0, g} | {g * x for x in rnd.sample(range(3 * w, 4 * w), n - 2)})


class TestApShort:
    def test_minimal(self):
        a = S([0, 1])
        leaf = ap_short(a, 1, 1)
        p = leaf.ap
        assert p.diff == 1
        assert p.length * min(p.diff, len(a)) >= 5
        sol = ApWitness(leaf, (), fold_budget=320).query(3, RandomSource(0))
        assert verify_solution(a, sol)

    def test_sparse_with_close_pair(self):
        a = S(list(range(0, 101, 10)) + [101])
        m, k = 101, 12
        leaf = ap_short(a, m, k)
        p, w = leaf.ap, ApWitness(leaf, (), fold_budget=320 * k)
        assert p.diff == 1  # closest pair is (100, 101)
        for j in random.Random(0).sample(range(p.length + 1), 30):
            sol = w.query(j, RandomSource(j))
            assert verify_solution(a, sol)
            assert sol.target == p.term(j)
            assert total_count(sol) <= 320 * k

    def test_singleton_rejected(self):
        with pytest.raises(PreconditionViolated):
            ap_short(S([0]), 1, 5)

    @staticmethod
    def reference_parts(leaf, base, j, branches=None):
        """Term j of the leaf in two steps: restricted pairs, then the lift."""
        pairs = restricted_pairs(leaf.u, leaf.dw, j, RandomSource(j))
        return closest_pair_lift(base, leaf.g, leaf.a_prime, leaf.a_star, pairs, branches)

    def test_lift_matches_base_membership(self):
        rnd = random.Random(5)
        for g in (1, 2, 3):
            for family in (gapped_set, top_block_set):
                base = family(rnd, g)
                leaf = ap_short(base, base.max, ceil_div(base.max + 1, len(base)))
                assert leaf.g == g
                assert (leaf.u >= 0) == (family is top_block_set), (g, leaf.u)
                branches = set()
                for j in range(leaf.ap.length + 1):
                    parts = leaf.query_parts(j, RandomSource(j))
                    assert parts == self.reference_parts(leaf, base, j, branches), (g, j)
                assert branches == {True, False}, (g, family.__name__)

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.sampled_from([1, 2, 3]),
        top=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        js=st.lists(st.integers(0, 10**9), min_size=1, max_size=8),
    )
    def test_one_pass_matches_two_step_reference(self, g, top, seed, js):
        rnd = random.Random(seed)
        base = (top_block_set if top else gapped_set)(rnd, g)
        leaf = ap_short(base, base.max, ceil_div(base.max + 1, len(base)))
        for j in js:
            j %= leaf.ap.length + 1
            parts = leaf.query_parts(j, RandomSource(j))
            assert parts == self.reference_parts(leaf, base, j), (j, leaf.u)

    def test_length_and_diff_bounds(self):
        rnd = random.Random(3)
        for _ in range(60):
            m = rnd.randint(4, 500)
            n = rnd.randint(2, min(30, m))
            a = S({0} | set(rnd.sample(range(1, m + 1), n - 1)))
            k = ceil_div(m + 1, len(a))
            p = ap_short(a, m, k).ap
            assert p.diff * len(a) <= 2 * m
            assert p.length * min(p.diff, len(a)) >= 5 * m


class TestKfoldSumsetAp:
    def test_minimal(self):
        res = ap_in_kfold_sumset([0, 1], 1, 1)
        a = S([0, 1])
        assert res.ap.length == 1 and res.ap.diff == 1
        for j in range(2):
            sol = res.witness.query(j, RandomSource(j))
            assert verify_solution(a, sol)
            assert total_count(sol) <= 332

    def test_random_medium(self):
        rnd = random.Random(8)
        m, k = 1000, 101
        elems = {0}
        while len(elems) < 11:
            elems.add(rnd.randint(1, m))
        a = S(elems)
        assert gcd_all(a) == 1
        res = ap_in_kfold_sumset(a, m, k)
        assert res.ap.length == m and res.ap.diff == 1
        for j in rnd.sample(range(m + 1), 100):
            sol = res.witness.query(j, RandomSource(j))
            assert verify_solution(a, sol)
            assert sol.target == res.ap.term(j)
            assert total_count(sol) <= 332 * k

    def test_preconditions_named(self):
        with pytest.raises(PreconditionViolated) as exc:
            ap_in_kfold_sumset([0, 2, 4], 4, 2)
        assert exc.value.name == "gcd-one"
        with pytest.raises(PreconditionViolated) as exc:
            ap_in_kfold_sumset([1, 2, 3], 3, 2)
        assert exc.value.name == "zero-in-set"
        with pytest.raises(PreconditionViolated) as exc:
            ap_in_kfold_sumset([0, 1], 9, 2)
        assert exc.value.name == "cardinality"

    def test_tiny_exhaustive_inside_oracle(self):
        # a fast slice of the exhaustive acceptance criterion
        for rest in itertools.combinations(range(1, 9), 3):
            a = S((0,) + rest)
            if gcd_all(a) != 1:
                continue
            m = a.max
            k = ceil_div(m + 1, len(a))
            res = ap_in_kfold_sumset(a, m, k)
            oracle = brute_kfold(a, 332 * res.k_eff, res.ap.last)
            assert all(t in oracle for t in res.ap.terms())

    def test_ap_deterministic_certificates_seeded(self):
        rnd = random.Random(1)
        elems = {0} | set(rnd.sample(range(1, 400), 19))
        a = S(elems)
        if gcd_all(a) != 1:
            a = S(elems | {1})
        k = ceil_div(400, len(a))
        r1 = ap_in_kfold_sumset(a, 399, k)
        r2 = ap_in_kfold_sumset(a, 399, k)
        assert r1.ap == r2.ap
        for j in (0, 17, 399):
            s1 = r1.witness.query(j, RandomSource(5).derive("q", j))
            s2 = r2.witness.query(j, RandomSource(5).derive("q", j))
            assert s1 == s2

    @staticmethod
    def pipeline_families(rnd):
        """Seeded (family, set, m, k) inputs of the k-fold pipeline."""
        for _ in range(400):
            m = rnd.randint(2, 10**4)
            n = rnd.randint(2, min(m, 200))
            yield "random", {0} | set(rnd.sample(range(1, m + 1), n - 1)), m, None
            m = rnd.randint(4, 10**4)
            n = rnd.randint(2, min(m // 2, 200))
            yield "upper-half", {0} | set(rnd.sample(range(m // 2, m + 1), n - 1)), m, None
            q = rnd.choice([6, 10, 15])
            m = rnd.randint(4 * q, 10**4)
            mults = rnd.sample(range(q, m + 1, q), min(m // q, rnd.randint(2, 200)))
            stray = rnd.choice([v for v in range(1, m + 1) if math.gcd(v, q) == 1])
            yield "multiples+stray", {0, q, stray} | set(mults), m, None
            n, k = rnd.randint(2, 200), rnd.randint(1, 80)
            m = n * k - 1
            if m >= n:
                yield "nk=m+1", {0, 1} | set(rnd.sample(range(2, m + 1), n - 2)), m, k

    def test_pipeline_takes_left_side(self, monkeypatch):
        calls = []
        real = sumset_ap.find_dense_endpoint

        def spy(a, m, k):
            result = real(a, m, k)
            calls.append((a, m, result))
            return result

        monkeypatch.setattr(sumset_ap, "find_dense_endpoint", spy)
        runs = collections.Counter()
        for family, vals, m, k in self.pipeline_families(random.Random(2024)):
            a = S(vals)
            if gcd_all(a) != 1:
                continue
            k = k or ceil_div(m + 1, len(a))
            assert len(a) * k >= m + 1
            ap_in_kfold_sumset(a, m, k)
            runs[family] += 1
        assert min(runs.values()) >= 300 and len(runs) == 4, runs
        assert len(calls) == sum(runs.values())
        for b_set, m2, (u, side) in calls:
            assert side is Side.LEFT, (b_set.elems, m2, u)
            assert 5 * (b_set.max - 1) <= m2, (b_set.elems, m2)


class TestFoldQueryMatchesReference:
    """The fold-mode query, which adds the layers' parts into the dict the
    leaf hands over, against the merge into a new dict of tests/oracle.py."""

    @pytest.mark.parametrize("case", GOLDEN_KFOLD_BUILDS, ids=lambda c: c[0])
    def test_golden_builds_every_term(self, case):
        _, _, inp, m, k = case
        witness = golden_witness(inp, m, k)
        assert witness.fold_budget > 0
        if inp == "m61015":  # the golden case with augmentation layers
            assert {type(layer) for layer in witness.layers} == {DivPairLayer, LadderLayer}
        for j in range(witness.ap.length + 1):
            got = query_or_message(ApWitness.query, witness, j)
            assert got == query_or_message(fold_query_by_merge, witness, j), j
            assert not isinstance(got, str)

    @pytest.mark.parametrize("case", GOLDEN_KFOLD_BUILDS, ids=lambda c: c[0])
    def test_leaf_hands_over_a_new_dict_every_call(self, case):
        # the witness adds into the leaf's dict, so a dict the leaf kept
        # would carry one query's layer parts into the next
        _, _, inp, m, k = case
        witness = golden_witness(inp, m, k)
        leaf = witness.leaf
        for j in range(0, witness.ap.length + 1, 97):
            jl = j
            for layer in witness.layers:
                jl, _ = layer.resolve(jl)
            first = leaf.query_parts(jl, RandomSource(j))
            second = leaf.query_parts(jl, RandomSource(j))
            assert type(first) is dict and first is not second and first == second
            sols = [witness.query(j, RandomSource(j)) for _ in range(2)]
            assert sols[0] == sols[1], j
