import random
from math import gcd

import pytest

from apcert.core import SortedIntSet
from oracle import (
    CapExceeded,
    brute_kfold,
    brute_subset_sums,
    brute_unbounded,
    greedy_kfold_materialize,
)

S = SortedIntSet.from_iterable


class TestBruteKfold:
    def test_examples(self):
        assert brute_kfold(S([0, 1, 3]), 2, 6).elems == (0, 1, 2, 3, 4, 6)
        a = S([2, 5, 9])
        assert brute_kfold(a, 1, 9).elems == a.elems
        assert brute_kfold(S([0]), 7, 5).elems == (0,)

    def test_matches_pairwise_enumeration(self):
        rnd = random.Random(0)
        for _ in range(30):
            a = S(rnd.sample(range(0, 200), rnd.randint(1, 50)))
            cap = 2 * a.max
            got = set(brute_kfold(a, 2, cap))
            want = {x + y for x in a for y in a if x + y <= cap}
            assert got == want

    def test_cap_guard(self):
        with pytest.raises(CapExceeded):
            brute_kfold(S([0, 1]), 2, 10**8 + 1)


class TestBruteSubsetSums:
    def test_examples(self):
        t = brute_subset_sums(S([1, 2]), 10)
        assert [s for s in range(4) if s in t] == [0, 1, 2, 3]
        t2 = brute_subset_sums(S([5]), 10)
        assert (0 in t2) and (5 in t2) and (3 not in t2)
        t3 = brute_subset_sums(S([3, 5, 7]), 15)
        assert t3.reconstruct(12) == [5, 7]

    def test_reconstruction_random(self):
        rnd = random.Random(1)
        for _ in range(20):
            a = S(rnd.sample(range(1, 40), rnd.randint(1, 10)))
            t = brute_subset_sums(a, sum(a.elems))
            for s in range(sum(a.elems) + 1):
                sub = t.reconstruct(s)
                if s in t:
                    assert sub is not None and sum(sub) == s
                    assert len(set(sub)) == len(sub)
                    assert all(v in a for v in sub)
                else:
                    assert sub is None


class TestBruteUnbounded:
    def test_frobenius_classics(self):
        _, f1 = brute_unbounded((3, 5), 100)
        assert f1 == 7
        _, f2 = brute_unbounded((2, 3), 100)
        assert f2 == 1
        _, f3 = brute_unbounded((1,), 50)
        assert f3 == -1

    def test_erdos_graham_bound(self):
        # largest unreachable <= 2 a_{n-1} floor(a_n / n) - a_n
        rnd = random.Random(5)
        done = 0
        while done < 40:
            n = rnd.randint(2, 5)
            vals = sorted(rnd.sample(range(2, 60), n))
            g = 0
            for v in vals:
                g = gcd(g, v)
            if g != 1:
                continue
            bound = 2 * vals[-2] * (vals[-1] // n) - vals[-1]
            table, frob = brute_unbounded(tuple(vals), max(bound, 0) + vals[-1] + 5)
            assert frob <= max(bound, -1)
            done += 1


class TestGreedyMaterialize:
    def test_order_sensitivity(self):
        # the (k+1)-fold greedy set composes as A (+) (k-fold set)
        a = S([0, 2, 3])
        two = greedy_kfold_materialize(a, 2, 10)
        from oracle import greedy_sumset

        assert two == greedy_sumset(a, greedy_sumset(a, S([0])))
