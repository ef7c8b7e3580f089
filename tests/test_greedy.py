import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apcert.core import EmptySet, SortedIntSet
from apcert.density_witness import kfold_greedy_steps
from oracle import (
    density,
    greedy_kfold_materialize,
    greedy_membership,
    greedy_sumset,
    kfold_greedy_query,
    kfold_greedy_steps_by_pick,
    total_count,
    verify_solution,
)

S = SortedIntSet.from_iterable


def brute_greedy_sumset(a, b):
    """Direct enumeration of the definition with the infinite last gap."""
    elems = sorted(a)
    out = set()
    for i, ai in enumerate(elems):
        nxt = elems[i + 1] if i + 1 < len(elems) else None
        for v in sorted(b):
            if v < 0:
                continue
            if nxt is not None and v >= nxt - ai:
                break
            out.add(ai + v)
    return out


class TestGreedySumset:
    def test_examples(self):
        assert greedy_sumset(S([0, 1]), S([0, 1])).elems == (0, 1, 2)
        assert greedy_sumset(S([0, 3]), S([0, 1, 2, 5])).elems == (0, 1, 2, 3, 4, 5, 8)
        assert greedy_sumset(S([0]), S([0, 7])).elems == (0, 7)

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            greedy_sumset(SortedIntSet(()), S([0]))

    def test_matches_definition_exhaustively(self):
        universe = range(0, 7)
        subsets = [
            S(c)
            for n in range(1, 8)
            for c in itertools.combinations(universe, n)
        ]
        for a in subsets:
            for b in subsets:
                got = set(greedy_sumset(a, b))
                assert got == brute_greedy_sumset(a, b)
                full = {x + y for x in a for y in b}
                assert got <= full

    @given(
        st.sets(st.integers(0, 12), min_size=1, max_size=6),
        st.sets(st.integers(0, 12), min_size=1, max_size=6),
    )
    def test_subset_of_sumset(self, av, bv):
        a, b = S(av), S(bv)
        assert set(greedy_sumset(a, b)) <= {x + y for x in a for y in b}

    @given(
        st.sets(st.integers(0, 30), min_size=1, max_size=8),
        st.integers(1, 6),
        st.integers(0, 60),
    )
    def test_query_results_always_verify(self, av, k, z):
        a = S(av)
        sol = kfold_greedy_query(a, k, z)
        if sol is not None:
            assert verify_solution(a, sol)
            assert sol.target == z and total_count(sol) == k


class TestGreedyMembership:
    def test_examples(self):
        assert greedy_membership(S([0, 3]), S([0, 1, 2, 5]), 4) == (3, 1)
        assert greedy_membership(S([0, 3]), S([0, 1, 2, 5]), 6) is None
        assert greedy_membership(S([0]), S([0]), 0) == (0, 0)

    def test_agrees_with_sumset(self):
        rnd = random.Random(1)
        for _ in range(100):
            a = S(rnd.sample(range(0, 15), rnd.randint(1, 5)))
            b = S(rnd.sample(range(0, 15), rnd.randint(1, 5)))
            members = set(greedy_sumset(a, b))
            for z in range(0, 31):
                hit = greedy_membership(a, b, z)
                assert (hit is not None) == (z in members)
                if hit:
                    x, y = hit
                    assert x in a and y in b and x + y == z
                    assert x == max(e for e in a if e <= z)


class TestKfoldGreedy:
    def test_examples(self):
        sol = kfold_greedy_query(S([0, 1, 3]), 2, 4)
        assert sol.parts == ((1, 1), (3, 1)) and sol.target == 4
        assert kfold_greedy_query(S([0, 1, 3]), 2, 5) is None
        sol0 = kfold_greedy_query(S([0, 5]), 3, 0)
        assert sol0.parts == ((0, 3),)

    def test_query_equals_materialized(self):
        # all A within [0, 10] containing {0,1} with |A| <= 5, k <= 4
        for extra in range(0, 4):
            for combo in itertools.combinations(range(2, 11), extra):
                a = S({0, 1} | set(combo))
                for k in range(1, 5):
                    mat = set(greedy_kfold_materialize(a, k, 10 * k))
                    for z in range(0, 10 * k + 1):
                        sol = kfold_greedy_query(a, k, z)
                        assert (sol is not None) == (z in mat), (a.elems, k, z)
                        if sol is not None:
                            assert verify_solution(a, sol)
                            assert total_count(sol) == k

    def test_density_amplification_bound(self):
        # 1 - (1 - rho)^k with exact rationals, k <= 8
        rnd = random.Random(3)
        for _ in range(40):
            a = S({0, 1} | set(rnd.sample(range(2, 20), rnd.randint(0, 6))))
            z = rnd.randint(1, 19)
            rho = density(a, z)
            cur = a
            for k in range(1, 9):
                if k > 1:
                    cur = greedy_sumset(a, cur)
                    cur = S(e for e in cur if e <= z)
                assert density(cur, z) >= 1 - (1 - rho) ** k


class TestGreedyWalkMatchesReference:
    """The walk that ends once the residual is 0, against the walk of
    tests/oracle.py that bisects for every pick until k steps are taken."""

    @pytest.mark.parametrize("elems, k, z, runs", [
        ((), 0, 0, []),
        ((), 3, 0, None),
        ((), 3, 4, None),
        ((0,), 2, 0, [(0, 2)]),
        ((0, 1), 0, 0, []),
        ((0, 1), 0, 1, None),
        ((1, 3), 0, 0, []),
        ((1, 3), 2, 0, None),
        ((1, 3), 2, 4, [(3, 1), (1, 1)]),
        ((1, 3), 3, 4, None),
        ((0, 1, 3), 3, 4, [(3, 1), (1, 1), (0, 1)]),
        ((0, 1), 3, 5, None),
        ((0, 2, 5), 3, 9, [(5, 1), (2, 2)]),
        ((0, 2, 5), 4, 6, None),
        ((0, 5), 3, 3, None),
        ((0, 5), 3, 10, [(5, 2), (0, 1)]),
        ((2, 5), 3, 1, None),
        ((0, 1), -1, 0, []),
        ((0, 1), -1, 2, None),
        ((0, 1), 2, -1, None),
    ], ids=["empty-k0", "empty-z0", "empty", "zero-only", "k0-z0", "k0-z1", "no-zero-k0-z0",
            "no-zero-z0", "no-zero-exact", "no-zero-steps-left", "zero-fills",
            "k-runs-out", "exact-k", "only-pick-is-zero-mid-walk", "only-pick-is-zero",
            "zero-fills-after-run", "below-every-element", "negative-k-z0", "negative-k",
            "negative-z"])
    def test_cases(self, elems, k, z, runs):
        a = SortedIntSet(elems)
        assert kfold_greedy_steps_by_pick(a, k, z) == runs
        assert kfold_greedy_steps(a, k, z) == runs

    @given(
        elems=st.sets(st.integers(0, 60), max_size=10),
        k=st.integers(-2, 25),
        z=st.one_of(st.just(0), st.integers(-3, 600)),
    )
    def test_same_runs_or_none(self, elems, k, z):
        a = S(elems)
        assert kfold_greedy_steps(a, k, z) == kfold_greedy_steps_by_pick(a, k, z)

    def test_exhaustive_small(self):
        for bits in range(1 << 7):
            a = S(i for i in range(7) if bits >> i & 1)
            for k in range(5):
                for z in range(25):
                    assert kfold_greedy_steps(a, k, z) == kfold_greedy_steps_by_pick(a, k, z)


class TestGreedyDensityInequality:
    def test_randomized_up_to_forty(self):
        # rho_z(A (+) B) >= rho_z(A) + rho_z(B) - rho_z(A) rho_z(B)
        rnd = random.Random(7)
        for _ in range(300):
            a = S({1} | set(rnd.sample(range(0, 40), rnd.randint(0, 8))))
            b = S({0} | set(rnd.sample(range(0, 40), rnd.randint(0, 8))))
            z = rnd.randint(1, 40)
            ra, rb = density(a, z), density(b, z)
            rc = density(greedy_sumset(a, b), z)
            assert rc >= ra + rb - ra * rb

    def test_exhaustive_tiny(self):
        universe = range(0, 6)
        for abits in range(1 << 6):
            if not abits >> 1 & 1:
                continue
            a = S(i for i in universe if abits >> i & 1)
            for bbits in range(1 << 6):
                if not bbits & 1:
                    continue
                b = S(i for i in universe if bbits >> i & 1)
                c = greedy_sumset(a, b)
                for z in range(1, 7):
                    ra, rb = density(a, z), density(b, z)
                    assert density(c, z) >= ra + rb - ra * rb
