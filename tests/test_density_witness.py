import random

import pytest

from apcert.core import (
    OutOfRange,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
)
from apcert.density_witness import build_density_witness
from oracle import (
    density,
    density_query,
    greedy_kfold_materialize,
    total_count,
    verify_solution,
)

S = SortedIntSet.from_iterable


class TestBuild:
    def test_boundary_of_precondition(self):
        w = build_density_witness(S([0, 1]), 1, 2)
        assert w.k_inner == 2

    def test_full_interval(self):
        w = build_density_witness(S(range(0, 11)), 10, 2)
        assert w.k_inner == 2

    def test_density_violation_names_witness(self):
        with pytest.raises(PreconditionViolated) as exc:
            build_density_witness(S([0, 1, 5]), 5, 2)
        assert exc.value.name == "density"
        assert "z' = 4" in exc.value.detail

    def test_membership_violation(self):
        with pytest.raises(PreconditionViolated) as exc:
            build_density_witness(S([0, 2]), 2, 8)
        assert exc.value.name == "membership"


class TestQuery:
    def test_zero_short_circuits(self):
        w = build_density_witness(S([0, 1]), 1, 2)
        sol = density_query(w, 0, RandomSource(1))
        assert sol.parts == ((0, 4),)

    def test_one(self):
        w = build_density_witness(S([0, 1]), 1, 2)
        sol = density_query(w, 1, RandomSource(1))
        assert verify_solution(w.base, sol)
        assert sol.target == 1 and total_count(sol) <= 4

    def test_rich_interval(self):
        w = build_density_witness(S(range(0, 11)), 10, 2)
        sol = density_query(w, 7, RandomSource(5))
        assert verify_solution(w.base, sol)
        assert sol.target == 7
        assert total_count(sol) <= 2 * w.k_inner

    def test_out_of_range(self):
        w = build_density_witness(S([0, 1]), 1, 2)
        with pytest.raises(OutOfRange):
            density_query(w, 2, RandomSource(0))

    def test_every_term_verifies(self):
        rnd = random.Random(2)
        for trial in range(20):
            m = rnd.randint(1, 60)
            a = S({0, 1} | set(rnd.sample(range(2, m + 1), rnd.randint(0, min(10, m - 1)))))
            rho = density(a, m)
            k = max(2, (2 * rho.denominator + rho.numerator - 1) // rho.numerator)
            w = build_density_witness(a, m, k)
            for z in range(0, m + 1):
                sol = density_query(w, z, RandomSource(trial * 1000 + z))
                assert verify_solution(a, sol)
                assert sol.target == z
                assert sol.fold_budget == 2 * w.k_inner <= 2 * k

    def test_determinism_same_seed(self):
        w = build_density_witness(S(range(0, 31)), 30, 4)
        a = [density_query(w, z, RandomSource(99)).parts for z in range(31)]
        b = [density_query(w, z, RandomSource(99)).parts for z in range(31)]
        assert a == b

    def test_amplified_density_reaches_three_quarters(self):
        rnd = random.Random(4)
        from fractions import Fraction

        for _ in range(15):
            m = rnd.randint(2, 24)
            a = S({0, 1} | set(rnd.sample(range(2, m + 1), rnd.randint(0, m - 1))))
            rho = density(a, m)
            k = (2 * rho.denominator + rho.numerator - 1) // rho.numerator
            mat = greedy_kfold_materialize(a, k, m)
            assert density(mat, m) >= Fraction(3, 4)

    def test_mean_sampling_rounds(self):
        w = build_density_witness(S(range(0, 41)), 40, 3)
        draws = 0
        queries = 0
        for i in range(1000):
            rng = RandomSource(i)
            density_query(w, 1 + i % 40, rng)
            draws += rng.draws
            queries += 1
        assert draws / queries <= 4
