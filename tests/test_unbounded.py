import random
from math import gcd

import pytest

from apcert.core import PreconditionViolated, RandomSource
from apcert.unbounded import UnboundedSolver
from oracle import brute_unbounded


class TestSolveUnbounded:
    def test_pair_example(self):
        sol = UnboundedSolver((3, 5)).solve(5000, RandomSource(1))
        assert sol.total() == 5000
        assert all(x >= 0 for _, x in sol.multipliers)
        assert [a for a, _ in sol.multipliers] == [3, 5]

    def test_gcd_rejected(self):
        with pytest.raises(PreconditionViolated) as exc:
            UnboundedSolver((2, 4)).solve(10**6, RandomSource(0))
        assert exc.value.name == "gcd-one"

    def test_below_threshold_rejected(self):
        solver = UnboundedSolver((3, 5))
        with pytest.raises(PreconditionViolated) as exc:
            solver.solve(solver.threshold - 1, RandomSource(0))
        assert exc.value.name == "target-above-threshold"

    def test_threshold_constant(self):
        # 333 * ceil(a_n/(n-1)) * a_{n-1}
        solver = UnboundedSolver((7, 36, 50))
        assert solver.threshold == 333 * ((50 + 1) // 2) * 36

    def test_not_increasing_rejected(self):
        with pytest.raises(PreconditionViolated):
            UnboundedSolver((5, 5))

    def test_oracle_window_small_instances(self):
        rng = RandomSource(3)
        rnd = random.Random(3)
        done = 0
        while done < 15:
            n = rnd.randint(2, 4)
            vals = sorted(rnd.sample(range(1, 40), n))
            g = 0
            for v in vals:
                g = gcd(g, v)
            if g != 1:
                continue
            solver = UnboundedSolver(tuple(vals))
            table, frob = brute_unbounded(tuple(vals), solver.threshold + 60)
            assert frob < solver.threshold
            for t in range(solver.threshold, solver.threshold + 51):
                sol = solver.solve(t, rng)
                assert sol.total() == t
                assert table[t]
            done += 1

    def test_identity_always_holds_random_targets(self):
        rng = RandomSource(7)
        rnd = random.Random(7)
        solver = UnboundedSolver((11, 23, 40, 97))
        for _ in range(300):
            t = solver.threshold + rnd.randint(0, 10**9)
            sol = solver.solve(t, rng)
            assert sol.total() == t
            assert all(x >= 0 for _, x in sol.multipliers)
