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


def inner_index(solver, t):
    """r = (val - s) mod a_n from the solver's public attributes."""
    d, a_n = solver.d, solver.a_n
    i_t = (t % d) * solver.inv_an % d if d > 1 else 0
    return ((t - i_t * a_n) // d - solver.ka.ap.start) % a_n


def reference_solve(solver, t, rng):
    """One witness query for t's inner index, then the per-value count."""
    d, a_n = solver.d, solver.a_n
    i_t = (t % d) * solver.inv_an % d if d > 1 else 0
    val = (t - i_t * a_n) // d
    s = solver.ka.ap.start
    sol = solver.ka.witness.query((val - s) % a_n, rng)
    counts = {}
    for v, c in sol.parts:
        if v == 0:
            continue
        counts[v * d] = counts.get(v * d, 0) + c
    counts[a_n] = counts.get(a_n, 0) + (val - s) // a_n * d + i_t
    return tuple((v, counts.get(v, 0)) for v in solver.values)


def seeded_rng(t):
    return RandomSource(5).derive("unbounded", t)


MEMO_INPUTS = [(3, 5), (11, 23, 40, 97), (4002, 4006, 4010, 4014, 4018, 5003)]


class TestResidueMemo:
    def test_one_query_per_inner_index(self, monkeypatch):
        solver = UnboundedSolver((11, 23, 40, 97))
        calls = []
        query = solver.ka.witness.query

        def spy(j, rng):
            calls.append(j)
            return query(j, rng)

        monkeypatch.setattr(solver.ka.witness, "query", spy)
        rnd = random.Random(11)
        targets = [solver.threshold + rnd.randrange(10**6) for _ in range(600)]
        for t in targets:
            solver.solve(t, seeded_rng(t))
        residues = {inner_index(solver, t) for t in targets}
        assert len(residues) < len(targets)
        assert sorted(calls) == sorted(residues)

    @pytest.mark.parametrize("values", MEMO_INPUTS, ids=lambda v: f"n{len(v)}-an{v[-1]}")
    def test_first_miss_matches_one_query(self, values):
        # the first solve of each inner index answers exactly as one witness
        # query with its rng does; later solves reuse that certificate
        solver = UnboundedSolver(values)
        rnd = random.Random(values[-1])
        first: dict[int, int] = {}
        for _ in range(200):
            t = solver.threshold + rnd.randrange(10**9)
            r = inner_index(solver, t)
            first.setdefault(r, t)
            got = solver.solve(t, seeded_rng(t)).multipliers
            assert got == reference_solve(solver, t, seeded_rng(first[r]))

    @pytest.mark.parametrize("values", MEMO_INPUTS, ids=lambda v: f"n{len(v)}-an{v[-1]}")
    def test_hits_are_certified(self, values):
        solver = UnboundedSolver(values)
        rnd = random.Random(1)
        for _ in range(500):
            t = solver.threshold + rnd.randrange(10**12)
            sol = solver.solve(t, seeded_rng(t))
            assert sol.target == t and sol.total() == t
            assert tuple(a for a, _ in sol.multipliers) == solver.values
            assert all(type(x) is int and x >= 0 for _, x in sol.multipliers)

    def test_below_threshold_leaves_memo_empty(self):
        solver = UnboundedSolver((4002, 4006, 4010, 4014, 4018, 5003))
        with pytest.raises(PreconditionViolated):
            solver.solve(solver.threshold - 1, RandomSource(0))
        assert solver._rows == {}

    def test_failed_query_leaves_memo_unchanged(self, monkeypatch):
        solver = UnboundedSolver((11, 23, 40, 97))
        t = solver.threshold + 12345
        solver.solve(t, seeded_rng(t))
        rows = dict(solver._rows)

        def refuse(j, rng):
            raise RuntimeError("no certificate")

        monkeypatch.setattr(solver.ka.witness, "query", refuse)
        other = next(u for u in range(t + 1, t + 200)
                     if inner_index(solver, u) != inner_index(solver, t))
        with pytest.raises(RuntimeError):
            solver.solve(other, seeded_rng(other))
        assert solver._rows == rows
        assert solver.solve(t, seeded_rng(t)).total() == t
