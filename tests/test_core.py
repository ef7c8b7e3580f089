import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apcert.core
from apcert.augment import solve_residue_coefficient
from apcert.core import (
    MAX_ELEMENT,
    ArithProgression,
    CompactSolution,
    EmptySet,
    InternalContract,
    NegativeInput,
    OutOfRange,
    OverflowRisk,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    check_certificate,
    check_solution,
    gcd_all,
    load_int_set,
    normalize,
    parse_int_set_text,
)
from apcert.density_witness import density_with_argmin
from oracle import (
    check_solution_by_zip,
    check_solution_loop,
    check_sorted_elems,
    density,
    error_of,
    from_counts_by_constructor,
    normalize_by_element,
    uniform_int_by_next64,
    verify_solution,
)

S = SortedIntSet.from_iterable


VALUES = st.one_of(st.sampled_from([0, 1, MAX_ELEMENT - 1, MAX_ELEMENT]),
                   st.integers(0, MAX_ELEMENT))


@st.composite
def faulty_values(draw, sort):
    """Distinct values in [0, 2^62], sorted or shuffled, with up to two
    elements replaced by a negative value, a value above 2^62, a repeat of
    the element before or a value below it."""
    vals = sorted(draw(st.sets(VALUES, max_size=12)))
    if not sort:
        vals = draw(st.permutations(vals))
    for _ in range(draw(st.integers(0, 2)) if vals else 0):
        i = draw(st.integers(0, len(vals) - 1))
        prev = vals[i - 1] if i else 0
        vals[i] = draw(st.one_of(
            st.integers(-(2**64), -1),
            st.integers(MAX_ELEMENT + 1, 2**64),
            st.just(prev),
            st.integers(0, prev - 1) if prev > 0 else st.just(-1),
        ))
    return vals


FIRST_FAULTS = [
    ((), None),
    ((0,), None),
    ((MAX_ELEMENT,), None),
    ((-1,), (NegativeInput, "nonnegative-input", "got -1")),
    ((MAX_ELEMENT + 1,), (OverflowRisk, "element-cap", f"{MAX_ELEMENT + 1} > 2^62")),
    ((1, -5, 2**63), (NegativeInput, "nonnegative-input", "got -5")),
    ((1, 2**63, -5), (OverflowRisk, "element-cap", f"{2**63} > 2^62")),
    ((-1, -5), (NegativeInput, "nonnegative-input", "got -1")),
    ((2**63, MAX_ELEMENT + 1), (OverflowRisk, "element-cap", f"{2**63} > 2^62")),
]


class TestNormalize:
    def test_dedupe_and_sort(self):
        out, dropped = normalize([3, 1, 3, 0])
        assert out.elems == (0, 1, 3)
        assert dropped == 1

    def test_empty(self):
        out, dropped = normalize([])
        assert out.elems == () and dropped == 0

    def test_singleton(self):
        out, _ = normalize([5])
        assert out.elems == (5,)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            normalize([1, -2])

    def test_overflow_rejected(self):
        with pytest.raises(OverflowRisk):
            normalize([2**62 + 1])


class TestValidatorParity:
    """The C-level passes raise what the per-element loops of tests/oracle.py
    raise: the same class, name and detail, for the first fault in order."""

    @given(faulty_values(sort=True))
    def test_sorted_int_set(self, vals):
        elems = tuple(vals)
        assert error_of(SortedIntSet, elems) == error_of(check_sorted_elems, elems)

    @given(faulty_values(sort=False))
    def test_normalize(self, vals):
        got = error_of(normalize, vals)
        assert got == error_of(normalize_by_element, vals)
        if got is None:
            assert normalize(vals) == normalize_by_element(vals)

    @pytest.mark.parametrize("elems, error", FIRST_FAULTS + [
        ((3, 3, -1), (PreconditionViolated, "strictly-increasing", "3 after 3")),
        ((5, 4, 2**63), (PreconditionViolated, "strictly-increasing", "4 after 5")),
    ])
    def test_sorted_int_set_first_fault_wins(self, elems, error):
        assert error_of(SortedIntSet, elems) == error == error_of(check_sorted_elems, elems)

    @pytest.mark.parametrize("raw, error", FIRST_FAULTS + [((7, 3, 3), None)])
    def test_normalize_first_fault_wins(self, raw, error):
        assert error_of(normalize, list(raw)) == error == error_of(normalize_by_element, raw)

    @given(faulty_values(sort=False))
    def test_from_iterable(self, vals):
        # cli.cmd_verify builds its base from a report's coreset this way
        got = error_of(SortedIntSet.from_iterable, vals)
        assert got == error_of(check_sorted_elems, sorted(set(vals)))
        if got is None:
            assert SortedIntSet.from_iterable(vals) == SortedIntSet(tuple(sorted(set(vals))))

    @pytest.mark.parametrize("elems", [
        elems for elems, error in FIRST_FAULTS if error
    ] + [(-7, 3, 3), (3, 3, MAX_ELEMENT + 1), (5, 4, 2**63), (-1, 0, 1), (0, 1, MAX_ELEMENT + 1)])
    def test_ordered_with_a_bad_end(self, elems):
        # the private constructor checks the ends, then runs the full pass
        got = error_of(SortedIntSet._ordered, elems)
        assert got is not None and got == error_of(SortedIntSet, elems)


class TestWithout:
    @given(st.sets(st.integers(0, 200), max_size=40), st.data())
    def test_matches_the_filter(self, vals, data):
        a = S(vals)
        drop = data.draw(st.lists(st.sampled_from(sorted(vals)), max_size=12)) if vals else []
        assert a.without(drop) == SortedIntSet(tuple(v for v in a.elems if v not in drop))

    @pytest.mark.parametrize("drop", [[7], [1, 7], [5, 0], [-1], [10**6]])
    def test_value_outside_the_set_is_a_contract(self, drop):
        with pytest.raises(InternalContract):
            S([1, 3, 5]).without(drop)


class TestGcdAll:
    def test_examples(self):
        assert gcd_all(S([0, 4, 6])) == 2
        assert gcd_all(S([0, 3, 5])) == 1
        assert gcd_all(S([0])) == 0

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            gcd_all(SortedIntSet(()))


class TestDensity:
    def brute(self, a, z):
        return min(Fraction(a.count_range(1, zp), zp) for zp in range(1, z + 1))

    def test_examples(self):
        assert density(S([0, 1, 3]), 3) == Fraction(1, 2)
        assert density(S([0]), 5) == 0
        assert density(S(range(0, 9)), 8) == 1

    def test_matches_full_enumeration(self):
        import random

        rnd = random.Random(0)
        for _ in range(200):
            z = rnd.randint(1, 40)
            a = S({0} | set(rnd.sample(range(0, 41), rnd.randint(0, 12))))
            assert density(a, z) == self.brute(a, z)

    @given(
        st.sets(st.integers(0, 30), min_size=1, max_size=10),
        st.integers(1, 30),
    )
    def test_lower_bound_property(self, vals, z):
        a = S(vals)
        rho = density(a, z)
        for zp in range(1, z + 1):
            assert rho * zp <= a.count_range(1, zp)

    @staticmethod
    def bisect_scan(a, z):
        """The scan with |A[1, e - 1]| counted by two bisects per element."""
        best_num, best_den, best_z = a.count_range(1, z), z, z
        for e in a.elems:
            zp = e - 1
            if zp < 1:
                continue
            if zp >= z:
                break
            num = a.count_range(1, zp)
            if num * best_den < best_num * zp:
                best_num, best_den, best_z = num, zp, zp
        return Fraction(best_num, best_den), best_z

    def test_index_scan_matches_bisect_count(self):
        import random

        rnd = random.Random(11)
        seen = set()
        for size in (1, 2, 3, 10, 100, 2000):
            for has0, has1 in itertools.product((False, True), repeat=2):
                rest = rnd.sample(range(2, 4 * size + 2), size)
                a = S(rest + [0] * has0 + [1] * has1)
                for z in (1, a.max // 2 or 1, a.max - 1 or 1, a.max, a.max + 1, 3 * a.max):
                    assert density_with_argmin(a, z) == self.bisect_scan(a, z), (size, z)
                seen.add((0 in a, 1 in a))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_argmin_is_a_minimizer(self):
        a = S([0, 1, 5, 6])
        rho, zp = density_with_argmin(a, 9)
        assert Fraction(a.count_range(1, zp), zp) == rho

    @pytest.mark.parametrize("z", [2**26 - 1, 2**26, 2**26 + 1, 2**52, MAX_ELEMENT])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_ratios_closer_than_a_float_can_tell(self, z, delta):
        # steps 1/q and 2/(2q + delta), q near z/2: above 2^26 their quotients
        # round to one float, and only an exact comparison tells them apart
        q = (z - 3) // 2
        a = S({0, 1, q + 1, 2 * q + delta + 1})
        want = (Fraction(2, 2 * q + 1), 2 * q + 1) if delta == 1 else (Fraction(1, q), q)
        assert density_with_argmin(a, z) == want

    def test_endpoint_wins_a_tie_then_the_smallest_step(self):
        t, n = 5, 4
        a = S({0} | {1 + j * t for j in range(n + 1)})  # every step has ratio 1/5
        assert density_with_argmin(a, n * t) == (Fraction(1, t), n * t)
        assert density_with_argmin(a, n * t + 1) == (Fraction(1, t), t)


class TestResidueCoefficient:
    def test_examples(self):
        assert solve_residue_coefficient(6, 4) == (2, 2)
        assert solve_residue_coefficient(6, 5) == (1, 5)
        assert solve_residue_coefficient(4, 8) == (4, 0)

    def test_exhaustive_small(self):
        for d in range(2, 201):
            for g in range(1, 401):
                dp, jstar = solve_residue_coefficient(d, g)
                assert dp == __import__("math").gcd(d, g)
                assert 0 <= jstar <= (d - dp) // dp
                assert jstar * g % d == dp % d


def naive_check(base, parts, target, budget):
    """Independent certificate checker: expand and test directly."""
    expanded = []
    for v, c in parts:
        if c <= 0:
            return False
        expanded.extend([v] * c)
    values = [v for v, _ in parts]
    if len(set(values)) != len(values):
        return False
    if any(v not in set(base) for v in expanded):
        return False
    if sum(expanded) != target:
        return False
    if budget == 0:
        return all(c == 1 for _, c in parts)
    return len(expanded) <= budget


def _tamper_count(draw, base, parts, i):
    parts[i][1] = draw(st.sampled_from([0, -1, 2]))


def _tamper_repeat(draw, base, parts, i):
    if i:
        parts[i][0] = parts[i - 1][0]


def _tamper_descend(draw, base, parts, i):
    if i:
        parts[i - 1][0], parts[i][0] = parts[i][0], parts[i - 1][0]


def _tamper_negative(draw, base, parts, i):
    parts[i][0] = draw(st.integers(-5, -1))


def _tamper_above_max(draw, base, parts, i):
    parts[i][0] = base[-1] + draw(st.integers(1, 5))


def _tamper_below_min(draw, base, parts, i):
    if base[0] > 0:
        parts[i][0] = draw(st.integers(0, base[0] - 1))


def _tamper_between(draw, base, parts, i):
    gaps = [(lo, hi) for lo, hi in itertools.pairwise(base) if hi - lo > 1]
    if gaps:
        lo, hi = draw(st.sampled_from(gaps))
        parts[i][0] = draw(st.integers(lo + 1, hi - 1))


def _tamper_zero(draw, base, parts, i):
    if base[0] > 0:
        parts[i][0] = 0


PART_TAMPERS = (_tamper_count, _tamper_repeat, _tamper_descend, _tamper_negative,
                _tamper_above_max, _tamper_below_min, _tamper_between, _tamper_zero)


@st.composite
def tampered_certificates(draw):
    """(base, certificate, tampered): a certificate of a subset of the base,
    in subset mode or fold mode, with up to two faults drawn from a bad
    count, a repeated, descending, negative or missing value, a target off
    by one and empty parts; the target sums the parts with or without their
    counts."""
    base = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    values = sorted(draw(st.sets(st.sampled_from(base), max_size=len(base))))
    fold = draw(st.booleans())
    parts = [[v, draw(st.integers(1, 3)) if fold else 1] for v in values]
    target_shift = 0
    kinds = draw(st.lists(st.sampled_from(PART_TAMPERS + ("sum", "empty")), max_size=2))
    for kind in kinds:
        if kind == "sum":
            target_shift += draw(st.sampled_from([-1, 1]))
        elif kind == "empty":
            parts.clear()
        elif parts:
            kind(draw, base, parts, draw(st.integers(0, len(parts) - 1)))
    total = sum(c for _, c in parts)
    budget = max(1, total + draw(st.integers(-1, 1))) if fold else 0
    # a target that ignores the counts makes a bad count the only fault
    blind = draw(st.booleans())
    target = sum(v * (1 if blind else c) for v, c in parts) + target_shift
    sol = CompactSolution(tuple(map(tuple, parts)), target, budget)
    return S(base), sol, bool(kinds)


@st.composite
def subset_part_lists(draw):
    """(base, certificate) in subset mode: distinct values of the base,
    sorted, maybe with a value from around the base among them, one value
    repeated and one swapped with its neighbour, each with a count among 0,
    1, 2 and True, and a target that sums the values or misses by one; the
    parts may be empty."""
    base = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    values = draw(st.sets(st.sampled_from(base), max_size=len(base)))
    sometimes = st.sampled_from([False] * 3 + [True])
    if draw(sometimes):
        values.add(draw(st.integers(-3, 45)))
    values = sorted(values)
    if values and draw(sometimes):
        i = draw(st.integers(0, len(values) - 1))
        values.insert(i, values[i])
    if len(values) > 1 and draw(sometimes):
        i = draw(st.integers(1, len(values) - 1))
        values[i - 1], values[i] = values[i], values[i - 1]
    counts = [draw(st.sampled_from([1] * 8 + [0, 2, True])) for _ in values]
    target = sum(values) + draw(st.sampled_from([0] * 4 + [-1, 1]))
    return S(base), CompactSolution(tuple(zip(values, counts)), target, 0)


class TestVerifySolution:
    def test_examples(self):
        a = S([0, 1, 3])
        assert verify_solution(a, CompactSolution(((1, 1), (3, 1)), 4, 2))
        assert not verify_solution(a, CompactSolution(((3, 2),), 6, 1))
        assert not verify_solution(a, CompactSolution(((2, 1),), 2, 1))

    def test_reason_codes(self):
        a = S([0, 1, 3])
        assert check_solution(a, CompactSolution(((3, 2),), 6, 1)) == "budget-exceeded"
        assert check_solution(a, CompactSolution(((2, 1),), 2, 1)) == "value-not-in-base"
        negative = CompactSolution(((-1, 1),), -1, 1)
        assert check_solution(a, negative) == "value-not-in-base" == check_solution_loop(a, negative)
        lacking = (
            (a, ((4, 1),)),  # above max
            (a, ((1, 1), (4, 1))),  # above max, after a part the base holds
            (S([2, 5]), ((1, 1),)),  # below min
            (S([1, 3]), ((0, 1), (1, 1))),  # 0 when 0 is not in the base
            (S([0, 1, 3, 7]), ((1, 1), (5, 1))),  # between two elements, after a hit
        )
        for base, parts in lacking:
            for budget in (2, 0):
                sol = CompactSolution(parts, sum(v * c for v, c in parts), budget)
                assert check_solution(base, sol) == "value-not-in-base", (base, parts, budget)
        assert check_solution(a, CompactSolution(((1, 1),), 2, 1)) == "sum-mismatch"
        assert check_solution(a, CompactSolution(((1, 2),), 2, 0)) == "count-not-one"
        # a negative budget bounds nothing: any multiplicity would pass the
        # budget test, so it fails first, before the parts are read
        b = S([0, 1, 5])
        over = CompactSolution(((5, 100),), 500, -1)
        assert check_solution(b, over) == "negative-fold-budget" == check_solution_loop(b, over)
        assert check_certificate(b, over, -1, 500) == "negative-fold-budget"
        assert check_solution(b, CompactSolution(((5, 100),), 500, 3)) == "budget-exceeded"
        faulty = CompactSolution(((7, 0),), 1, -2)  # a part fault as well
        assert check_solution(a, faulty) == "negative-fold-budget"

    @pytest.mark.parametrize("parts, target, reason", [
        (((0, 1), (1, 1), (3, 1)), 4, None),
        ((), 0, None),
        ((), 1, "sum-mismatch"),
        (((1, 1), (3, 1)), 5, "sum-mismatch"),
        (((1, 1), (3, 1)), 3, "sum-mismatch"),
        (((1, 1), (3, -1)), -2, "nonpositive-count"),
        # the targets ignore the counts, so only the count is wrong
        (((1, 1), (3, 2)), 4, "count-not-one"),
        (((1, 0), (3, 1)), 4, "nonpositive-count"),
        (((1, 1), (1, 1)), 2, "parts-not-sorted-distinct"),  # repeated value
        (((3, 1), (1, 1)), 4, "parts-not-sorted-distinct"),  # descending pair
        (((-1, 1), (1, 1)), 0, "value-not-in-base"),  # negative: in order, not in the base
        # two faults: the first in part order wins
        (((4, 1), (1, 2)), 6, "value-not-in-base"),
        (((1, 2), (4, 1)), 6, "count-not-one"),
        (((3, 1), (1, 1), (4, 1)), 8, "parts-not-sorted-distinct"),
        (((1, 1), (2, 1), (1, 1)), 4, "value-not-in-base"),
        (((1, 0), (2, 1)), 99, "nonpositive-count"),
    ])
    def test_subset_mode_reason_codes(self, parts, target, reason):
        a = S([0, 1, 3])
        sol = CompactSolution(parts, target, 0)
        assert check_solution(a, sol) == reason == check_solution_loop(a, sol)

    @given(tampered_certificates())
    def test_passes_match_the_per_part_loop(self, case):
        base, sol, tampered = case
        assert check_solution(base, sol) == check_solution_loop(base, sol)
        if not tampered and sol.fold_budget == 0:
            assert check_solution(base, sol) is None

    @settings(max_examples=500)
    @given(subset_part_lists())
    def test_one_pass_accept_matches_the_unzip(self, case):
        base, sol = case
        assert check_solution(base, sol) == check_solution_by_zip(base, sol)

    def test_mixed_part_widths_raise_like_the_loop(self):
        # the unzip cut a 3-tuple part to its first two fields and accepted
        # it; the one-pass accept unpacks each part, as the per-part loop does
        base = S([1, 3])
        for parts in (((1, 1), (3, 1, 0)), ((1, 1, 0), (3, 1))):
            sol = CompactSolution(parts, 4, 0)
            assert check_solution_by_zip(base, sol) is None
            for check in (check_solution, check_solution_loop):
                with pytest.raises(ValueError):
                    check(base, sol)

    def test_fold_mode_builds_no_member_set(self):
        base = S(range(0, 300, 3))
        for sol in (CompactSolution(((3, 2), (9, 1)), 15, 3),  # valid
                    CompactSolution(((3, 1), (4, 1)), 7, 2)):  # value-not-in-base
            check_solution(base, sol)
            assert "members" not in vars(base)

    def test_subset_mode_builds_the_member_set_once(self, monkeypatch):
        builds = []

        def spy(elems):
            builds.append(len(elems))
            return frozenset(elems)

        monkeypatch.setattr(apcert.core, "frozenset", spy, raising=False)
        base = S(range(0, 300, 3))
        assert check_solution(base, CompactSolution(((3, 1), (9, 1)), 12, 0)) is None
        assert check_solution(base, CompactSolution(((3, 1), (4, 1)), 7, 0)) == (
            "value-not-in-base")
        assert builds == [100]
        assert base == S(range(0, 300, 3)) and hash(base) == hash(S(range(0, 300, 3)))

    def test_agrees_with_naive_checker_exhaustively(self):
        universe = [0, 1, 2, 5]
        base = S(universe)
        part_values = [0, 1, 2, 3, 5]
        for n_parts in range(0, 3):
            for combo in itertools.combinations(part_values, n_parts):
                for counts in itertools.product([1, 2], repeat=n_parts):
                    parts = tuple(zip(combo, counts))
                    target = sum(v * c for v, c in parts)
                    for budget in (0, 1, 3):
                        sol = CompactSolution(parts, target, budget)
                        assert verify_solution(base, sol) == naive_check(
                            universe, parts, target, budget
                        )
                    bad = CompactSolution(parts, target + 1, 4)
                    assert not verify_solution(base, bad)


class TestArithProgression:
    def test_terms(self):
        p = ArithProgression(3, 2, 4)
        assert list(p.terms()) == [3, 5, 7, 9, 11]
        assert p.term(0) == 3 and p.term(4) == 11 and p.last == 11

    def test_term_out_of_range(self):
        with pytest.raises(OutOfRange):
            ArithProgression(0, 1, 3).term(4)


class TestRandomSource:
    def test_deterministic(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.uniform_int(0, 99) for _ in range(20)] == [
            b.uniform_int(0, 99) for _ in range(20)
        ]
        assert a.draws == 20

    def test_derive_stable_and_independent(self):
        r = RandomSource(7)
        c1 = r.derive("query", 3)
        c2 = r.derive("query", 3)
        c3 = r.derive("query", 4)
        assert c1.seed == c2.seed != c3.seed

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("span", [1, 2, 2**5, 2**5 + 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63,
                                      2**63 + 1, 2**64, 2**64 + 1, 2**70 + 3])
    def test_uniform_int_matches_next64_reference(self, seed, span):
        # 2**63 + 1 rejects close to half of all words; spans past 2**64
        # take the chained-word branch
        got, ref = RandomSource(seed), RandomSource(seed)
        for lo in (0, 5, -(2**40)):
            draws = [got.uniform_int(lo, lo + span - 1) for _ in range(40)]
            assert draws == [uniform_int_by_next64(ref, lo, lo + span - 1) for _ in range(40)]
            assert all(lo <= x < lo + span for x in draws)
            assert (got.draws, got._state) == (ref.draws, ref._state)
        assert got.draws == 120

    def test_empty_range_draws_nothing(self):
        r = RandomSource(3)
        with pytest.raises(ValueError):
            r.uniform_int(2, 1)
        assert (r.draws, r._state) == (0, 3)


class TestFromCounts:
    """`CompactSolution.from_counts`, which sorts the items and builds past the
    dataclass constructor, against the constructor of tests/oracle.py."""

    @given(
        counts=st.dictionaries(st.integers(0, 2**62), st.integers(0, 10**6), max_size=12),
        target=st.integers(-5, 2**70),
        fold_budget=st.integers(-2, 400),
    )
    def test_equal_hash_equal_and_repr_equal(self, counts, target, fold_budget):
        got = from_counts_by_constructor(counts, target, fold_budget)
        sol = CompactSolution.from_counts(dict(counts), target, fold_budget)
        assert type(sol) is CompactSolution
        assert sol == got and hash(sol) == hash(got) and repr(sol) == repr(got)
        assert vars(sol) == vars(got)
        assert all(c for _, c in sol.parts)
        assert [v for v, _ in sol.parts] == sorted(v for v, c in counts.items() if c)

    def test_zero_counts_are_dropped(self):
        sol = CompactSolution.from_counts({9: 2, 4: 0, 1: 3, 7: 0}, 21, 5)
        assert sol == CompactSolution(((1, 3), (9, 2)), 21, 5)
        assert CompactSolution.from_counts({4: 0}, 0, 1).parts == ()
        assert CompactSolution.from_counts({}, 0, 0) == CompactSolution((), 0, 0)

    def test_frozen_like_the_constructor(self):
        sol = CompactSolution.from_counts({3: 1}, 3, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.target = 4
        assert {sol: 1}[CompactSolution(((3, 1),), 3, 1)] == 1


class TestFileFormat:
    def test_comments_and_whitespace(self):
        text = "# heading\n1 2\t3\n4 # trailing\n"
        assert parse_int_set_text(text) == [1, 2, 3, 4]

    def test_non_integer_token_is_named(self):
        with pytest.raises(PreconditionViolated) as exc:
            parse_int_set_text("1 2\n3 4.5 # x\n")
        assert exc.value.name == "malformed-input"
        assert exc.value.detail == "line 2: '4.5' is not an integer"

    def test_signed_ascii_decimals_are_read(self):
        assert parse_int_set_text("+7 -3 007 0 -0\n") == [7, -3, 7, 0, 0]

    # int() reads each of these tokens, but none is an ASCII [+-]?[0-9]+ token
    @pytest.mark.parametrize("tok", [
        "1_000", "\u0663", "\uff11\uff12", "\u00b2", "+-1", "-", "1e3", "0x10", "5.", "\u0661_0",
    ], ids=["underscore", "arabic-indic", "fullwidth", "superscript", "two-signs", "sign-only",
            "exponent", "hex", "trailing-dot", "arabic-indic-underscore"])
    def test_only_ascii_decimal_tokens(self, tok):
        with pytest.raises(PreconditionViolated) as exc:
            parse_int_set_text(f"1 {tok} 2\n")
        assert exc.value.name == "malformed-input"
        assert exc.value.detail == f"line 1: {tok!r} is not an integer"

    def test_ascii_whitespace_separates(self):
        assert parse_int_set_text("1\t2\r\n3\x0b4\x0c5 6\n") == [1, 2, 3, 4, 5, 6]

    # str.split() and str.splitlines() would take each of these as a separator
    @pytest.mark.parametrize("text, line, tok", [
        ("1\u00a02\n", 1, "1\u00a02"),
        ("1\u20032\n", 1, "1\u20032"),
        ("1\x1c2\n", 1, "1\x1c2"),
        ("\x1c5\n", 1, "\x1c5"),
        ("7 \x85\n", 1, "\x85"),
        ("1\u20282\n", 1, "1\u20282"),
        ("1\x0c2\x1c3\nx\n", 1, "2\x1c3"),
        ("1\x0c2\n3\nx\n", 3, "x"),
        ("1\r2\r\nx\n", 2, "x"),
    ], ids=["no-break-space", "em-space", "file-separator", "leading-file-separator",
            "next-line", "line-separator", "form-feed-then-file-separator",
            "form-feed-is-no-line-break", "lone-cr-is-no-line-break"])
    def test_only_ascii_whitespace_separates_and_only_lf_breaks_lines(self, text, line, tok):
        with pytest.raises(PreconditionViolated) as exc:
            parse_int_set_text(text)
        assert exc.value.name == "malformed-input"
        assert exc.value.detail == f"line {line}: {tok!r} is not an integer"

    def test_undecodable_file_is_named(self, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe1 2\n")
        with pytest.raises(PreconditionViolated) as exc:
            load_int_set(str(path))
        assert exc.value.name == "malformed-input"
