"""The C-level passes of the k-fold build against the per-element loops they
replaced (kept in oracle.py): the endpoint scan, the closest-gap class of
ap_short and the gap pairs of an augmentation round must agree value for
value and tie for tie. Plus a guard on the memory the
build allocates beyond what its result keeps."""

import tracemalloc
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from apcert.augment import find_gap_pairs
from apcert.core import SortedIntSet
from apcert.sumset_ap import _closest_class, _scan_min_good_start, ap_in_kfold_sumset
from oracle import (
    closest_class_loop,
    find_gap_pairs_loop,
    scan_two_pointer,
)

S = SortedIntSet.from_iterable


def from_gaps(start, gaps):
    vals = [start]
    for g in gaps:
        vals.append(vals[-1] + g)
    return tuple(vals)


# ---------------------------------------------------------------------------
# endpoint scan
# ---------------------------------------------------------------------------

@st.composite
def scan_inputs(draw):
    """(elems, m, k): gaps of 2k give equal c_j (ties for the maximum); the
    sentinel's gap m + 1 - a_{n-1} is drawn the same way."""
    k = draw(st.integers(1, 4))
    gap = st.sampled_from([1, 2 * k - 1 or 1, 2 * k, 2 * k, 2 * k + 1, 4 * k + 3])
    elems = from_gaps(draw(st.integers(0, 9)), draw(st.lists(gap, max_size=14)))
    m = elems[-1] + draw(gap) - 1
    return elems, m, k


class TestEndpointScan:
    @settings(max_examples=400, deadline=None)
    @given(scan_inputs())
    def test_matches_two_pointer(self, case):
        elems, m, k = case
        assert _scan_min_good_start(elems, m, k) == scan_two_pointer(elems, m, k)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 60), min_size=1, max_size=20), st.integers(0, 40),
           st.integers(1, 6))
    def test_matches_two_pointer_random(self, vals, extra, k):
        elems = tuple(sorted(vals))
        m = elems[-1] + extra
        mirrored = tuple(m - e for e in reversed(elems))
        for e in (elems, mirrored):
            assert _scan_min_good_start(e, m, k) == scan_two_pointer(e, m, k)

    def test_ties_go_to_the_first_index(self):
        # c = (0, 0, 0, 0): every start is good, the first wins
        assert _scan_min_good_start((0, 2, 4), 5, 1) == -1
        # c = (1, 0, 1, 1): the maximum first appears at index 0
        assert _scan_min_good_start((1, 2, 5), 6, 1) == 0

    def test_sentinel_counts(self):
        # the sentinel m + 1 = 10 is the maximum c: the endpoint is m
        assert _scan_min_good_start((0,), 9, 1) == 9 == scan_two_pointer((0,), 9, 1)
        assert _scan_min_good_start((0, 1), 9, 4) == -1 == scan_two_pointer((0, 1), 9, 4)


# ---------------------------------------------------------------------------
# closest-gap class of ap_short
# ---------------------------------------------------------------------------

@st.composite
def class_sets(draw):
    """Sets built from gaps near g, from any start: the closest gap repeats,
    and classes of equal size tie."""
    g = draw(st.integers(1, 5))
    gap = st.sampled_from([g, g, g + 1, 2 * g, 2 * g + 1, 3 * g])
    gaps = [g] + draw(st.lists(gap, max_size=16))
    gaps = draw(st.permutations(gaps))
    return SortedIntSet(from_gaps(draw(st.integers(0, 3 * g)), gaps))


class TestClosestClass:
    @settings(max_examples=400, deadline=None)
    @given(class_sets())
    def test_matches_the_loops(self, a):
        assert _closest_class(a.elems) == closest_class_loop(a)

    def test_ties(self):
        # gaps 2, 2, 2: a* is the first; all odd, so one class
        a = SortedIntSet((1, 3, 5, 7))
        assert _closest_class(a.elems)[:4] == (2, 1, 1, 1)
        # residues mod 3: {0: 2, 1: 2}, the smaller residue wins the tie
        a = SortedIntSet((0, 4, 7, 12))
        g, a_star, t, a_prime, in_class, b_set = _closest_class(a.elems)
        assert (g, a_star, t, a_prime) == (3, 4, 2, 0)
        assert in_class == bytes([1, 0, 0, 0, 1, 0]) and b_set.elems == (0, 1, 4, 5)
        assert _closest_class(a.elems) == closest_class_loop(a)


# ---------------------------------------------------------------------------
# gap pairs
# ---------------------------------------------------------------------------

@st.composite
def gap_pair_inputs(draw):
    """(A, d, m): runs of divisible gaps (equal lengths tie for the longest)
    between non-divisible gaps (equal values tie for the smallest)."""
    d = draw(st.integers(2, 6))
    div = st.sampled_from([d, d, 2 * d, 3 * d])
    nondiv = st.sampled_from([1, d - 1 or 1, d + 1, d + 1, 2 * d + 1])
    gaps = []
    for run in draw(st.lists(st.integers(0, 8), min_size=1, max_size=6)):
        gaps += [draw(div) for _ in range(run)] + [draw(nondiv)]
    gaps += [draw(div) for _ in range(draw(st.integers(0, 8)))]
    vals = from_gaps(0, gaps)
    g = 0
    for v in vals:
        g = gcd(g, v)
    if g != 1:
        vals += (vals[-1] + 1,)
    return SortedIntSet(vals), d, vals[-1] + draw(st.integers(0, 5))


class TestFindGapPairs:
    @settings(max_examples=400, deadline=None)
    @given(gap_pair_inputs())
    def test_matches_the_loops(self, case):
        a, d, m = case
        assert find_gap_pairs(a, d, m) == find_gap_pairs_loop(a, d, m)

    def test_first_index_wins(self):
        # gaps 1, 2, 2, 1, 2, 2, 1: the first gap of 1 starts at 0
        a = SortedIntSet((0, 1, 3, 5, 6, 8, 10, 11))
        assert find_gap_pairs(a, 2, 11) == (1, (0, 1), None)
        # gaps of 1 at 4 and 9, divisible runs 0..4, 5..9 and 10..26 (the longest)
        a = SortedIntSet((0, 2, 4, 5, 7, 9, 10, 12, 14, 16, 18, 20, 22, 24, 26))
        assert find_gap_pairs(a, 2, 26) == (2, (4, 1), (10, 16))
        # divisible runs 0..8 and 9..17, of four gaps each, tie for the longest: the first
        a = SortedIntSet((0, 2, 4, 6, 8, 9, 11, 13, 15, 17, 18, 20, 22))
        assert find_gap_pairs(a, 2, 22) == (2, (8, 1), (0, 8))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_build_allocates_at_most_four_times_what_it_keeps():
    """tracemalloc peak of the build over what the result keeps, on the
    multiples of 6, 10 or 15 in [0, 10^5]: the passes build no throw-away
    sets (the build with hash sets peaked at 6.0 times)."""
    m = 10**5
    values = [v for v in range(m + 1) if v % 6 == 0 or v % 10 == 0 or v % 15 == 0]
    k = -(-(m + 1) // len(values))
    tracemalloc.start()
    try:
        res = ap_in_kfold_sumset(values, m, k)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ap.length == m
    assert peak <= 4 * kept, (peak, kept)
