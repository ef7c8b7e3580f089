"""`SortedIntSet._ordered` trusts its caller for the order of the tuple. Here
the private constructor is patched to run the full validating pass and to
fail on any fault, and the golden library cases and one small build of each
pipeline run under the patch. A call site whose order does not hold fails
here, whether or not its build would go on to a wrong certificate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from apcert import (
    TUNED,
    PreconditionViolated,
    RandomSource,
    SortedIntSet,
    ap_in_kfold_sumset,
    ap_in_subset_sums,
    build_rpg,
    check_solution,
    dense_decide,
    dense_search,
)

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).resolve().parent / "golden" / "corpus.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

LIBRARY = json.loads((corpus.GOLDEN / "library.json").read_text())

# the functions that call the private constructor
SITES = {
    "from_iterable", "normalize", "without",  # core
    "find_gamma", "build_rpg",  # dense
    "ap_in_subset_sums",  # subsetsum_ap
    "ap_restricted", "_closest_class",  # sumset_ap
}


@pytest.fixture
def sites(monkeypatch):
    """Patch the private constructor to validate in full; returns the set
    of the functions it was called from."""
    ordered = SortedIntSet._ordered.__func__
    reached = set()

    def validated(cls, elems):
        caller = sys._getframe(1).f_code.co_name
        try:
            SortedIntSet(elems)
        except PreconditionViolated as exc:
            # not an ApcertError, so no handler in the package absorbs it
            raise AssertionError(f"{caller} built an invalid set: {exc}") from None
        reached.add(caller)
        return ordered(cls, elems)

    monkeypatch.setattr(SortedIntSet, "_ordered", classmethod(validated))
    return reached


@pytest.mark.parametrize("case", corpus.LIBRARY_CASES, ids=[c[0] for c in corpus.LIBRARY_CASES])
def test_golden_library_cases(sites, case):
    assert corpus.library_record(case) == LIBRARY[case[0]]
    assert sites and sites <= SITES


def _check_terms(base, witness, count=8):
    ap = witness.ap
    for j in sorted({i * ap.length // (count - 1) for i in range(count)}):
        sol = witness.query(j, RandomSource(3).derive("query", j))
        assert sol.target == ap.term(j)
        assert check_solution(base, sol) is None


def test_one_build_of_each_pipeline_reaches_every_site(sites):
    # k-fold: closest gap 2, so B is a merge of two nonempty runs
    vals = [v for i in range(200) for v in (5 * i, 5 * i + 2)]
    kfold = ap_in_kfold_sumset(vals, max(vals), 3)
    assert kfold.witness.leaf.g == 2
    _check_terms(SortedIntSet.from_iterable(vals), kfold.witness)
    # subset sums: several augmentation rounds, then the coreset
    vals = list(range(1, 1001))
    sub = ap_in_subset_sums(vals, 1000, TUNED, 7)
    assert sub.rounds >= 2
    _check_terms(sub.coreset, sub.witness)
    # dense: gamma 2, so find_gamma's reduced set is a set of quotients
    vals = [2 * x for x in range(1, 441)]
    dense = build_rpg(vals, TUNED, seed=2)
    assert dense.gamma == 2
    lo, hi = dense.region()
    base = set(vals)
    targets = [t for t in range(lo, hi + 1, max(1, (hi - lo) // 7)) if dense_decide(dense, t)]
    assert targets
    for t in targets:
        subset = dense_search(dense, t, RandomSource(3).derive("dense", t))
        assert sum(subset) == t and len(set(subset)) == len(subset) and base.issuperset(subset)
    assert sites == SITES
