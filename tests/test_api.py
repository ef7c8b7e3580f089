"""The public API of `apcert` is exactly this list, and every name in it
resolves, so a deletion that misses `__init__.py` fails here."""

import apcert

PUBLIC = [
    "ApcertError",
    "ArithProgression",
    "CompactSolution",
    "ConstantsProfile",
    "EmptySet",
    "Exhausted",
    "InternalContract",
    "KfoldApResult",
    "MultiplicityExceeded",
    "NegativeInput",
    "OutOfRange",
    "OutOfRegion",
    "OverflowRisk",
    "PAPER",
    "PROFILES",
    "PreconditionViolated",
    "RandomSource",
    "SortedIntSet",
    "SubsetSumApResult",
    "TUNED",
    "UnboundedSolver",
    "ap_in_kfold_sumset",
    "ap_in_subset_sums",
    "build_rpg",
    "check_solution",
    "dense_decide",
    "dense_search",
    "gcd_all",
    "normalize",
    "solve_residue_coefficient",
]


def test_all_is_the_pinned_list():
    assert apcert.__all__ == PUBLIC


def test_every_listed_name_resolves():
    missing = [name for name in apcert.__all__ if not hasattr(apcert, name)]
    assert missing == []
