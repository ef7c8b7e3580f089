"""The public API of `apcert` is exactly this list, and every name in it
resolves, so a deletion that misses `__init__.py` fails here. The package
also stays one process: no module of it imports a process or thread pool."""

import ast
from pathlib import Path

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


CONCURRENCY = {"multiprocessing", "concurrent", "threading"}


def test_package_runs_in_one_process():
    found = []
    for path in sorted(Path(apcert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in CONCURRENCY]
    assert found == []
