"""The public API of `apcert` is exactly this list, and every name in it
resolves, so a deletion that misses `__init__.py` fails here. The package
also stays one process: no module of it imports a process or thread pool.
The checking kernel, `apcert.core`, imports only the standard library. And
every set built without the full order pass says why its order holds."""

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


REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(apcert.__file__).parent

# every module core imports, anywhere in the file; a relative import would
# show as ".name"
CORE_IMPORTS = ["__future__", "bisect", "dataclasses", "functools", "hashlib", "itertools",
                "math", "operator", "typing"]


def test_core_imports_only_the_standard_library():
    # the checks share no code with the builders whose output they check
    path = PACKAGE / "core.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    assert sorted(found) == CORE_IMPORTS


def _calls(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node


def test_ordered_sets_state_why_their_order_holds():
    # `SortedIntSet._ordered` skips the order pass, so only the package
    # calls it, and each call has a comment on the line above saying why
    # its tuple is strictly increasing
    outside, unexplained = [], []
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((REPO / top).rglob("*.py")):
            lines = path.read_text().splitlines()
            for node in _calls(path):
                if node.func.attr != "_ordered":
                    continue
                where = f"{path.relative_to(REPO)}:{node.lineno}"
                if path.parent != PACKAGE:
                    outside.append(where)
                elif not lines[node.lineno - 2].strip().startswith("# "):
                    unexplained.append(where)
    assert outside == []
    assert unexplained == []


def test_only_core_builds_a_set_past_its_constructor():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
        for node in _calls(path)
        if node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
    ]
    assert found == []
