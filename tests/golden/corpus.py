"""The golden corpus: fixed inputs, CLI invocations and library witnesses
whose output bytes are pinned in the files next to this module.

Layout under tests/golden/:

  inputs/<name>.txt    integer-set files, written from INPUTS
  cli/<case>.json      argv and exit code of one CLI case
  cli/<case>.stdout    the exact stdout bytes of that case
  library.json         per library case: the progression and a SHA-256 over
                       the certificates of all its terms, for a multi-round
                       subset-sum case also its rounds and coreset, or for a
                       dense search case the region and a SHA-256 over the
                       subsets found for its seeded targets

`tests/test_golden.py` compares the program against these files and
`regen.py` rewrites them from the tables below, so a deliberate change of
output bytes is one command and shows up as a reviewed diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SEED = 7


def _r1() -> list[int]:
    # {0, 1} plus m/50 seeded values at m = 2000: a diff-1 leaf, no layers
    return sorted({0, 1} | set(random.Random(2000).sample(range(2, 2001), 40)))


def _top() -> list[int]:
    # {0, 1} plus a block near the top at m = 1200: the endpoint scan stops
    # at u = 899, so the restricted pairs (0, u+1) and (1, u+b) do not collapse
    return sorted({0, 1} | set(random.Random(1200).sample(range(900, 1201), 50)))


INPUTS = {
    "r1": _r1,
    "top": _top,
    # multiples of 6, 10 or 15: closest gap 2, two augmentation layers
    "m61015": lambda: [v for v in range(3001) if v % 6 == 0 or v % 10 == 0 or v % 15 == 0],
    "consecutive300": lambda: list(range(1, 301)),
    # the bridge gaps have gcd 2
    "one_evens": lambda: [1] + list(range(2, 601, 2)),
    # one augmentation round goes through a residue ladder
    "evens_odds": lambda: list(range(2, 601, 2)) + list(range(601, 900, 2)),
    # tuned build exhausts: too few gap-1 pairs after uniformizing
    "sparse90": lambda: sorted(random.Random(3003).sample(range(1, 301), 90)),
    "coins_d1": lambda: [1000, 1001, 1003, 1007, 1013],
    "coins_d2": lambda: [1002, 1004, 1010, 1013],
    "evens10k": lambda: list(range(2, 10001, 2)),
    "consecutive5000": lambda: list(range(1, 5001)),
    # gamma 2 with three odd strays: near hi the reduced target is flipped
    "evens_strays": lambda: [3] + list(range(2, 10001, 2)) + [4999, 9999],
    # ell = 10^4 takes 14 and 13 augmentation rounds on these two
    "consecutive10k": lambda: list(range(1, 10001)),
    "half10k": lambda: sorted(random.Random(10000).sample(range(1, 10001), 5000)),
}


def _sumset(case, inp, m, k):
    return (case, ["ap-sumset", "--input", f"inputs/{inp}.txt", "--m", str(m), "--k", str(k),
                   "--seed", str(SEED), "--json", "--sample", "9"])


def _subsetsum(case, inp, ell, profile="tuned"):
    return (case, ["ap-subsetsum", "--input", f"inputs/{inp}.txt", "--ell", str(ell),
                   "--profile", profile, "--seed", str(SEED), "--json", "--sample", "9"])


def _solver(case, command, inp, target):
    return (case, [command, "--input", f"inputs/{inp}.txt", "--target", str(target),
                   "--seed", str(SEED), "--json"])


# (case name, argv); paths are relative to tests/golden. The targets sit just
# above the unbounded threshold and at the low end of the dense region.
CLI_CASES = (
    _sumset("ap-sumset-r1", "r1", 2000, 48),
    _sumset("ap-sumset-m61015", "m61015", 3000, 4),
    _subsetsum("ap-subsetsum-consecutive", "consecutive300", 300),
    _subsetsum("ap-subsetsum-gcd2", "one_evens", 600),
    _subsetsum("ap-subsetsum-ladder", "evens_odds", 899),
    _subsetsum("ap-subsetsum-exhausted", "sparse90", 300),
    _subsetsum("ap-subsetsum-paper", "consecutive300", 300, "paper"),
    _solver("unbounded-d1", "unbounded", "coins_d1", 85174074 + 12345),
    _solver("unbounded-d2", "unbounded", "coins_d2", 113679540 + 777),
    _solver("dense-evens-yes", "dense", "evens10k", 1160232),
    _solver("dense-evens-no", "dense", "evens10k", 1160233),
    _solver("dense-consecutive-yes", "dense", "consecutive5000", 290058),
    ("verify-r1", ["verify", "--report", "cli/ap-sumset-r1.stdout",
                   "--input", "inputs/r1.txt", "--json"]),
)

# (case name, builder, input, length argument, fold or None); every term of
# the built witness is certified with RandomSource(SEED).derive("query", j).
# A "subsetsum-rounds" case certifies ROUNDS_TERMS evenly spaced terms only.
# A "dense-search" case is (case name, "dense-search", input, number of yes
# targets, width of the window below hi they are drawn from or None for the
# whole region); each is searched with RandomSource(SEED).derive("dense", t)
LIBRARY_CASES = (
    ("ap-sumset-r1", "ap-sumset", "r1", 2000, 48),
    ("ap-sumset-m61015", "ap-sumset", "m61015", 3000, 4),
    ("ap-sumset-top", "ap-sumset", "top", 1200, 24),
    ("ap-subsetsum-consecutive", "ap-subsetsum", "consecutive300", 300, None),
    ("ap-subsetsum-gcd2", "ap-subsetsum", "one_evens", 600, None),
    ("ap-subsetsum-ladder", "ap-subsetsum", "evens_odds", 899, None),
    ("dense-search-consecutive", "dense-search", "consecutive5000", 100, None),
    ("dense-search-evens", "dense-search", "evens10k", 100, None),
    ("dense-search-flip", "dense-search", "evens_strays", 100, 10**4),
    ("subsetsum-rounds-consecutive", "subsetsum-rounds", "consecutive10k", 10**4, None),
    ("subsetsum-rounds-half", "subsetsum-rounds", "half10k", 10**4, None),
)
ROUNDS_TERMS = 100


def input_text(name: str) -> str:
    return " ".join(map(str, INPUTS[name]())) + "\n"


def resolve(argv) -> list[str]:
    """argv with the file operands made absolute under tests/golden."""
    out = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok in ("--input", "--report"):
            out[i + 1] = str(GOLDEN / argv[i + 1])
    return out


def run_cli(argv) -> tuple[int, bytes]:
    """Run one CLI case in-process; returns (exit code, stdout bytes)."""
    from apcert.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolve(argv))
    return code, out.getvalue().encode()


def build_witness(builder: str, inp: str, length: int, fold):
    from apcert.profiles import TUNED
    from apcert.subsetsum_ap import ap_in_subset_sums
    from apcert.sumset_ap import ap_in_kfold_sumset

    values = INPUTS[inp]()
    if builder == "ap-sumset":
        return ap_in_kfold_sumset(values, length, fold).witness
    return ap_in_subset_sums(values, length, TUNED, SEED).witness


def dense_targets(decomp, count: int, window) -> list[int]:
    """The first `count` seeded yes targets of the region, or of its top
    `window` values."""
    from apcert.dense import dense_decide

    lo, hi = decomp.region()
    if window is not None:
        lo = max(lo, hi - window)
    rnd = random.Random(SEED)
    out: list[int] = []
    while len(out) < count:
        t = rnd.randint(lo, hi)
        if dense_decide(decomp, t):
            out.append(t)
    return out


def dense_record(case) -> dict:
    """The region of one dense search case and a SHA-256 over the canonical
    JSON of the subset found for each target, one line per target."""
    from apcert.core import RandomSource
    from apcert.dense import build_rpg, dense_search
    from apcert.profiles import TUNED

    _, _, inp, count, window = case
    decomp = build_rpg(INPUTS[inp](), TUNED, SEED)
    h = hashlib.sha256()
    for t in dense_targets(decomp, count, window):
        subset = dense_search(decomp, t, RandomSource(SEED).derive("dense", t))
        h.update(json.dumps([t, subset], separators=(",", ":")).encode() + b"\n")
    return {"gamma": decomp.gamma, "region": list(decomp.region()), "targets": count,
            "sha256": h.hexdigest()}


def certificates_sha256(witness, indices) -> str:
    """A SHA-256 over the canonical JSON of the certificates of `indices`,
    one line per term."""
    from apcert.core import RandomSource

    h = hashlib.sha256()
    for j in indices:
        sol = witness.query(j, RandomSource(SEED).derive("query", j))
        line = [j, sol.target, sol.fold_budget, [[v, c] for v, c in sol.parts]]
        h.update(json.dumps(line, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def rounds_record(case) -> dict:
    """The progression, rounds and coreset of one multi-round subset-sum
    build and a SHA-256 over ROUNDS_TERMS evenly spaced certificates."""
    from apcert.profiles import TUNED
    from apcert.subsetsum_ap import ap_in_subset_sums

    _, _, inp, length, _ = case
    res = ap_in_subset_sums(INPUTS[inp](), length, TUNED, SEED)
    ap = res.ap
    indices = [i * ap.length // (ROUNDS_TERMS - 1) for i in range(ROUNDS_TERMS)]
    return {"ap": [ap.start, ap.diff, ap.length], "rounds": res.rounds,
            "coreset": list(res.coreset), "terms": ROUNDS_TERMS,
            "sha256": certificates_sha256(res.witness, indices)}


def library_record(case) -> dict:
    """The progression of one library case and a SHA-256 over the canonical
    JSON of every term's certificate."""
    _, builder, inp, length, fold = case
    if builder == "dense-search":
        return dense_record(case)
    if builder == "subsetsum-rounds":
        return rounds_record(case)
    witness = build_witness(builder, inp, length, fold)
    ap = witness.ap
    return {"ap": [ap.start, ap.diff, ap.length], "terms": ap.length + 1,
            "sha256": certificates_sha256(witness, range(ap.length + 1))}
