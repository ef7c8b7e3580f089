"""Byte-for-byte comparison against the golden corpus in tests/golden/.

A failure here means the program's output changed. If the change is
deliberate, rewrite the corpus with `python3 tests/golden/regen.py` and say
so in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).resolve().parent / "golden" / "corpus.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

LIBRARY = json.loads((corpus.GOLDEN / "library.json").read_text())


@pytest.mark.parametrize("name", sorted(corpus.INPUTS))
def test_input_files_match_generators(name):
    assert (corpus.GOLDEN / "inputs" / f"{name}.txt").read_text() == corpus.input_text(name)


@pytest.mark.parametrize("case,argv", corpus.CLI_CASES, ids=[c for c, _ in corpus.CLI_CASES])
def test_cli_bytes(case, argv):
    meta = json.loads((corpus.GOLDEN / "cli" / f"{case}.json").read_text())
    assert meta["argv"] == argv
    code, out = corpus.run_cli(argv)
    assert code == meta["exit"]
    assert out == (corpus.GOLDEN / "cli" / f"{case}.stdout").read_bytes()


def test_cli_exit_codes_cover_every_outcome():
    codes = {
        case: json.loads((corpus.GOLDEN / "cli" / f"{case}.json").read_text())["exit"]
        for case, _ in corpus.CLI_CASES
    }
    assert codes["ap-subsetsum-exhausted"] == 4
    assert codes["ap-subsetsum-paper"] == 1
    assert codes["dense-evens-no"] == 3
    assert sorted(set(codes.values())) == [0, 1, 3, 4]
    out = (corpus.GOLDEN / "cli" / "ap-subsetsum-exhausted.stdout").read_text()
    assert "gap 1 needs multiplicity 20, uniform set has 9" in out


@pytest.mark.parametrize("case", corpus.LIBRARY_CASES, ids=[c[0] for c in corpus.LIBRARY_CASES])
def test_certificate_hashes(case):
    assert corpus.library_record(case) == LIBRARY[case[0]]


def test_inputs_take_the_pinned_paths():
    # the ladder input lengthens its progression through a residue ladder
    ladder = corpus.build_witness("ap-subsetsum", "evens_odds", 899, None)
    assert any(type(layer).__name__ == "ResidueLadderAccessor" for layer in ladder.layers)
    # the bridge progression of the gcd-2 input has difference gcd(gaps) = 2,
    # and that of the consecutive input difference 1
    assert corpus.build_witness("ap-subsetsum", "one_evens", 600, None).leaf.ap.diff == 2
    assert corpus.build_witness("ap-subsetsum", "consecutive300", 300, None).leaf.ap.diff == 1
    # the k-fold witness of m61015 has a divisible-pair step at d = 2 with
    # h = 15, on which 336 of its terms take the partial branch 0 < q < h
    from apcert.augment import DivPairLayer

    kfold = corpus.build_witness("ap-sumset", "m61015", 3000, 4)
    ladder_layer, step = kfold.layers
    assert isinstance(step, DivPairLayer) and step.inner.diff == 2
    assert step.h == 15
    inner = [ladder_layer.resolve(j)[0] for j in range(kfold.ap.length + 1)]
    assert sum(step.e <= j < step.threshold for j in inner) == 336


def test_top_input_has_a_positive_endpoint(monkeypatch):
    # every other k-fold case ends its endpoint scan at u = -1, where the
    # restricted pair (0, u+1) collapses to (0, 0); the top case does not
    from apcert import sumset_ap

    calls = []
    scan = sumset_ap.find_dense_endpoint

    def spy(a, m, k):
        calls.append(scan(a, m, k))
        return calls[-1]

    monkeypatch.setattr(sumset_ap, "find_dense_endpoint", spy)
    for case in corpus.LIBRARY_CASES:
        if case[1] == "ap-sumset":
            corpus.build_witness(*case[1:])
    assert [u for u, _ in calls] == [-1, -1, 899]


def test_subsetsum_rounds_resolve_in_one_call(monkeypatch):
    from apcert.core import RandomSource
    from apcert.subsetsum_ap import PairRun, ResidueLadderAccessor

    # 14 rounds of divisible pairs at diff 1 make one run
    w = corpus.build_witness("ap-subsetsum", "consecutive10k", 10**4, None)
    assert [type(layer) for layer in w.layers] == [PairRun]
    calls = []
    tail = PairRun.tail

    def spy(self, j):
        calls.append(j)
        return tail(self, j)

    monkeypatch.setattr(PairRun, "tail", spy)
    w.query(w.ap.length // 3, RandomSource(corpus.SEED))
    assert len(calls) == 1
    # a ladder round ends a run: the rounds before and after it stay apart,
    # and each of the two runs is walked once
    w = corpus.build_witness("ap-subsetsum", "evens_odds", 1798, None)
    assert [type(layer) for layer in w.layers] == [PairRun, ResidueLadderAccessor, PairRun]
    calls.clear()
    w.query(w.ap.length // 3, RandomSource(corpus.SEED))
    assert len(calls) == 2


def test_dense_cases_take_the_pinned_paths():
    from apcert.dense import build_rpg, walk_residue_table
    from apcert.profiles import TUNED

    cases = {case[0]: case for case in corpus.LIBRARY_CASES if case[1] == "dense-search"}
    flips = {}
    for name, (_, _, inp, count, window) in cases.items():
        decomp = build_rpg(corpus.INPUTS[inp](), TUNED, corpus.SEED)
        targets = corpus.dense_targets(decomp, count, window)
        zs = [(t - sum(walk_residue_table(decomp.y_table, t))) // decomp.gamma for t in targets]
        flips[name] = (decomp.gamma, sum(2 * z > decomp.reduced_sum for z in zs))
    # gamma 1 and 2 without a flip, and a case whose targets mostly flip
    assert flips["dense-search-consecutive"] == (1, 0)
    assert flips["dense-search-evens"] == (2, 0)
    gamma, flipped = flips["dense-search-flip"]
    assert gamma == 2 and 0 < flipped < 100
