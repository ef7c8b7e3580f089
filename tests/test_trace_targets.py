"""The benchmark's traced run wraps named functions and methods of apcert
(`perfbench/tracing.py`, `TARGETS`) and refuses to report when one is gone.
This test reads that table, so a refactor that moves or renames a wrap
target fails the unit suite, and not only a traced benchmark run. The
ladder wrap points must also stay on the query path: a spy in their place
sees one call per ladder layer for every query of a golden build."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from apcert.augment import LadderLayer
from apcert.core import RandomSource
from apcert.subsetsum_ap import ResidueLadderAccessor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).resolve().parent / "golden" / "corpus.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def test_every_trace_target_is_defined(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.Recorder().missing == []


def assert_one_call_per_ladder(monkeypatch, witness, cls, name):
    """Every query of `witness` calls cls.name once on each of its layers of
    class `cls`, outermost first, and on nothing else."""
    ladders = [layer for layer in witness.layers if type(layer) is cls]
    assert ladders
    calls = []
    real = getattr(cls, name)

    def spy(self, i):
        calls.append(self)
        return real(self, i)

    monkeypatch.setattr(cls, name, spy)
    for j in range(witness.ap.length + 1):
        calls.clear()
        witness.query(j, RandomSource(j))
        assert calls == ladders, j


@pytest.mark.parametrize("ell", [899, 1798])
def test_residue_ladder_lookup_is_on_the_subset_sum_query_path(monkeypatch, ell):
    witness = corpus.build_witness("ap-subsetsum", "evens_odds", ell, None)
    assert_one_call_per_ladder(monkeypatch, witness, ResidueLadderAccessor, "lookup")


def test_ladder_resolve_is_on_the_kfold_query_path(monkeypatch):
    witness = corpus.build_witness("ap-sumset", "m61015", 3000, 4)
    assert_one_call_per_ladder(monkeypatch, witness, LadderLayer, "resolve")
