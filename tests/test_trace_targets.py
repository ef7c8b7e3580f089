"""The benchmark's traced run wraps named functions and methods of apcert
(`perfbench/tracing.py`, `TARGETS`) and refuses to report when one is gone.
This test reads that table, so a refactor that moves or renames a wrap
target fails the unit suite, and not only a traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_defined(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.Recorder().missing == []
