"""Each benchmark workload runs end to end for a fraction of a second, plain
and traced, so a change to what the benchmark reads of apcert (an attribute
of a result or of a solver, the shape of a return value, a name it calls)
fails the unit suite, and not only a benchmark run. The traced run also
reads what the per-layer counts need, such as `UnboundedSolver.inv_an`.
`tests/test_trace_targets.py` checks only the names the traced run wraps.

The runs use a copy of `perfbench/` and `src/`, so the trace files they
write stay out of the checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return root


@pytest.mark.parametrize("trace", ["0", "1"], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", [
    "kfold-certify", "subsetsum-certify", "unbounded-stream", "dense-decide",
])
def test_workload_runs_and_checks(bench_root, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(bench_root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["attempted"] > 0
