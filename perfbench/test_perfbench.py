"""Tests of the benchmark harness: the correctness gate fails a run on a
tampered answer and on a build or op that raises, the printed metrics match
BENCHMARK.json, exact counts repeat for a fixed seed, a traced run refuses to
report when a wrap target is gone, quantiles read from the latency histogram
are exact to its bin width, and a checkout without sources gets no result.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

import workloads  # noqa: E402
import pytest  # noqa: E402

from apcert import augment, core, dense, unbounded  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_tampered_certificate_fails_the_run(monkeypatch, capsys):
    real = augment.ApWitness.query
    calls = []

    def bump_one_count(self, j, rng):
        sol = real(self, j, rng)
        calls.append(j)
        if len(calls) == 5:
            i = next(i for i, (v, _) in enumerate(sol.parts) if v)
            parts = list(sol.parts)
            parts[i] = (parts[i][0], parts[i][1] + 1)
            sol = core.CompactSolution(tuple(parts), sol.target, sol.fold_budget)
        return sol

    monkeypatch.setattr(augment.ApWitness, "query", bump_one_count)
    code, lines, result = _run(
        capsys, "--workload", "kfold-certify", "--seed", "3", "--seconds", "0.3")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any(line.startswith("# FAILED:") and "sum-mismatch" in line for line in lines)


def test_tampered_multiplier_fails_the_run(monkeypatch, capsys):
    real = unbounded.UnboundedSolver.solve

    def shift_one_multiplier(self, t, rng):
        sol = real(self, t, rng)
        (a, x), *rest = sol.multipliers
        return unbounded.UnboundedSolution(((a, x + 1), *rest), t)

    monkeypatch.setattr(unbounded.UnboundedSolver, "solve", shift_one_multiplier)
    code, _, result = _run(
        capsys, "--workload", "unbounded-stream", "--seed", "3", "--seconds", "0.2")
    assert code == 1
    assert result["correct"] is False
    builds = workloads.UnboundedStream.setup_reps * len(workloads.UnboundedStream.INPUTS)
    assert result["failed"] == result["attempted"] - builds


def test_op_that_raises_fails_the_run(monkeypatch, capsys):
    real = augment.ApWitness.query
    calls = []

    def broken_contract(self, j, rng):
        calls.append(j)
        if len(calls) == 3:
            raise core.InternalContract("certificate sums to 1, wanted 2")
        return real(self, j, rng)

    monkeypatch.setattr(augment.ApWitness, "query", broken_contract)
    code, lines, result = _run(
        capsys, "--workload", "unbounded-stream", "--seed", "3", "--seconds", "0.2")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["metrics"] == {}
    assert any(line.startswith("# FAILED:") and "InternalContract" in line for line in lines)


def test_build_that_raises_fails_the_run(monkeypatch, capsys):
    real = unbounded.UnboundedSolver.__init__

    def refuse_one(self, a):
        if a[0] == 1002:
            raise core.Exhausted("no progression found")
        real(self, a)

    monkeypatch.setattr(unbounded.UnboundedSolver, "__init__", refuse_one)
    code, lines, result = _run(
        capsys, "--workload", "unbounded-stream", "--seed", "3", "--seconds", "0.2")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2
    assert result["metrics"] == {}
    assert any(line.startswith("# FAILED: U2: build raised Exhausted") for line in lines)


def test_traced_run_refuses_when_a_wrap_target_is_gone(monkeypatch, capsys):
    monkeypatch.delattr(dense, "modular_subset_sum")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "unbounded-stream", "--seed", "3", "--seconds", "0.2",
                  "--trace", "1"])
    assert "dense.modular_subset_sum" in str(exc.value.code)
    assert not capsys.readouterr().out.splitlines()[-1].startswith("{")


def test_histogram_quantiles_match_exact_ones():
    rnd = random.Random(7)
    xs = [rnd.lognormvariate(-10, 0.7) for _ in range(20_000)]
    hist = run.Histogram()
    for x in xs:
        hist.add(x)
    xs.sort()
    for q, exact in ((0.5, statistics.median(xs)), (0.99, xs[int(0.99 * len(xs)) - 1])):
        assert abs(hist.quantile(q) / exact - 1) < 0.003


def test_metric_names_match_the_spec(capsys):
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, _, result = _run(
            capsys, "--workload", "unbounded-stream", "--seed", "5",
            "--seconds", "0.2", "--trace", str(trace))
        assert code == 0 and result["correct"] is True and result["failed"] == 0
        spec = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == spec


def test_exact_counts_repeat_for_a_fixed_seed(capsys):
    counts = (
        "augment.layers", "greedy.accept_ratio", "density_witness.draws_per_query",
        "greedy.steps_calls", "unbounded.distinct_residue_ratio",
    )
    runs = []
    for seconds in ("0.1", "0.4"):
        _, _, result = _run(
            capsys, "--workload", "unbounded-stream", "--seed", "9",
            "--seconds", seconds, "--trace", "1")
        runs.append({name: result["metrics"][name]["value"] for name in counts})
    assert runs[0] == runs[1]
    assert 0 < runs[0]["unbounded.distinct_residue_ratio"] < 1


def test_checkout_without_sources_gets_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "unbounded-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.splitlines()[-1].startswith("{")
