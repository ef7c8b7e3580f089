"""Every committed benchmark record `BENCH_*.json` at the repository root is a
JSON object that holds the JSON line `perfbench/run.py --workload all` printed
(`result`), the host it ran on (`host`: Python version and vCPUs) and the line
counts of the tree it measured (`lines`: `src/apcert` and `core.py`). The
result must carry every end-to-end metric that `BENCHMARK.json` declares, for
each of its workloads, as a positive value in the declared unit, so a later
change can be compared against it."""

import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
class TestBenchFile:
    @staticmethod
    def record(path):
        record = json.loads(path.read_text())
        assert isinstance(record, dict)
        return record

    def test_result_holds_every_end_to_end_metric(self, path):
        result = self.record(path)["result"]
        assert result["correct"] is True and result["failed"] == 0
        metrics = result["metrics"]
        for workload in SPEC["workloads"]:
            for metric in SPEC["end_to_end"]:
                name = f"{workload['name']}.{metric['name']}"
                entry = metrics.get(name)
                assert isinstance(entry, dict) and entry.get("unit") == metric["unit"], (
                    name, entry)
                value = entry.get("value")
                assert isinstance(value, numbers.Real) and not isinstance(value, bool), (
                    name, value)
                assert value > 0, (name, value)

    def test_host_line(self, path):
        host = self.record(path)["host"]
        assert isinstance(host["python"], str) and host["python"][0].isdigit()
        assert type(host["vcpus"]) is int and host["vcpus"] >= 1

    def test_line_counts(self, path):
        lines = self.record(path)["lines"]
        assert set(lines) == {"src/apcert", "src/apcert/core.py"}
        assert all(type(n) is int and n > 0 for n in lines.values())
        assert lines["src/apcert/core.py"] < lines["src/apcert"]
