"""The scripts under scripts/ run in-process on their smallest settings, so
an API change that breaks one fails the unit suite and not only a manual run."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name, args", [
    ("sampling_rounds.py", ["--trials", "1", "--queries", "10"]),
    ("coreset_growth.py", ["--trials", "1"]),
])
def test_script_runs(monkeypatch, capsys, name, args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() and rows


# The success map of `coreset_growth.py --trials 2`: built and exhausted
# counts, coreset ranges and the first Exhausted reason of every cell. A build
# change that moves the map must update this copy on purpose.
SUCCESS_MAP = (
    '     m density built exhausted |coreset| bound  first exhausted reason',
    ' 10000    0.05     0         2         -  6240  gap 1 needs multiplicity 13, uniform set has 3',
    ' 10000     0.1     0         2         -  3680  gap 1 needs multiplicity 17, uniform set has 11',
    ' 10000     0.2     2         0   186-192  2240',
    ' 10000     0.3     2         0   178-180  1760',
    ' 10000     0.5     2         0   174-192  1312',
    '100000    0.05     2         0   270-270  8896',
    '100000     0.1     2         0   248-256  5056',
    '100000     0.2     2         0   230-238  2976',
    '100000     0.3     2         0   232-234  2176',
    '100000     0.5     2         0   268-304  1600',
)


def test_success_map_is_pinned(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["coreset_growth.py", "--trials", "2"])
    runpy.run_path(str(SCRIPTS / "coreset_growth.py"), run_name="__main__")
    assert tuple(line.rstrip() for line in capsys.readouterr().out.splitlines()) == SUCCESS_MAP
