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
