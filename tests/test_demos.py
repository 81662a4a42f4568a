"""Smoke test: every numbered demo runs to completion against the library."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the demos write their SVGs into the working directory
    runpy.run_path(str(path), run_name="__main__")
    capsys.readouterr()
