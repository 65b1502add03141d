"""Every demo runs to the end and prints its report."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert {p.name for p in DEMOS} >= {"rank_two_bridge.py",
                                       "werner_sweep.py",
                                       "worked_example.py",
                                       "oracle_certification.py"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
