"""scripts/falsify_router.py, run end to end on a budget of one generation.

The script searches for a counterexample to the sign router's conjecture
and is too slow for the suite at its defaults; one run of one generation
checks that it starts, reads F from tests/conftest.py and reports every
run, physical or not.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "falsify_router.py"


def test_one_generation_reports_and_exits_0(capsys):
    pytest.importorskip("scipy")
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("falsify_router", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # with seed 1 the best point of this run lies outside the physical
    # region, which the script reports as such
    code = script.main(["--seed", "1", "--runs", "1", "--maxiter", "1",
                        "--popsize", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert lines[0].startswith("run 0: "), lines
    assert lines[-1] == "no +-+ or -+- pattern of F' found", lines
