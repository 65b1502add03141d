"""scripts/falsify_router.py, run end to end on a budget of one generation.

The script searches for a counterexample to the sign router's conjecture
and is too slow for the suite at its defaults; one run of one generation
checks that it starts, reads F from tests/conftest.py and reports every
run, physical or not.  Runs whose search returns a FALSIFY_NEAR_ZERO
state check the 50-digit branch, which a short search never reaches.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import FALSIFY_NEAR_ZERO
from xdiscord import BlochX, f_derivative

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "falsify_router.py"


@pytest.fixture
def script():
    pytest.importorskip("scipy")
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("falsify_router", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_generation_reports_and_exits_0(script, capsys):
    # with seed 1 the best point of this run lies outside the physical
    # region, which the script reports as such
    code = script.main(["--seed", "1", "--runs", "1", "--maxiter", "1",
                        "--popsize", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert lines[0].startswith("run 0: "), lines
    assert lines[-1] == "no +-+ or -+- pattern of F' found", lines


@pytest.mark.parametrize("state", FALSIFY_NEAR_ZERO)
def test_near_zero_state_has_no_pattern_at_50_digits(script, capsys,
                                                     monkeypatch, state):
    # each state's float score is inside AMBIGUOUS, so the script
    # re-evaluates F' at 50 digits at the three witnesses and finds no
    # +-+ or -+- pattern there
    monkeypatch.setattr(script, "differential_evolution",
                        lambda *args, **kwargs: SimpleNamespace(
                            x=np.array(state)))
    code = script.main(["--runs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert lines[0].startswith("run 0: score -"), lines
    assert "  50-digit F' at witnesses " in lines[0], lines
    assert lines[0].endswith("  no pattern"), lines
    assert lines[-1] == "no +-+ or -+- pattern of F' found", lines

    # the 50-digit F' agrees with the engine's float F' at the witnesses
    p = BlochX(*state)
    with np.errstate(all="ignore"):
        g = f_derivative(p, script.GRID)
    score, witness = script.pattern_score(g)
    assert -script.AMBIGUOUS < score < 0.0
    for i in witness:
        z = float(script.GRID[i])
        assert float(script.reference_fp(p, z)) == pytest.approx(
            f_derivative(p, z), rel=1e-9, abs=1e-14)
