"""Command line behavior: parsing, formats, exit codes."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import xdiscord
from conftest import EX_MATRIX
from xdiscord.cli import main
from xdiscord.sampling import random_rank_two, random_states

EX_DISCORD = 0.13274145387467
WERNER_ARGS = ["--bloch", "0", "0", "-0.5", "-0.5", "-0.5"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_discord_text_output(capsys):
    code, out, err = run_cli(capsys, "discord", "--bloch",
                             "0.4", "0.1", "0.1", "-0.05", "-0.2")
    assert code == 0 and err == ""
    assert "region: a (analytic)" in out
    assert "discord = " in out
    assert "z* = 1" in out


def test_discord_json_from_matrix_file(capsys, tmp_path):
    path = tmp_path / "state.txt"
    path.write_text(" ".join(str(x) for x in EX_MATRIX.ravel()))
    code, out, _ = run_cli(capsys, "discord", "--input", str(path),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"]["source"] == "matrix"
    assert payload["region"] == "general"
    assert payload["method"] == "numeric"
    assert payload["discord"] == pytest.approx(EX_DISCORD, abs=1e-12)
    assert payload["search"]["route"] == "signs +,-"
    newton = payload["search"]["newton"][0]
    assert newton["seed"] == 1.0
    assert newton["converged"]
    assert len(newton["iterates"]) == 5


def test_discord_json_bloch_round_trip(capsys):
    code, out, _ = run_cli(capsys, "discord", "--bloch",
                           "0.4", "0.1", "0.1", "-0.05", "-0.2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"]["bloch"] == [0.4, 0.1, 0.1, -0.05, -0.2]
    assert payload["discord"] + payload["classical_correlation"] == \
        pytest.approx(payload["mutual_information"], abs=1e-12)


def test_discord_text_reports_route_and_gap(capsys):
    code, out, _ = run_cli(capsys, "discord", "--bloch", "-0.5934",
                           "-0.5934", "0.2", "0.2", "0.5", "--verify",
                           "--grid", "16")
    assert code == 0
    assert "route: signs +,-" in out
    assert "route gap = 0" in out
    code, out, _ = run_cli(capsys, "discord", "--bloch",
                           "0.1", "0.2", "0.3", "0.1", "0.2")
    assert code == 0
    assert "route: signs -,-" in out
    assert "newton from z0=1: not run: signs -,-" in out


def test_discord_reports_a_bisection_fallback(capsys, monkeypatch):
    # no sampled state has been seen to need one, so the CLI gets a result
    # whose search record says it did
    def bisected(*args, **kwargs):
        res = xdiscord.discord(*args, **kwargs)
        return dataclasses.replace(res, search=dataclasses.replace(
            res.search, fallback="bisection"))

    monkeypatch.setattr(xdiscord.cli, "discord", bisected)
    bloch = [str(x) for x in xdiscord.matrix_to_bloch(EX_MATRIX).as_tuple()]
    code, out, _ = run_cli(capsys, "discord", "--bloch", *bloch)
    assert code == 0
    assert "note: bisection fallback was used" in out
    code, out, _ = run_cli(capsys, "discord", "--bloch", *bloch,
                           "--format", "json")
    assert json.loads(out)["search"]["fallback"] == "bisection"


def test_verify_adds_oracle_and_gap(capsys):
    code, out, _ = run_cli(capsys, "discord", *WERNER_ARGS,
                           "--verify", "--grid", "128", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verify_gap"] < 1e-9
    assert payload["oracle"]["grid_n"] == 128
    assert payload["oracle"]["difference"] < 1e-5


def test_json_matrix_with_complex_corners(capsys, tmp_path):
    # corners carry local phases; the tool strips and reports them
    from xdiscord import BlochX, bloch_to_matrix
    m = bloch_to_matrix(BlochX(0.1, -0.2, 0.4, 0.2, 0.1)).matrix.copy()
    u = np.kron(np.diag([1.0, np.exp(0.7j)]), np.diag([1.0, np.exp(-0.4j)]))
    m = u @ m @ u.conj().T
    rows = [[[float(e.real), float(e.imag)] for e in row] for row in m]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run_cli(capsys, "discord", "--input", str(path),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    phases = payload["input"]["phases"]
    assert max(abs(x) for x in phases) > 1e-3
    from xdiscord import discord as discord_fn
    expect = discord_fn(BlochX(0.1, -0.2, 0.4, 0.2, 0.1)).discord
    assert payload["discord"] == pytest.approx(expect, abs=1e-12)


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0 -0.5 -0.5 -0.5"))
    code, out, _ = run_cli(capsys, "classify", "--input", "-")
    assert code == 0
    assert "region: a" in out


def test_missing_state_is_input_error(capsys):
    code, _, err = run_cli(capsys, "discord")
    assert code == 2
    assert "no state given" in err


def test_unparseable_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("this is not a state")
    code, _, err = run_cli(capsys, "discord", "--input", str(path))
    assert code == 2
    assert "could not parse" in err


def test_non_utf8_input_is_input_error(capsys, monkeypatch, tmp_path):
    raw = b"\xff\xfe0 0 -0.5 -0.5 -0.5"
    path = tmp_path / "bad.txt"
    path.write_bytes(raw)
    code, _, err = run_cli(capsys, "discord", "--input", str(path))
    assert code == 2
    assert "not UTF-8" in err
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code, _, err = run_cli(capsys, "discord", "--input", "-")
    assert code == 2
    assert "not UTF-8" in err


def test_wrong_number_count_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.1 0.2 0.3")
    code, _, err = run_cli(capsys, "discord", "--input", str(path))
    assert code == 2
    assert "expected 5 numbers" in err


def _matrix_with(entry):
    rows = [[float(x) for x in row] for row in EX_MATRIX.real]
    rows[1][2] = entry
    return {"matrix": rows}


@pytest.mark.parametrize("obj", [
    {"bloch": ["x", 0, 0, 0, 0]},
    {"bloch": [None, 0, 0, 0, 0]},
    {"bloch": [True, 0, 0, 0, 0]},
    _matrix_with(["a", 0]),
    _matrix_with(False),
], ids=["bloch-string", "bloch-null", "bloch-bool", "matrix-string",
        "matrix-bool"])
def test_non_numeric_json_value_is_input_error(capsys, tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "discord", "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and "must be a number" in err


def test_non_x_matrix_exits_2(capsys, tmp_path):
    m = EX_MATRIX.copy()
    m[0, 1] = 0.01
    m[1, 0] = 0.01
    path = tmp_path / "bad.txt"
    path.write_text(" ".join(str(x) for x in m.ravel()))
    code, _, err = run_cli(capsys, "discord", "--input", str(path))
    assert code == 2
    assert "not an X-shaped matrix" in err


def test_unphysical_state_exits_3(capsys):
    code, _, err = run_cli(capsys, "discord", "--bloch",
                           "0", "0", "1.01", "0", "0")
    assert code == 3
    assert "unphysical" in err
    # every entry in [-1, 1], but the first positivity inequality fails
    code, _, err = run_cli(capsys, "discord", "--bloch",
                           "0", "0", "0.6", "0.6", "0")
    assert code == 3
    assert "violated by 2.000e-01" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analytic_method_outside_regions_exits_2(capsys, fmt):
    # a GENERAL state has no closed form: an input error, not a traceback
    code, out, err = run_cli(capsys, "discord", "--method", "analytic",
                             "--bloch", "0.1", "0.3", "-0.35", "0.35", "0.2",
                             "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: state is outside the closed-form regions\n"


@pytest.mark.parametrize("where, value", [((0, 1), "nan"), ((0, 3), "inf")],
                         ids=["nan-off-x-upper", "inf-corner"])
def test_non_finite_matrix_entry_exits_3(capsys, tmp_path, where, value):
    m = EX_MATRIX.real.astype(object)
    m[where] = value
    path = tmp_path / "state.txt"
    path.write_text(" ".join(str(x) for x in m.ravel()))
    code, out, err = run_cli(capsys, "discord", "--input", str(path))
    assert (code, out) == (3, "")
    assert "unphysical state: matrix has a non-finite entry" in err


@pytest.mark.parametrize("text, message", [
    ('{"bloch": [0.1, 0.2, 0.3]}', "'bloch' must be a list of 5 numbers"),
    ('{"state": [0.1, 0.2, 0.3, 0.4, 0.5]}',
     "JSON needs a 'bloch' or 'matrix' key"),
    ('{"bloch": [0.1, 0.2', "bad JSON"),
    (" \n\t \n", "is empty"),
    ('{"matrix": [[0.25, 0, 0, 0]]}', "matrix must be a list of 4 rows"),
    ('{"matrix": [[0.25, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], '
     '[0, 0, 0, 0.25]]}', "matrix row 0 must have 4 entries"),
    ('{"bloch": [1' + "0" * 399 + ', 0, 0, 0, 0]}',
     "'bloch' entry is out of range"),
    (None, "cannot read"),
], ids=["short-bloch", "no-state-key", "truncated-json", "whitespace-only",
        "one-row-matrix", "three-entry-row", "huge-integer", "missing-path"])
def test_bad_input_file_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "state.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, "discord", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_json_bloch_file_matches_bloch_option(capsys, tmp_path):
    bloch = ["0.4", "0.1", "0.1", "-0.05", "-0.2"]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"bloch": [float(x) for x in bloch]}))
    code, from_file, _ = run_cli(capsys, "discord", "--input", str(path),
                                 "--format", "json")
    assert code == 0
    code, from_option, _ = run_cli(capsys, "discord", "--bloch", *bloch,
                                   "--format", "json")
    assert code == 0
    assert from_file == from_option


def test_full_rank_kw_exits_4(capsys):
    code, _, err = run_cli(capsys, "kw-check", *WERNER_ARGS)
    assert code == 4
    assert "rank" in err


def test_kw_check_reports_identity(capsys):
    code, out, _ = run_cli(capsys, "kw-check", "--bloch",
                           "0.3", "0.3", "0.2", "-0.2", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "I"
    assert payload["residual"] < 1e-10
    assert payload["z_star_swapped"] == 1.0
    assert payload["eof_bc"] == 0.0


def test_scan_grid(capsys):
    code, out, _ = run_cli(capsys, "scan", *WERNER_ARGS,
                           "--points", "11", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["z"]) == 11
    assert payload["z"][0] == 0.0 and payload["z"][-1] == 1.0
    assert payload["f_prime"][0] == 0.0
    code, out, _ = run_cli(capsys, "scan", *WERNER_ARGS, "--points", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12     # header plus one row per grid point
    assert lines[0].split() == ["z", "F", "F'", "F''"]


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--bloch",
                           "0.4", "-0.12", "0.3", "0.3", "-0.3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["selected"] == "d"
    assert payload["conditions"] == {"a": False, "b": False,
                                     "c": False, "d": True}
    assert len(payload["margins"]) == 2


def test_random_is_deterministic(capsys):
    args = ("random", "--count", "5", "--seed", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["states"]) == 5
    assert sum(payload["summary"]["regions"].values()) == 5


def test_random_counts_interior_maximizers(capsys):
    # seed 11 draws a "signs +,-" state, with z* inside (0, 1), at index 31
    code, out, _ = run_cli(capsys, "random", "--count", "40", "--seed", "11")
    assert code == 0
    states = random_states(np.random.default_rng(11), 40)
    interior = sum(1 for p in states
                   if 1e-9 < xdiscord.discord(p).z_star < 1.0 - 1e-9)
    assert interior > 0
    assert f"interior maximizers: {interior}\n" in out


def test_random_verify_sample(capsys):
    code, out, _ = run_cli(capsys, "random", "--count", "6", "--seed", "1",
                           "--verify-sample", "3", "--grid", "128",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    verified = payload["summary"]["verified"]
    assert len(verified["indices"]) == 3
    assert verified["max_difference"] < 1e-5


@pytest.mark.parametrize("argv", [
    ["discord", *WERNER_ARGS, "--verify", "--grid", "0"],
    ["discord", *WERNER_ARGS, "--grid", "-3"],
    ["discord", *WERNER_ARGS, "--precision", "-2"],
    ["scan", *WERNER_ARGS, "--points", "0"],
    ["random", "--count", "0"],
    ["random", "--verify-sample", "1", "--grid", "0"],
    ["random", "--verify-sample", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_out_of_range_integer_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: xdiscord")
    assert f"error: argument {argv[-2]}: must be at least" in err


def test_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "discord", *WERNER_ARGS,
                           "--precision", "10")
    assert code == 0
    assert "0.2624831838" in out


def test_module_entry_point():
    # pytest's pythonpath setting does not reach a child process: point it
    # at the src/ directory of the package imported here
    src = str(Path(xdiscord.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "xdiscord", "discord", "--bloch",
         "0", "0", "-0.5", "-0.5", "-0.5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "discord = " in proc.stdout


def test_kw_check_warns_once_on_near_rank_two(capsys):
    # c1, c2 scaled off the rank-2 surface: third eigenvalue 6.3e-9
    p = random_rank_two(np.random.default_rng(1), "III", 1)[0]
    args = [str(x) for x in (p.r, p.s, p.c1 * (1.0 - 4e-8),
                             p.c2 * (1.0 - 4e-8), p.c3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "kw-check", "--bloch", *args,
                               "--format", "json")
    assert code == 0
    assert json.loads(out)["case"] == "III"
    barely = [w for w in caught if "barely zero" in str(w.message)]
    assert len(barely) == 1
