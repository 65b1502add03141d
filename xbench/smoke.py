"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 xbench/smoke.py

Checks that every workload prints every BENCHMARK.json metric with its
unit, that error_rate is 0 at the default seed, that each workload's gate
rejects a deliberately perturbed result, that compare.py reads the
records, and that the benchmark fails without printing a result where
there is no checkout to measure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_results", "smoke")
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY_POOL = {"general": 20, "closed": 10, "certify": 6}


def _run(argv) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics_and_error_rate():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for name in wl.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            lines, last = _run(["--workload", name, "--seconds", "0.3",
                                "--trace", str(trace), "--out", OUT])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == want, (name, trace, got)
            assert all(set(v) == {"value", "unit"}
                       for v in last["metrics"].values())
            for metric in want:
                assert any(line.split()[:1] == [metric] for line in lines)
            assert last["correct"] and last["failed"] == 0, lines
            assert last["attempted"] >= 1
            if trace == 0:
                rate = [line.split() for line in lines
                        if line.split()[:1] == ["error_rate"]]
                assert rate and float(rate[0][1]) == 0.0, lines
        print(f"ok   {name}: metrics, units and error_rate 0")


def _results(name):
    states, kinds = wl.make_states(name, 1, TINY_POOL[name])
    call = wl.state_call(name)
    return states, kinds, [call(p) for p in states]


def _rejects(name, states, kinds, results, i, perturbed, what):
    clean = wl.gate(name, states, kinds, results)
    assert not clean.failed_states, clean.failures
    bad = list(results)
    bad[i] = perturbed
    rep = wl.gate(name, states, kinds, bad)
    assert i in rep.failed_states, (name, what)
    print(f"ok   {name}: gate rejects {what}")


def check_gates_reject_perturbations():
    rp = dataclasses.replace
    states, kinds, res = _results("general")
    r = res[0]     # index 0 is always in the oracle sample
    _rejects("general", states, kinds, res, 0,
             rp(r, discord=r.discord + 1e-6), "I - Q != C")
    _rejects("general", states, kinds, res, 0,
             rp(r, discord=r.discord - 1e-3,
                classical_correlation=r.classical_correlation + 1e-3),
             "a classical correlation off the oracle")
    _rejects("general", states, kinds, res, 0,
             rp(r, discord=-1e-3, mutual_information=r.mutual_information
                - r.discord - 1e-3), "a negative discord")

    states, kinds, res = _results("closed")
    i = kinds.index("bell")
    r = res[i]
    _rejects("closed", states, kinds, res, i,
             rp(r, discord=r.discord + 1e-6,
                classical_correlation=r.classical_correlation - 1e-6),
             "a Bell-diagonal discord off the closed form")
    i = kinds.index("a")
    r = res[i]
    _rejects("closed", states, kinds, res, i,
             rp(r, f_max=r.f_max + 1e-6), "an endpoint max off global_max")

    states, kinds, res = _results("certify")
    kw, orc = res[1]
    _rejects("certify", states, kinds, res, 1,
             (rp(kw, residual=1e-6), orc), "a Koashi-Winter residual")
    _rejects("certify", states, kinds, res, 1,
             (rp(kw, classical_correlation_a=kw.classical_correlation_a
                 + 1e-3), orc), "a C_a off the oracle")


def check_compare():
    rec = os.path.join(OUT, "general-seed1-trace0.json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert compare.main([rec, OUT]) == 0
    text = buf.getvalue()
    assert "states_per_s" in text and "ok" in text, text
    print("ok   compare reads the records")


def check_fails_without_checkout():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "general", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok   no result and a nonzero exit without a checkout")


def main() -> int:
    wl.POOL_SIZE.update(TINY_POOL)
    run.SETUP_PROBES = 1
    run.CLI_REPEATS = 1
    run.WORKED_EXAMPLE_BURSTS = 2
    check_metrics_and_error_rate()
    check_gates_reject_perturbations()
    check_compare()
    check_fails_without_checkout()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
