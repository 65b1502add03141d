"""xdiscord benchmark: one closed-loop workload, its gates, and a traced
per-layer run.

Run from the root of an xdiscord checkout:

    python3 xbench/run.py --workload general --seed 1 --seconds 35 --trace 0

One process and one caller: the next state is sent only after the
previous call returns.  The loop cycles a fixed pool of states drawn from
--seed, and timings are each state's fastest call over the passes, so
that load from other tenants of the machine, which only delays calls,
moves them little.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  Every metric is printed
with its unit and sample count; the last stdout line is a JSON object
with the keys correct, attempted, failed and metrics.  A full record,
environment included, goes to <out>/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("general", "closed", "certify")

# samples taken between calls of the closed loop, spread evenly over the
# run, so that they meet the same machine conditions as the loop
SETUP_PROBES = 7          # fresh processes timed for setup_s
WORKED_EXAMPLE_BURSTS = 100     # of WORKED_EXAMPLE_BURST calls each
WORKED_EXAMPLE_BURST = 10
CLI_REPEATS = 8
CLI_COUNT = 200
CHILD_TIMEOUT_S = 60
CLI_TOL = 1e-12           # CLI discord vs in-process discord
OVERHEAD_SHARE_OF_RUN = 0.3
TRACE_SHARE_OF_RUN = 0.5      # repeated traced passes, at most TRACE_PASSES
TRACE_PASSES = 5
OVERHEAD_BLOCK = {"general": 64, "closed": 512, "certify": 8}

# call latencies kept for the loop_* numbers; the buffer is filled up front
# so that peak_rss_mb does not depend on how many calls a run makes
RAW_CAPACITY = 1 << 20

_pc = time.perf_counter


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def _git_commit() -> str | None:
    # read .git directly: a git command would search the parent directories
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def environment() -> dict:
    pkg = os.path.join(SRC, "xdiscord")
    lines = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "src_lines": lines}


# ---------------------------------------------------------------------------
# Timed pieces.

class Loop:
    """Outcome of the closed loop over the pool."""

    def __init__(self, n: int):
        self.first: list = [None] * n    # output of the first pass
        self.best = [math.inf] * n        # fastest call of each state
        self.raw = np.full(RAW_CAPACITY, np.nan)  # latency of each call
        self.calls = 0
        self.errors: list[str] = []


def closed_loop(call, states, seconds: float, side=()) -> Loop:
    """Call states in pool order, cycling, until seconds have elapsed.

    side holds (count, fn) pairs: fn runs count times between two calls,
    at evenly spaced moments of the run; runs still due when the time is
    up follow the loop.  Side runs are not part of any call's latency.
    """
    n = len(states)
    loop = Loop(n)
    raw = loop.raw
    best = loop.best
    start = now = _pc()
    due = sorted(((start + (j + 0.5) * seconds / count, fn)
                  for count, fn in side for j in range(count)),
                 key=lambda t: t[0], reverse=True)
    deadline = start + seconds
    i = 0
    while now < deadline:
        k = i % n
        t0 = _pc()
        try:
            res = call(states[k])
        except Exception as exc:   # count it and keep the loop running
            res = None
            loop.errors.append(f"state {k}: {exc!r}")
        now = _pc()
        if i < RAW_CAPACITY:
            raw[i] = now - t0
        if now - t0 < best[k]:
            best[k] = now - t0
        if i < n:
            loop.first[k] = res
        i += 1
        while due and due[-1][0] <= now:
            due.pop()[1]()
            now = _pc()
    for _, fn in reversed(due):
        fn()
    loop.calls = i
    return loop


def latency_summary(lat) -> tuple[float, float, float]:
    """(states/s, p50 us, p90 us) of call latencies in seconds.

    Sorts lat, a numpy array, in place; quantiles interpolate linearly.
    """
    lat.sort()
    last = len(lat) - 1

    def quantile(q: float) -> float:
        pos = q * last
        lo = int(pos)
        hi = min(lo + 1, last)
        return float(lat[lo] + (lat[hi] - lat[lo]) * (pos - lo)) * 1e6

    return len(lat) / float(lat.sum()), quantile(0.5), quantile(0.9)


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports, draws inputs, warms up."""
    t0 = _pc()
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                    "--setup-only", "--workload", workload,
                    "--seed", str(seed)],
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return _pc() - t0


def cli_command(seed: int) -> list[str]:
    return [sys.executable, "-m", "xdiscord", "random", "--count",
            str(CLI_COUNT), "--seed", str(seed), "--format", "json"]


def cli_random(seed: int, outputs: list) -> float:
    """Wall time of `python -m xdiscord random`; keeps the process."""
    t0 = _pc()
    proc = subprocess.run(cli_command(seed), cwd=ROOT, env=_child_env(),
                          text=True, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    outputs.append(proc)
    return _pc() - t0


def check_cli(xd, seed: int, proc, gate) -> None:
    """The CLI's discords must equal the library's on the same seed."""
    ok = proc.returncode == 0
    if ok:
        want = [xd.discord(p).discord for p in
                xd.random_states(np.random.default_rng(seed), CLI_COUNT)]
        got = [row["discord"] for row in json.loads(proc.stdout)["states"]]
        ok = len(got) == len(want)
        if ok:
            gate.gap(-1, max(abs(a - b) for a, b in zip(got, want)),
                     CLI_TOL, "|CLI discord - library discord|")
    gate.check(-1, ok, f"CLI random failed (exit {proc.returncode})")


def cli_import_seconds() -> float:
    """Time to import xdiscord.cli, measured inside a fresh process."""
    code = ("import time; t = time.perf_counter(); import xdiscord.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=_child_env(), text=True, check=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout.strip())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The two kinds of run.  Each returns (metrics, gate report, attempted,
# errors); metrics map a name to (value, unit, samples).

def timed_run(xd, wl, name: str, seed: int, seconds: float):
    states, kinds = wl.setup(name, seed)
    ex = wl.worked_example_state()
    setup, ex_us, cli, cli_out = [], [], [], []

    def worked_example():
        for _ in range(WORKED_EXAMPLE_BURST):
            t0 = _pc()
            xd.discord(ex)
            ex_us.append((_pc() - t0) * 1e6)

    side = ((SETUP_PROBES, lambda: setup.append(setup_probe(name, seed))),
            (WORKED_EXAMPLE_BURSTS, worked_example),
            (CLI_REPEATS, lambda: cli.append(cli_random(seed, cli_out))))
    loop = closed_loop(wl.state_call(name), states, seconds, side)
    best = np.array([x for x in loop.best if x < math.inf])
    rate, p50, p90 = latency_summary(best)
    raw_rate, raw_p50, raw_p90 = latency_summary(
        loop.raw[:min(loop.calls, RAW_CAPACITY)])

    rep = wl.gate(name, states, kinds, loop.first)
    res = xd.discord(ex)
    orc = xd.oracle_classical_correlation(ex, grid_n=wl.ORACLE_GRID)
    rep.gap(-1, abs(orc.classical_correlation - res.classical_correlation),
            wl.ORACLE_TOL, "worked example |oracle C - engine C|")
    check_cli(xd, seed, cli_out[-1], rep)

    attempted = loop.calls
    failed = len(loop.errors) + len(rep.failed_states)
    metrics = {
        "states_per_s": (rate, "1/s", len(best)),
        "latency_p50_us": (p50, "us", len(best)),
        "latency_p90_us": (p90, "us", len(best)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb(), "MiB", 1),
        "worked_example_us": (min(ex_us), "us", len(ex_us)),
        "cli_random_s": (min(cli), "s", len(cli)),
        "error_rate": (failed / attempted, "ratio", attempted),
        "max_ref_gap": (rep.max_gap, "bits", rep.checks),
        "loop_states_per_s": (raw_rate, "1/s", attempted),
        "loop_latency_p50_us": (raw_p50, "us", attempted),
        "loop_latency_p90_us": (raw_p90, "us", attempted),
    }
    return metrics, rep, attempted, loop.errors


def overhead_share(tr_mod, call, states, seconds: float, block: int
                   ) -> tuple[float, int]:
    """1 - traced/untraced states/s, from alternating blocks of states.

    Each pair of blocks runs the same states untraced and traced (a span
    per state and one per call), swapping the order from pair to pair.
    """
    tr = tr_mod.Tracer()
    n = len(states)
    spent = {False: 0.0, True: 0.0}
    deadline = _pc() + seconds
    j = 0
    while _pc() < deadline:
        ids = [(j * block + k) % n for k in range(block)]
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            t0 = _pc()
            if traced:
                for k in ids:
                    root = tr.open("state", None, k)
                    tr.call("call", root, k, call, states[k])
                    tr.close(root)
            else:
                for k in ids:
                    call(states[k])
            spent[traced] += _pc() - t0
        j += 1
    return 1.0 - spent[False] / spent[True], j


def traced_run(xd, wl, name: str, seed: int, seconds: float, trace_path):
    import traced as tr_mod
    tr = tr_mod.Tracer()
    sampling = []
    for _ in range(3):
        t0 = _pc()
        states, kinds = tr.call("sampling", None, None, wl.make_states,
                                name, seed)
        sampling.append((_pc() - t0) / len(states) * 1e6)
    call = wl.state_call(name)
    for p in states[:wl.WARMUP_STATES]:
        call(p)
    share, pairs = overhead_share(tr_mod, call, states,
                                  seconds * OVERHEAD_SHARE_OF_RUN,
                                  OVERHEAD_BLOCK[name])

    # first pass: outputs for the gates and the search counts; later passes
    # repeat the calls (gate references included) so that every span has
    # a fastest observation
    deadline = _pc() + seconds * TRACE_SHARE_OF_RUN
    results = [None] * len(states)
    engine = []
    errors = []
    for i, p in enumerate(states):
        try:
            results[i], res = tr_mod.trace_state(tr, name, i, p)
        except Exception as exc:   # count it and keep the pass running
            errors.append(f"state {i}: {exc!r}")
            continue
        engine.append(res)
    refs = tr_mod.TracedRefs(tr)
    rep = wl.gate(name, states, kinds, results, refs)
    passes = 1
    while passes < TRACE_PASSES and _pc() < deadline:
        for i, p in enumerate(states):
            if results[i] is not None:
                tr_mod.trace_state(tr, name, i, p)
        wl.gate(name, states, kinds, results, refs)
        passes += 1
    tr.write(trace_path)

    # CLI runs alternate with the in-process work they contain, so both
    # meet the same machine conditions
    imports, cli, cli_out = [], [], []
    sampling_cli = math.inf
    discord_cli = [math.inf] * CLI_COUNT
    for _ in range(CLI_REPEATS):
        imports.append(cli_import_seconds())
        cli.append(cli_random(seed, cli_out))
        t0 = _pc()
        cli_states = xd.random_states(np.random.default_rng(seed), CLI_COUNT)
        sampling_cli = min(sampling_cli, _pc() - t0)
        for j, p in enumerate(cli_states):
            t0 = _pc()
            xd.discord(p)
            discord_cli[j] = min(discord_cli[j], _pc() - t0)
    check_cli(xd, seed, cli_out[-1], rep)

    metrics = {"sampling.us_per_state": (min(sampling), "us", len(sampling))}
    for metric, (us, calls) in tr_mod.layer_metrics(tr.spans).items():
        metrics[metric] = (us, "us", calls)
    counts = wl.search_counts(engine) if engine else {}
    for metric, value in counts.items():
        unit = ("count" if metric == "engine.fallbacks" else
                "count/state" if metric.endswith("_per_state") else "ratio")
        metrics[metric] = (value, unit, len(engine))
    metrics["oracle.grid_points"] = (float(wl.ORACLE_GRID ** 2), "count", 1)
    metrics["cli.import_s"] = (min(imports), "s", len(imports))
    metrics["cli.self_s"] = (min(cli) - min(imports) - sampling_cli
                             - sum(discord_cli), "s", len(cli))
    metrics["trace.overhead_share"] = (share, "ratio", pairs)
    return metrics, rep, len(states), errors


# ---------------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".bench_results",
                    help="directory for the result record and spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="import, draw the inputs, warm up and exit "
                         "(the unit that setup_s times)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "xdiscord", "__init__.py")):
        print("xbench: no src/xdiscord here; run from the root of an "
              "xdiscord checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as wl
    if args.setup_only:
        wl.setup(args.workload, args.seed)
        return 0
    import xdiscord as xd

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}")
    if args.trace:
        metrics, rep, attempted, errors = traced_run(
            xd, wl, args.workload, args.seed, args.seconds,
            stem + ".spans.jsonl")
    else:
        metrics, rep, attempted, errors = timed_run(
            xd, wl, args.workload, args.seed, args.seconds)
    failed = len(errors) + len(rep.failed_states)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"xbench: metrics not produced: {missing}", file=sys.stderr)
        return 3

    env = environment()
    print(f"xbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:12s} n={n}")
    print(f"gates: {rep.checks} checks, {len(rep.failed_states)} failing "
          f"states, {len(errors)} exceptions")
    for line in (rep.failures + errors)[:20]:
        print(f"  FAIL {line}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "correct": failed == 0, "attempted": attempted,
              "failed": failed, "failures": rep.failures + errors,
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in metrics.items()}}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
