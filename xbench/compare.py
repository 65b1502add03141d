"""Compare two sets of benchmark records, metric by metric and workload by
workload.

    python3 xbench/compare.py OLD NEW

OLD and NEW are each a record written by run.py (<workload>-seed<n>-
trace<t>.json) or a directory of them.  For every metric and workload
the table gives the quartiles and median of each side and the change of
the median, signed so that a positive change is worse.  End-to-end
metrics get a verdict against their bound in BENCHMARK.json:

    unresolved  the spread (quartile distance / median) of either side
                exceeds the bound, and not every NEW run beats every OLD run
    worse       the median got worse by more than the bound
    better      the median got better by more than the bound
    ok          otherwise

Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> list[dict]:
    files = (sorted(glob.glob(os.path.join(path, "*-trace[01].json")))
             if os.path.isdir(path) else [path])
    out = []
    for fname in files:
        with open(fname) as fh:
            out.append(json.load(fh))
    return out


def collect(records) -> dict[tuple[str, str], list[float]]:
    """{(workload, metric): values over the records}."""
    vals: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            vals.setdefault((rec["workload"], name), []).append(m["value"])
    return vals


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def _spread(q) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(old, new, better: str, bound: float) -> tuple[float, str]:
    """(change of the median as a share, positive = worse; verdict)."""
    qo, qn = quartiles(old), quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (qn[1] - qo[1]) / abs(qo[1]) if qo[1] else 0.0
    if max(_spread(qo), _spread(qn)) > bound:
        beats_all = all(sign * (n - o) < 0 for n in new for o in old)
        return change, "better" if beats_all else "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    old_recs, new_recs = load(argv[0]), load(argv[1])
    if not old_recs or not new_recs:
        print("compare: no records found", file=sys.stderr)
        return 2
    for label, recs in (("old", old_recs), ("new", new_recs)):
        envs = {(r["env"]["git_commit"], r["env"]["src_lines"]) for r in recs}
        print(f"{label}: {len(recs)} records; (commit, src lines): "
              + ", ".join(f"({c}, {n})" for c, n in sorted(envs, key=str)))
    old, new = collect(old_recs), collect(new_recs)
    print(f"{'workload':8s} {'metric':34s} {'unit':11s} "
          f"{'old q1/median/q3':>32s} {'new q1/median/q3':>32s} "
          f"{'change':>8s}  verdict")
    for key in sorted(old.keys() & new.keys()):
        workload, name = key
        spec = specs.get(name)
        qo, qn = quartiles(old[key]), quartiles(new[key])
        if spec is not None and "bound" in spec:
            change, what = verdict(old[key], new[key], spec["better"],
                                   spec["bound"])
        else:
            change = (qn[1] - qo[1]) / abs(qo[1]) if qo[1] else 0.0
            if spec is not None and spec["better"] == "higher":
                change = -change
            what = "-"
        unit = next(r for r in new_recs
                    if name in r["metrics"])["metrics"][name]["unit"]
        print(f"{workload:8s} {name:34s} {unit:11s} "
              + " ".join("%10.4g" % x for x in qo) + " "
              + " ".join("%10.4g" % x for x in qn)
              + f" {change:+8.1%}  {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
