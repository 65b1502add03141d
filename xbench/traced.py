"""Spans around the benchmark's calls into each layer, and the per-layer
numbers derived from them.

The library itself is not instrumented.  To see inside discord(), the
traced pass calls, on the same state, the public pieces that discord()
composes; every piece gets its own span under the state's span, and
self times are differences of the pieces' spans.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict

import numpy as np

import xdiscord as xd
from xdiscord.engine import SCAN_POINTS

import workloads as wl

_pc = time.perf_counter


class Tracer:
    """Spans held in memory as [name, start, end, parent, state]."""

    def __init__(self):
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None, state: int | None) -> int:
        self.spans.append([name, _pc(), None, parent, state])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][2] = _pc()

    def call(self, name, parent, state, fn, *args, **kwargs):
        t0 = _pc()
        out = fn(*args, **kwargs)
        self.spans.append([name, t0, _pc(), parent, state])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, state) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "state": state}) + "\n")


# ---------------------------------------------------------------------------
# The pieces each layer call is split into.

def _endpoints(ctx):
    return xd.f_value(ctx, 0.0), xd.f_value(ctx, 1.0)


def global_max_pieces(tr: Tracer, parent: int, i: int, p):
    """global_max, then its scan, Newton from z = 1 and endpoint values."""
    res = tr.call("engine.global_max", parent, i, xd.global_max, p)
    ctx = xd.FContext.from_state(p)
    grid = np.linspace(0.0, 1.0, SCAN_POINTS)
    with np.errstate(all="ignore"):
        tr.call("engine.scan", parent, i, xd.f_derivative, ctx, grid)
    tr.call("engine.newton_z1", parent, i, xd.newton_critical_point, ctx, 1.0)
    tr.call("engine.f_endpoints", parent, i, _endpoints, ctx)
    return res


def discord_pieces(tr: Tracer, parent: int, i: int, p):
    """discord, then the classify, route and spectrum calls it makes."""
    res = tr.call("engine.discord", parent, i, xd.discord, p)
    tag = tr.call("engine.classify", parent, i, xd.classify_region, p)
    if tag is xd.Region.GENERAL:
        global_max_pieces(tr, parent, i, p)
    else:
        tr.call("engine.analytic_max", parent, i, xd.analytic_max, p, tag)
    tr.call("states.spectrum", parent, i, xd.spectrum, p)
    return res


def trace_state(tr: Tracer, name: str, i: int, p):
    """(call output, DiscordResult) for one state, every piece in a span."""
    root = tr.open("state", None, i)
    tr.call("states.bloch", root, i, xd.BlochX, *p.as_tuple())
    if name != "certify":
        res = discord_pieces(tr, root, i, p)
        tr.close(root)
        return res, res
    m = tr.call("states.bloch_to_matrix", root, i, xd.bloch_to_matrix, p)
    kw = tr.call("entanglement.koashi_winter", root, i, xd.koashi_winter, m)
    dec = tr.call("entanglement.rank_two_classify", root, i,
                  xd.rank_two_classify, m)
    q = p.swapped()
    res = discord_pieces(tr, root, i, q)
    tr.call("entanglement.concurrence", root, i, xd.concurrence, dec.rho_bc)
    orc = tr.call("oracle.sweep", root, i, xd.oracle_classical_correlation,
                  q, grid_n=wl.ORACLE_GRID)
    tr.close(root)
    return (kw, orc), res


class TracedRefs(wl.Refs):
    """Gate references, each under a "gate" span of its state."""

    def __init__(self, tr: Tracer):
        self.tr = tr

    def oracle(self, i, p):
        g = self.tr.open("gate", None, i)
        out = self.tr.call("oracle.sweep", g, i, xd.oracle_classical_correlation,
                           p, grid_n=wl.ORACLE_GRID)
        self.tr.close(g)
        return out

    def global_max(self, i, p):
        g = self.tr.open("gate", None, i)
        out = global_max_pieces(self.tr, g, i, p)
        self.tr.close(g)
        return out


# ---------------------------------------------------------------------------
# Per-layer numbers.

# metric -> the span it is read from
SPAN_METRICS = {
    "states.bloch_us": "states.bloch",
    "states.spectrum_us": "states.spectrum",
    "states.bloch_to_matrix_us": "states.bloch_to_matrix",
    "engine.classify_us": "engine.classify",
    "engine.analytic_max_us": "engine.analytic_max",
    "engine.global_max_us": "engine.global_max",
    "engine.scan_us": "engine.scan",
    "engine.newton_z1_us": "engine.newton_z1",
    "oracle.sweep_us": "oracle.sweep",
    "entanglement.rank_two_classify_us": "entanglement.rank_two_classify",
    "entanglement.concurrence_us": "entanglement.concurrence",
    "entanglement.koashi_winter_us": "entanglement.koashi_winter",
}


def layer_metrics(spans) -> dict[str, tuple[float, int]]:
    """{metric: (us, states)} from the recorded spans.

    For each state and piece, take the fastest span over the traced passes
    (the least disturbed by other load); a metric is the mean of that over
    the states that made the call.  Self times are differences of those
    fastest spans, per state:
    bracket_self = global_max - scan - newton_z1 - f_endpoints,
    discord_self = discord - classify - route - spectrum, where the route
    is analytic_max when the state took it, else global_max, and
    kw_self = koashi_winter - rank_two_classify - discord - concurrence.
    """
    best: dict[int, dict[str, float]] = defaultdict(dict)
    for name, t0, t1, parent, state in spans:
        if parent is not None and t1 - t0 < best[state].get(name, math.inf):
            best[state][name] = t1 - t0
    samples: dict[str, list[float]] = defaultdict(list)
    for fastest in best.values():
        for metric, name in SPAN_METRICS.items():
            if name in fastest:
                samples[metric].append(fastest[name])
        route = ("engine.analytic_max" if "engine.analytic_max" in fastest
                 else "engine.global_max")
        for metric, name, parts in (
                ("engine.bracket_self_us", "engine.global_max",
                 ("engine.scan", "engine.newton_z1", "engine.f_endpoints")),
                ("engine.discord_self_us", "engine.discord",
                 ("engine.classify", route, "states.spectrum")),
                ("entanglement.kw_self_us", "entanglement.koashi_winter",
                 ("entanglement.rank_two_classify", "engine.discord",
                  "entanglement.concurrence"))):
            if name in fastest and all(q in fastest for q in parts):
                samples[metric].append(
                    fastest[name] - sum(fastest[q] for q in parts))
    names = list(SPAN_METRICS) + ["engine.bracket_self_us",
                                  "engine.discord_self_us",
                                  "entanglement.kw_self_us"]
    return {m: (statistics.fmean(samples[m]) * 1e6 if samples[m] else 0.0,
                len(samples[m])) for m in names}
