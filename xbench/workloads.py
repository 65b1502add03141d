"""Inputs, per-state calls and correctness gates of the three workloads.

general  uniform draws over the physical region; ~94% take the numeric
         route (F' scan, bracket loop, safeguarded Newton).
closed   equal shares of the four closed-form endpoint regions and of
         Bell-diagonal states; every state takes the analytic route.
certify  rank-2 states of cases I, II and III; each state runs the
         Koashi-Winter bridge and the measurement-grid oracle.

Importing this module needs ``src`` of an xdiscord checkout on sys.path.
"""

from __future__ import annotations

import math

import numpy as np

import xdiscord as xd

WORKLOADS = ("general", "closed", "certify")
POOL_SIZE = {"general": 500, "closed": 500, "certify": 120}
CLOSED_KINDS = ("a", "b", "c", "d", "bell")
RANK_TWO_KINDS = ("I", "II", "III")
WARMUP_STATES = 16
ORACLE_GRID = 256
ORACLE_SAMPLE = 16      # evenly spaced states checked against the oracle

# gate tolerances
DISCORD_FLOOR = -1e-9
IQC_TOL = 1e-12         # |I - Q - C|
ORACLE_TOL = 1e-5       # |oracle C - engine C| at grid 256
ENDPOINT_TOL = 1e-9     # closed form vs global_max, and vs Bell-diagonal form
KW_TOL = 1e-8           # Koashi-Winter residual

# README worked example (criterion 1 gates one discord() call at 10 ms)
WORKED_EXAMPLE = np.array([
    [0.0783, 0.0, 0.0, 0.0],
    [0.0, 0.125, 0.1, 0.0],
    [0.0, 0.1, 0.125, 0.0],
    [0.0, 0.0, 0.0, 0.6717],
])


def _interleave(groups: list[list]) -> list:
    return [x for row in zip(*groups) for x in row]


def make_states(name: str, seed: int, n: int | None = None):
    """(states, kinds): the workload's input pool, drawn from seed.

    Mixed pools are interleaved round-robin, so every stretch of the pool
    carries the same mix.
    """
    n = POOL_SIZE[name] if n is None else n
    rng = np.random.default_rng(seed)
    if name == "general":
        return xd.random_states(rng, n), ["uniform"] * n
    kinds = CLOSED_KINDS if name == "closed" else RANK_TWO_KINDS
    k = max(n // len(kinds), 1)
    groups = []
    for kind in kinds:
        if kind == "bell":
            groups.append(xd.random_bell_diagonal(rng, k))
        elif name == "closed":
            groups.append(xd.random_case(rng, kind, k))
        else:
            groups.append(xd.random_rank_two(rng, kind, k))
    return _interleave(groups), _interleave([[kind] * k for kind in kinds])


def certify_state(p):
    """Koashi-Winter report on p, and the oracle on qubit a (p swapped)."""
    rep = xd.koashi_winter(xd.bloch_to_matrix(p))
    orc = xd.oracle_classical_correlation(p.swapped(), grid_n=ORACLE_GRID)
    return rep, orc


def state_call(name: str):
    """The call the closed loop makes for one state of the workload."""
    return certify_state if name == "certify" else xd.discord


def worked_example_state():
    return xd.matrix_to_bloch(xd.XDensityMatrix(WORKED_EXAMPLE))


def setup(name: str, seed: int):
    """Draw the pool and warm up the workload's call on its first states."""
    states, kinds = make_states(name, seed)
    call = state_call(name)
    for p in states[:WARMUP_STATES]:
        call(p)
    return states, kinds


# ---------------------------------------------------------------------------
# Independent references.

def _xlog2(t: float) -> float:
    return t * math.log2(t) if t > 0.0 else 0.0


def bell_diagonal_discord(c1: float, c2: float, c3: float) -> float:
    """Luo's closed form for r = s = 0: I = 2 - S(rho), C from max |ci|."""
    lam = (1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
           1 + c1 - c2 + c3, 1 + c1 + c2 - c3)
    mutual = 0.25 * sum(_xlog2(t) for t in lam)
    c = max(abs(c1), abs(c2), abs(c3))
    classical = 0.5 * (_xlog2(1 + c) + _xlog2(1 - c))
    return mutual - classical


class Refs:
    """Reference calls made by the gates; the traced run records them."""

    def oracle(self, i, p):
        return xd.oracle_classical_correlation(p, grid_n=ORACLE_GRID)

    def global_max(self, i, p):
        return xd.global_max(p)


class GateReport:
    """Outcome of one workload's correctness gates."""

    def __init__(self):
        self.failures: list[str] = []
        self.failed_states: set[int] = set()
        self.max_gap = 0.0
        self.checks = 0

    def check(self, i: int, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failed_states.add(i)
            if len(self.failures) < 20:
                self.failures.append(f"state {i}: {what}")

    def gap(self, i: int, value: float, tol: float, what: str) -> None:
        self.check(i, math.isfinite(value) and value <= tol,
                   f"{what} {value:.3e} above {tol:g}")
        if math.isfinite(value):
            self.max_gap = max(self.max_gap, value)
        else:
            self.max_gap = math.inf


def _sample(indices: list[int], k: int) -> list[int]:
    if len(indices) <= k:
        return indices
    pos = np.linspace(0, len(indices) - 1, k).round().astype(int)
    return [indices[j] for j in pos]


def _check_discord(rep: GateReport, i: int, res) -> None:
    rep.check(i, math.isfinite(res.discord) and res.discord >= DISCORD_FLOOR,
              f"discord {res.discord!r} not finite or below {DISCORD_FLOOR}")
    iqc = abs(res.mutual_information - res.discord
              - res.classical_correlation)
    rep.check(i, iqc <= IQC_TOL, f"|I - Q - C| = {iqc:.3e}")


def _check_oracle(rep: GateReport, refs: Refs, states, results,
                  reached: list[int]) -> None:
    for i in _sample(reached, ORACLE_SAMPLE):
        orc = refs.oracle(i, states[i])
        rep.gap(i, abs(orc.classical_correlation
                       - results[i].classical_correlation),
                ORACLE_TOL, "|oracle C - engine C|")


def gate(name: str, states, kinds, results, refs: Refs | None = None
         ) -> GateReport:
    """Check every result against the workload's references.

    results[i] is the call's output for states[i], or None where the state
    was not reached (or raised, which the caller counts on its own).
    """
    refs = Refs() if refs is None else refs
    rep = GateReport()
    reached = [i for i, res in enumerate(results) if res is not None]
    if name == "certify":
        for i in reached:
            kw, orc = results[i]
            rep.gap(i, kw.residual, KW_TOL, "Koashi-Winter residual")
            rep.gap(i, abs(orc.classical_correlation
                           - kw.classical_correlation_a),
                    ORACLE_TOL, "|oracle C - Koashi-Winter C_a|")
        return rep
    for i in reached:
        _check_discord(rep, i, results[i])
    if name == "closed":
        for i in reached:
            p, res = states[i], results[i]
            if kinds[i] == "bell":
                want = bell_diagonal_discord(p.c1, p.c2, p.c3)
                rep.gap(i, abs(res.discord - want), ENDPOINT_TOL,
                        "|discord - Bell-diagonal closed form|")
            else:
                want = refs.global_max(i, p).f_max
                rep.gap(i, abs(res.f_max - want), ENDPOINT_TOL,
                        "|closed-form max F - global_max|")
    _check_oracle(rep, refs, states, results, reached)
    return rep


# ---------------------------------------------------------------------------
# Search counters, read from the public result objects.

def search_counts(results) -> dict[str, float]:
    """Numeric route, brackets, Newton work and fallbacks over results."""
    n = len(results)
    numeric = [r.search for r in results if r.method == "numeric"]
    brackets = sum(len(s.newton_runs) - 1 for s in numeric)
    iters = sum(len(run.iterates) for s in numeric for run in s.newton_runs)
    abandoned = sum(not s.newton_runs[0].converged for s in numeric)
    interior = sum(1e-9 < r.z_star < 1.0 - 1e-9 for r in results)
    return {
        "engine.numeric_share": len(numeric) / n,
        "engine.brackets_per_state": brackets / n,
        "engine.newton_iters_per_state": iters / n,
        "engine.newton_abandon_share": abandoned / len(numeric)
        if numeric else 0.0,
        "engine.fallbacks": float(sum(s.fallback is not None
                                      for s in numeric)),
        "engine.interior_share": interior / n,
    }
