"""Search for a state where F' has more than one zero on (0, 1).

The sign router in xdiscord.engine rests on a conjecture: F'(0) = 0 and F'
changes sign at most once on (0, 1), so the signs of F''(0) and F'(1) tell
where the maximum of F lies.  Two sign changes would show as the pattern
+-+ or -+- along z.  This script maximizes a score for those patterns with
scipy's differential evolution over the physical Bloch parameters
(r, s, c1, c2, c3):

    score = max over z1 < z2 < z3 of min(F'(z1), -F'(z2), F'(z3)),

and the same with every sign flipped, on a grid of z in (0, 1].  A
positive score on the float grid is a candidate counterexample; a score
within AMBIGUOUS of zero has float signs that rounding could flip.  Both
are re-evaluated with F' at 50 digits (mpmath differentiating F written
from its defining sum, reference_f of tests/conftest.py) at the three
witness points.

Run from the repository root (needs scipy and mpmath; the test suite runs
it once with a budget of one generation):

    PYTHONPATH=src python3 scripts/falsify_router.py --seed 1 --runs 6

It prints each run's best state and score, or that a run's best point is
not physical, and exits 1 if a pattern holds at 50 digits.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
from mpmath import mp
from scipy.optimize import differential_evolution

from xdiscord import (BlochX, PhysicalityError, f_derivative,
                      physicality_margins)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from conftest import reference_f  # noqa: E402

GRID = np.linspace(0.0, 1.0, 401)[1:]
AMBIGUOUS = 1e-9


def pattern_score(g: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Best +-+ or -+- score of the sequence g and its witness indices."""
    best, witness = -np.inf, (0, 0, 0)
    for sign in (1.0, -1.0):
        h = sign * g
        left = np.maximum.accumulate(h)
        right = np.maximum.accumulate(h[::-1])[::-1]
        mid = np.minimum(np.minimum(left[:-2], -h[1:-1]), right[2:])
        j = int(np.argmax(mid))
        if mid[j] > best:
            best = float(mid[j])
            witness = (int(np.argmax(h[:j + 1])), j + 1,
                       j + 2 + int(np.argmax(h[j + 2:])))
    return best, witness


def objective(x: np.ndarray) -> float:
    m1, m2 = physicality_margins(*x)
    if min(m1, m2) < 0.0:
        return 1.0 - min(m1, m2)      # outside: push back in
    with np.errstate(all="ignore"):
        g = f_derivative(BlochX(*x), GRID)
    g = np.where(np.isfinite(g), g, 0.0)
    return -pattern_score(g)[0]


def reference_fp(p: BlochX, z: float):
    """F'(z) at 50 digits from F's defining sum, apart from engine.py."""
    with mp.workdps(50):
        return mp.diff(lambda t: reference_f(mp, p, t), mp.mpf(z))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--maxiter", type=int, default=150)
    ap.add_argument("--popsize", type=int, default=20)
    args = ap.parse_args(argv)

    found = False
    for k in range(args.runs):
        res = differential_evolution(
            objective, [(-1.0, 1.0)] * 5, seed=args.seed * 1000 + k,
            maxiter=args.maxiter, popsize=args.popsize, tol=0.0,
            polish=False)
        try:
            p = BlochX(*res.x)
        except PhysicalityError:
            # the best point of a short run can lie outside the region
            print(f"run {k}: no physical state found", flush=True)
            continue
        with np.errstate(all="ignore"):
            g = f_derivative(p, GRID)
        score, wit = pattern_score(np.where(np.isfinite(g), g, 0.0))
        line = (f"run {k}: score {score:.3e}  state "
                + " ".join(f"{v:.17g}" for v in p.as_tuple()))
        if score > -AMBIGUOUS:
            signs = [reference_fp(p, GRID[i]) for i in wit]
            holds = (min(signs[0], -signs[1], signs[2]) > 0
                     or min(-signs[0], signs[1], -signs[2]) > 0)
            found = found or holds
            line += ("  50-digit F' at witnesses "
                     + " ".join(mp.nstr(v, 3) for v in signs)
                     + ("  PATTERN HOLDS" if holds else "  no pattern"))
        print(line, flush=True)
    print("counterexample found" if found else
          "no +-+ or -+- pattern of F' found")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
