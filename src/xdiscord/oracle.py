"""Brute-force von Neumann measurement oracle.

Independent check on the one-variable reduction: sweep projective
measurement directions on qubit b over a dense grid, build the
conditional ensemble of qubit a for each direction from closed-form 2x2
spectra, and minimize the measured conditional entropy directly.  The
conditional entropy depends on the direction (z1, z2, z3) only through
z3 and theta = (c1 z1)^2 + (c2 z2)^2 + (c3 z3)^2, and is even in each
component, so the quarter disk z3 in [0, 1], phi in [0, pi/2] covers
everything.  The sweep, oracle_classical_correlation, is the module's
only entry point; the per-direction kernels are private.

Nothing here is shared with engine.py: the entropy is binary_entropy of
the conditional eigenvalues, and the search is a grid sweep refined by
zooming grids, so a defect in the reduction's kernels cannot cancel out
of a comparison with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import BlochX, binary_entropy

PROB_FLOOR = 1e-15        # outcomes at most this likely contribute nothing
HALF_PI = math.pi / 2.0
ZOOM_POINTS = 17          # per axis of each refinement grid
ZOOM_SHRINK = 8.0         # step ratio between refinement rounds
ZOOM_MIN_STEP = 1e-8      # z3 step at which refinement stops
CORNER_GAIN = 1e-15       # a round gaining less ends refinement at a corner


def _outcomes(p: BlochX, z3, theta):
    """Probability and larger conditional eigenvalue of each outcome.

    Outcome k = +, - has weight w_k = 1 +/- s z3, probability w_k / 2 and
    larger eigenvalue (1 + A_k) / 2, where A_k = min(H_k / w_k, 1) and
    H_k = sqrt(r^2 +/- 2 r c3 z3 + theta).  Elementwise on arrays.
    """
    out = []
    for sign in (1.0, -1.0):
        w = 1.0 + sign * p.s * z3
        h = np.sqrt(np.maximum(p.r * p.r + sign * 2.0 * p.r * p.c3 * z3
                               + theta, 0.0))
        live = w > PROB_FLOOR
        a = np.where(live, np.minimum(h / np.where(live, w, 1.0), 1.0), 0.0)
        out.append((np.where(live, 0.5 * w, 0.0), 0.5 * (1.0 + a)))
    return out


def _entropy(p: BlochX, z3, theta):
    """Measured conditional entropy sum_k p_k H(lambda_k), in bits."""
    (p_hi, lam_hi), (p_lo, lam_lo) = _outcomes(p, z3, theta)
    return p_hi * binary_entropy(lam_hi) + p_lo * binary_entropy(lam_lo)


def _polar_theta(p: BlochX, z3, phi):
    # theta at (z3, phi); the c1^2 + (c2^2 - c1^2) sin^2 form is exactly
    # flat in phi when |c1| = |c2|, so ties there resolve to phi = 0
    c1sq = p.c1 * p.c1
    return ((1.0 - z3 * z3) * (c1sq + (p.c2 * p.c2 - c1sq) * np.sin(phi) ** 2)
            + (p.c3 * z3) ** 2)


def _sweep(p: BlochX, z3s: np.ndarray, phis: np.ndarray):
    # entropy on the grid z3s x phis; ties resolve to the first cell
    z3g = z3s[:, None]
    ce = _entropy(p, z3g, _polar_theta(p, z3g, phis[None, :]))
    i, j = np.unravel_index(int(np.argmin(ce)), ce.shape)
    return float(ce[i, j]), int(i), int(j)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the grid sweep.

    z3 and phi locate the best direction after refinement; grid_index is
    the row-major argmin cell of the coarse sweep (ties resolve to the
    first cell, so results are deterministic).
    """

    classical_correlation: float
    entropy_min: float
    z3: float
    phi: float
    direction: tuple[float, float, float]
    grid_n: int
    grid_index: tuple[int, int]


def oracle_classical_correlation(p: BlochX, grid_n: int = 256,
                                 refine_rounds: int = 30) -> OracleResult:
    """Classical correlation by direct minimization over directions.

    Sweeps the quarter disk (z3, phi) on a grid_n x grid_n grid, then
    zooms in on the winner for up to refine_rounds rounds: each round
    sweeps a small grid spanning one current step on either side of the
    best point and divides the step by 8.  Refinement ends once the z3
    step falls below ZOOM_MIN_STEP, or earlier when the best point sits on
    a corner of the domain and a round gains less than CORNER_GAIN.
    """
    z3s = np.linspace(0.0, 1.0, grid_n)
    phis = np.linspace(0.0, HALF_PI, grid_n)
    best, i, j = _sweep(p, z3s, phis)
    z3, phi = float(z3s[i]), float(phis[j])

    dz = 1.0 / max(grid_n - 1, 1)
    dphi = HALF_PI * dz
    for _ in range(refine_rounds):
        zs = np.linspace(max(z3 - dz, 0.0), min(z3 + dz, 1.0), ZOOM_POINTS)
        fs = np.linspace(max(phi - dphi, 0.0), min(phi + dphi, HALF_PI),
                         ZOOM_POINTS)
        cand, a, b = _sweep(p, zs, fs)
        gain = best - cand
        if gain > 0.0:
            best, z3, phi = cand, float(zs[a]), float(fs[b])
        if gain < CORNER_GAIN and z3 in (0.0, 1.0) and phi in (0.0, HALF_PI):
            break
        dz /= ZOOM_SHRINK
        dphi /= ZOOM_SHRINK
        if dz < ZOOM_MIN_STEP:
            break

    rho = math.sqrt(max(1.0 - z3 * z3, 0.0))
    sa = binary_entropy((1.0 + p.r) / 2.0)
    return OracleResult(classical_correlation=float(sa - best),
                        entropy_min=best, z3=z3, phi=phi,
                        direction=(rho * math.cos(phi), rho * math.sin(phi),
                                   z3),
                        grid_n=grid_n, grid_index=(i, j))
