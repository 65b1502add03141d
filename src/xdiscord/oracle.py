"""Brute-force von Neumann measurement oracle.

Independent check on the one-variable reduction: sweep projective
measurement directions on qubit b over a dense grid, build the
conditional ensemble of qubit a for each direction from closed-form 2x2
spectra, and minimize the measured conditional entropy directly.  The
conditional entropy depends on the direction (z1, z2, z3) only through
z3 and theta = (c1 z1)^2 + (c2 z2)^2 + (c3 z3)^2, and is even in each
component, so the quarter disk z3 in [0, 1], phi in [0, pi/2] covers
everything.  When c1^2 = c2^2 in floats the state is symmetric about z:
theta does not depend on phi, every phi column of a grid holds the same
values, and the sweep evaluates the phi = 0 column alone, where the
row-major tie rule lands on the full grid.  The sweep,
oracle_classical_correlation, is the module's only entry point; the
per-direction kernels are private.

Nothing here is shared with engine.py: the search is a grid sweep
refined by zooming grids, and the entropy is summed over the conditional
eigenvalues themselves, so a defect in the reduction's kernels cannot
cancel out of a comparison with this module.

The per-grid kernel (_rows, _outcomes, _entropy) is one fused sequence
of in-place array updates with no full-grid mask, each issued once for
both outcomes, which sit on a leading axis of length 2.  The dead-weight
rule lives in the row factors alone: a dead outcome's divisor is inf, so
its A_k = sqrt(.) / inf is +0.0, and its p_k is 0.  Its grid values
are bit-identical to the textbook sum_k p_k H(lambda_k) with masked
logs: each cell rounds the same operations, and the only rearrangements
(operand order of a product or sum, signs and factors of 2 moved) are
exact in IEEE arithmetic.  The kernel sees phi only through sin^2 phi,
cached with the coarse axes and built once per zoom grid.  Factors of z3
or phi alone are built once per grid, and so are three work arrays,
which glibc would otherwise give back to the kernel and fault in again
every block of SWEEP_BLOCK cells.  A grid of one block (every zoom grid,
the one-column coarse grids of states with c1^2 = c2^2, and the float64
rows a screen keeps) runs the kernel once on whole arrays, with no
slices and no work arrays.

A grid of more than SWEEP_BLOCK cells (91 x 91 and up; the screen starts
to pay between 80 x 80 and 91 x 91) is screened: the same kernel runs in
float32 on the radicand (r +/- c3 z3)^2 + (1 - z3^2)(c1^2 + (c2^2 -
c1^2) sin^2 phi), whose terms cannot cancel, then the float64 sweep runs
only on rows whose float32 minimum is within 2 SCREEN_DELTA of the
grid's.  With
u = 2^-24, IEEE sqrt and division and a log2 within 4 ulp, the relative
error is 4u in the radicand, 3u in its root and 5u in A_k, so lambda_k
is off by 3u; H is concave and decreasing on [1/2, 1], so it moves by
hb(3u) at most, and logs, products and sums add 13u: |E32 - E| <=
hb(3u) + 13u = 5.1e-6 (float64: under 2e-8; measured |E32 - E64| <=
1.6e-6 on 4,306 states).  So the first float64 argmin's row, and each
row holding a tie, is kept, in order, and the result is the same bit
for bit.  Only float64 clamps the radicand at 0, where
r^2 +/- 2 r c3 z3 + theta can cancel below it.  In float32 no clamp is
needed: the squares (r +/- c3 z3)^2 are >= 0, 1 - z3^2 >= 0 on [0, 1],
and c1^2 + (c2^2 - c1^2) sin^2 phi >= 0 under monotone rounding
(sin^2 phi lies in [0, 1], so the product lies between 0 and the
rounded c2^2 - c1^2, which is at least -c1^2); so every term and the
sum round to >= 0, and the float32 values are those a clamp would give.
LOG_FLOOR, float32's smallest normal, keeps log2 finite at
1 - lambda_k = 0 in float32 and changes no float64 bit.  Near-product
grids are flat within the margin: they keep every row and cost about
1.5 times the float64 sweep alone.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .states import BlochX, binary_entropy

PROB_FLOOR = 1e-15        # outcomes at most this likely contribute nothing
LOG_FLOOR = 2.0 ** -126   # float32's smallest normal: keeps log2 finite
HALF_PI = math.pi / 2.0
ZOOM_POINTS = 17          # per axis of each refinement grid
ZOOM_SHRINK = 8.0         # step ratio between refinement rounds
ZOOM_MIN_STEP = 1e-8      # z3 step at which refinement stops
CORNER_GAIN = 1e-15       # a round gaining less ends refinement at a corner
SWEEP_BLOCK = 8192        # grid cells per block: 128 KB per work array
SCREEN_DELTA = 2e-5       # bound on |float32 - float64| entropy, with margin
_SIGNS = np.array([1.0, -1.0])   # outcome axis: +, then -
_ZOOM_STEPS = np.arange(ZOOM_POINTS, dtype=float)


def _rows(p: BlochX, z3):
    """(r^2 +/- 2 r c3 z3, divisor, p_k) of outcomes k = +, -, on a
    leading axis before z3's shape (z3 needs theta's ndim).  With w_k =
    1 +/- s z3 the divisor is w_k, or inf where w_k <= PROB_FLOOR, so a
    dead outcome's A_k is +0.0; p_k is w_k / 2 where w_k is live, else 0."""
    z3 = np.asarray(z3, dtype=float)
    sign = _SIGNS.reshape((2,) + (1,) * z3.ndim)
    w = 1.0 + sign * p.s * z3
    base = p.r * p.r + sign * (2.0 * p.r * p.c3) * z3
    live = w > PROB_FLOOR
    return base, np.where(live, w, np.inf), np.where(live, 0.5 * w, 0.0)


def _outcomes(rows, theta, out=None):
    """(p_k, lambda_k) on the rows of _rows: lambda_k = (1 + A_k) / 2,
    A_k = min(sqrt(r^2 +/- 2 r c3 z3 + theta) / w_k, 1), 0 if w_k dead."""
    base, divisor, pk = rows
    a = np.add(base, theta, out=out)
    if a.dtype == np.float64:       # a float32 radicand is never negative
        np.maximum(a, 0.0, out=a)
    np.sqrt(a, out=a)
    a /= divisor
    np.minimum(a, 1.0, out=a)
    a += 1.0
    a *= 0.5
    return pk, a


def _entropy(rows, theta, work=(None, None, None)):
    """Measured conditional entropy sum_k p_k H(lambda_k), in bits.

    H(x) = -(x log2 x + (1 - x) log2 (1 - x)).  Each lambda_k lies in
    [1/2, 1] on multiples of u = 2^-53 (2^-24 in float32), so 1 - lambda_k
    is exact, 0 or at least u; adding LOG_FLOOR changes only a 0.  work
    holds three arrays of lambda_k's shape, or None for each to allocate.
    """
    pk, lam = _outcomes(rows, theta, work[0])
    q = np.subtract(1.0, lam, out=work[1])
    qlog = np.add(q, LOG_FLOOR, out=work[2])
    np.log2(qlog, out=qlog)
    qlog *= q
    h = np.log2(lam, out=q)
    h *= lam
    h += qlog
    h *= -pk                        # p_k H = (-p_k)(x log2 x + ...)
    return h[0] + h[1] + 0.0        # "+ 0.0" normalizes -0.0


def _phi_weight(p: BlochX) -> float:
    # coefficient of sin^2 phi in theta; at exactly 0.0 every phi column
    # of a grid ties with phi = 0 bit for bit
    return p.c2 * p.c2 - p.c1 * p.c1


@functools.lru_cache(maxsize=4)
def _coarse_grid(n: int):
    # the read-only axes (z3s, phis, sin^2 phi) of an n x n sweep, once per n
    z3s, phis = np.linspace(0.0, 1.0, n), np.linspace(0.0, HALF_PI, n)
    sin2 = np.sin(phis) ** 2
    z3s.flags.writeable = phis.flags.writeable = sin2.flags.writeable = False
    return z3s, phis, sin2


def _zoom_axis(lo: float, hi: float) -> np.ndarray:
    # np.linspace(lo, hi, ZOOM_POINTS) bit for bit, unless the step underflows
    axis = _ZOOM_STEPS * ((hi - lo) / (ZOOM_POINTS - 1)) + lo
    axis[-1] = hi
    return axis


def _blocks(p: BlochX, z3s: np.ndarray, sin2: np.ndarray, dtype=np.float64):
    # (first row, entropy) of each block of rows of the grid z3s x phis,
    # given as sin2 = sin^2 phi, in dtype; a work array holds SWEEP_BLOCK
    # float64s' bytes.  float32 moves (c3 z3)^2 into the base,
    # (r +/- c3 z3)^2, where nothing cancels
    z3c = z3s[:, None]
    base, divisor, pk = _rows(p, z3c)
    rho2, tail = 1.0 - z3c * z3c, (p.c3 * z3c) ** 2
    circle = p.c1 * p.c1 + _phi_weight(p) * sin2
    if dtype != np.float64:
        base, tail = (p.r + _SIGNS[:, None, None] * p.c3 * z3c) ** 2, None
        base, divisor, pk, rho2, circle = (
            x.astype(dtype) for x in (base, divisor, pk, rho2, circle))
    step = max(1, SWEEP_BLOCK * 8 // circle.itemsize // len(sin2))
    if step >= len(z3s):            # one block: no slices, no work arrays
        theta = rho2 * circle
        if tail is not None:
            theta += tail
        yield 0, _entropy((base, divisor, pk), theta)
        return
    work = np.empty((3, 2, step, len(sin2)), dtype)
    for start in range(0, len(z3s), step):
        cut = slice(start, start + step)
        theta = rho2[cut] * circle
        if tail is not None:
            theta += tail[cut]
        rows = [x[:, cut] for x in (base, divisor, pk)]
        yield start, _entropy(rows, theta, work[:, :, :len(theta)])


def _screen(p: BlochX, z3s: np.ndarray, sin2: np.ndarray):
    # rows of the grid whose float32 minimum lies within 2 SCREEN_DELTA
    # of the grid's, in order; None if a float32 value is not finite
    mins = np.empty(len(z3s))           # float64, so the limit stays exact
    for start, ce in _blocks(p, z3s, sin2, np.float32):
        mins[start:start + len(ce)] = ce.min(axis=1)
    if np.isfinite(mins).all():
        return np.flatnonzero(mins <= mins.min() + 2.0 * SCREEN_DELTA)
    return None


def _sweep(p: BlochX, z3s: np.ndarray, sin2: np.ndarray):
    # (entropy, row, column) of the minimum on the grid z3s x phis, given
    # as sin2 = sin^2 phi, a block of rows at a time; ties resolve to the
    # first cell in row-major order.  A grid of more than one block is
    # swept in float64 only on the rows its screen keeps
    n = len(sin2)
    keep = None
    if len(z3s) * n > SWEEP_BLOCK:
        keep = _screen(p, z3s, sin2)
    best = None
    for start, ce in _blocks(p, z3s if keep is None else z3s[keep], sin2):
        k = int(ce.argmin())
        if best is None or ce.flat[k] < best[0]:
            best = (float(ce.flat[k]), start + k // n, k % n)
    if keep is not None:
        best = (best[0], int(keep[best[1]]), best[2])
    return best


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
    a corner of the domain and a round gains less than CORNER_GAIN.  On a
    state with c1^2 = c2^2 every grid shrinks to its phi = 0 column, where
    the full grid's ties resolve; the result is the same bit for bit.
    """
    if grid_n < 1 or refine_rounds < 0:
        raise ValueError("grid_n must be at least 1 and refine_rounds at "
                         f"least 0, got {grid_n} and {refine_rounds}")
    cols = 1 if _phi_weight(p) == 0.0 else None    # phi columns swept
    n = operator.index(grid_n)
    z3s, phis, sin2 = _coarse_grid(n)
    best, i, j = _sweep(p, z3s, sin2[:cols])
    z3, phi = float(z3s[i]), float(phis[j])

    dz = 1.0 / max(grid_n - 1, 1)
    dphi = HALF_PI * dz
    for _ in range(refine_rounds):
        zs = _zoom_axis(max(z3 - dz, 0.0), min(z3 + dz, 1.0))
        fs = _zoom_axis(max(phi - dphi, 0.0), min(phi + dphi, HALF_PI))
        cand, a, b = _sweep(p, zs, np.sin(fs[:cols]) ** 2)
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
