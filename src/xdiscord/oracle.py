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

On such a one-column grid one float64 pass also sweeps the refinement's
first zoom axes around z3 = 0 and around z3 = 1: the corner column,
cached with the coarse axes, is z3s followed by both.  Their phi column
is [0.0], the coarse one's, so its sin^2 phi is the same 0.0.  When the
coarse winner is a corner, round 1 takes its minimum from that zoom's
rows and sweeps nothing; later rounds, full grids and interior winners
sweep as before.  The rows give the bits of a sweep of each grid alone:
the kernel works elementwise, so a cell does not depend on the other
rows of its pass, and each segment's argmin is its first minimum, the
first row-major minimum _sweep returns.  A column of more than
SWEEP_BLOCK rows takes the same pass, in blocks, with no screen: a
screen only drops rows that cannot hold the float64 minimum.

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
or phi alone are built once per grid; the kernel's own arrays are
allocated per call.  A grid of one block (every zoom grid, the corner
column of grids up to 8,158 rows, and most sets of float64 rows a screen
keeps) runs the kernel once on whole arrays, with no slices.

A grid of more than SWEEP_BLOCK cells (91 x 91 and up; the screen starts
to pay between 64 x 64 and 80 x 80) is screened in float32 by a kernel
of its own, then the float64 sweep runs only on rows whose float32
minimum is within 2 SCREEN_DELTA of the grid's.  Per row and outcome,
in float64, alpha_k = (1 - z3^2) / w_k^2 and beta_k = (r +/- c3 z3)^2 /
w_k^2 (both 0 for a dead outcome, through the inf divisor) are cast to
float32; one matmul per block and outcome of [alpha beta] by [circle; 1],
circle = c1^2 + (c2^2 - c1^2) sin^2 phi, gives A_k^2 with no broadcast
and no divide.  With T(A) = (1 + A) log2(1 + A) + (1 - A) log2(1 - A),
p H((1 + A) / 2) = p - p T(A) / 2, so a row's minimum is P - max_j
sum_k p_k T(A_k) / 2 with P = sum_k p_k.  P is 1 within 5e-11 (both
outcomes live: 1 up to rounding; one dead: 1 - w_dead / 2, and w_dead
lies in [-1e-10, 1e-15] for |s| <= 1 + PHYS_TOL), so the screen ranks
rows by max_j sum_k p_k T(A_k) / 2 alone, and P and the 1/2 stay out
of the cell loop.

The float32 error, with u = 2^-24, IEEE sqrt and a log2 within 4 ulp:
the casts of alpha, beta and circle cost u each, and the matmul's sum of
the two nonnegative terms alpha circle and beta * 1 costs at most 2u
more in any summation order, with or without FMA (a product by 1 is
exact, and a sum of nonnegative terms keeps the larger relative error
plus u).  So A_k^2 is off by 4u relative, and after the sqrt A_k by 3u;
an underflowing cast or product adds at most sqrt(5 * 2^-150) < 2^-73.
lambda_k = (1 + A_k) / 2 is then off by 1.5u, and H is concave and
decreasing on [1/2, 1], so the entropy at the computed A_k moves by
hb(1.5u) at most.  T itself adds 24.1u: rounding 1 + A (u, through
|g'| <= 2.45 for g(x) = x log2 x on [1, 2]) and 1 - A (u/2, through
|g'| <= 1.45 on [1/2, 1]; exact for A >= 1/2) 3.2u, the logs 8u
(|g(1 + A)| + |g(1 - A)|) <= 16.8u, the products and the sum 4.1u.
Casting p_k, weighting and summing the outcomes adds 6u to sum_k p_k
T(A_k), and taking P as 1 adds 5e-11.  So |E32 - E| <= hb(1.5u) + 15.1u
< 3.2e-6 (float64: under 2e-8; measured |E32 - E64| <= 6.9e-7 on 3,300
uniform and rank-2 states at grid 256), and the first float64 argmin's
row, and each row holding a tie, is kept, in order: the result is the
same bit for bit.

Every screen value is finite for every BlochX: a live w_k > PROB_FLOOR
and |r|, |c_i| <= 1 + PHYS_TOL give alpha_k circle < 1.1e30 and beta_k
< 4.1e30, so A_k^2 < 5.2e30, far below float32's largest 3.4e38;
min(., 1) then bounds A_k by 1, and log2 sees only [2^-126, 2].  No
clamp at 0 is needed: both terms round to >= 0 (1 - z3^2 >= 0 on [0,
1], and c1^2 + (c2^2 - c1^2) sin^2 phi >= 0 under monotone rounding,
since sin^2 phi lies in [0, 1], so the product lies between 0 and the
rounded c2^2 - c1^2, which is at least -c1^2).  Only float64 clamps its
radicand at 0, where r^2 +/- 2 r c3 z3 + theta can cancel below it.
min(., 1) is needed: a state inside PHYS_TOL can reach A_k > 1 where
w_k is small (BlochX(0.99, 1, 1e-5, -9e-6, 0.99) has A_-^2 = 1.012 at
1 - z3 = 6e-9).  LOG_FLOOR, float32's
smallest normal, keeps log2 finite at 1 - A = 0, which is exact, 0 or at
least u for A >= 1/2, and changes no float64 bit.

A block of the screen holds 2 SWEEP_BLOCK cells per outcome, so each of
its three float32 work arrays is 128 KB.  They are built once per grid:
glibc gives a freed array of that size back to the kernel, so a screen
that allocated them per block would fault them in again every block
(3,200-3,280 minor page faults per pass over 60 rank-2 states with the
Koashi-Winter bridge in between, against none).  They start on a 64-byte
boundary: malloc's 16-byte alignment leaves the offset to the heap's
layout, and on one 2-vCPU machine the certify p90 read 725 us at offset
0 and 752-788 us at 16, 32 and 48.  Each matmul has M N K
<= 2 * 16,384 = 32,768, below OpenBLAS's single-thread threshold of
262,144 (65,536 times GEMM_MULTITHREAD_THRESHOLD, 4): no BLAS thread
wakes up.  Near-product grids are flat within the margin: they keep
every row and cost about 1.4 times the float64 sweep alone.
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
SWEEP_BLOCK = 8192        # float64 cells per block and outcome
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


def _outcomes(rows, theta):
    """(p_k, lambda_k) on the rows of _rows: lambda_k = (1 + A_k) / 2,
    A_k = min(sqrt(r^2 +/- 2 r c3 z3 + theta) / w_k, 1), 0 if w_k dead."""
    base, divisor, pk = rows
    a = base + theta
    np.maximum(a, 0.0, out=a)
    np.sqrt(a, out=a)
    a /= divisor
    np.minimum(a, 1.0, out=a)
    a += 1.0
    a *= 0.5
    return pk, a


def _entropy(rows, theta):
    """Measured conditional entropy sum_k p_k H(lambda_k), in bits.

    H(x) = -(x log2 x + (1 - x) log2 (1 - x)).  Each lambda_k lies in
    [1/2, 1] on multiples of u = 2^-53, so 1 - lambda_k is exact, 0 or
    at least u; adding LOG_FLOOR changes only a 0.
    """
    pk, lam = _outcomes(rows, theta)
    q = 1.0 - lam
    qlog = q + LOG_FLOOR
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
    # the read-only axes (z3s, phis, sin^2 phi) of an n x n sweep, once per
    # n, and the corner column: z3s, then the first zoom axes of the
    # refinement around z3 = 0 and around z3 = 1
    z3s, phis = np.linspace(0.0, 1.0, n), np.linspace(0.0, HALF_PI, n)
    sin2 = np.sin(phis) ** 2
    dz = 1.0 / max(n - 1, 1)
    column = np.concatenate((z3s, _zoom_axis(0.0, min(dz, 1.0)),
                             _zoom_axis(max(1.0 - dz, 0.0), 1.0)))
    for axis in (z3s, phis, sin2, column):
        axis.flags.writeable = False
    return z3s, phis, sin2, column


def _zoom_axis(lo: float, hi: float) -> np.ndarray:
    # np.linspace(lo, hi, ZOOM_POINTS) bit for bit, unless the step underflows
    axis = _ZOOM_STEPS * ((hi - lo) / (ZOOM_POINTS - 1)) + lo
    axis[-1] = hi
    return axis


def _blocks(p: BlochX, z3s: np.ndarray, sin2: np.ndarray):
    # (first row, entropy) of each block of rows of the grid z3s x phis,
    # given as sin2 = sin^2 phi, SWEEP_BLOCK cells per outcome at a time
    z3c = z3s[:, None]
    rows = _rows(p, z3c)
    rho2, tail = 1.0 - z3c * z3c, (p.c3 * z3c) ** 2
    circle = p.c1 * p.c1 + _phi_weight(p) * sin2
    step = max(1, SWEEP_BLOCK // len(sin2))
    if step >= len(z3s):            # one block: no slices
        yield 0, _entropy(rows, rho2 * circle + tail)
        return
    for start in range(0, len(z3s), step):
        cut = slice(start, start + step)
        yield start, _entropy([x[:, cut] for x in rows],
                              rho2[cut] * circle + tail[cut])


def _screen_blocks(p: BlochX, z3s: np.ndarray, sin2: np.ndarray):
    # (first row, float32 sum_k p_k T(A_k)) of each block of rows of the
    # grid z3s x phis, given as sin2 = sin^2 phi, in a work array the next
    # block overwrites; a cell's entropy is sum_k p_k - sum_k p_k T(A_k) / 2,
    # and sum_k p_k is 1 within 5e-11
    z3c = z3s[:, None]
    _, divisor, pk = _rows(p, z3c)
    edge = (p.r + _SIGNS[:, None, None] * p.c3 * z3c) / divisor
    coef = np.concatenate(((1.0 - z3c * z3c) / (divisor * divisor),
                           edge * edge), axis=2).astype(np.float32)
    circle = np.stack((p.c1 * p.c1 + _phi_weight(p) * sin2,
                       np.ones_like(sin2))).astype(np.float32)
    pk = pk.astype(np.float32)
    step = max(1, 2 * SWEEP_BLOCK // len(sin2))
    size = 3 * 2 * step * len(sin2)
    raw = np.empty(size + 16, np.float32)          # 64 bytes of slack
    skip = -raw.ctypes.data % 64 // 4              # to a 64-byte boundary
    work = raw[skip:skip + size].reshape(3, 2, step, len(sin2))
    for start in range(0, len(z3s), step):
        cut = slice(start, start + step)
        a, q, qlog = work[:, :, :len(z3s[cut])]
        np.matmul(coef[:, cut], circle, out=a)      # A_k^2, never < 0
        np.minimum(a, 1.0, out=a)
        np.sqrt(a, out=a)
        np.subtract(1.0, a, out=q)
        np.add(q, LOG_FLOOR, out=qlog)
        np.log2(qlog, out=qlog)
        qlog *= q
        a += 1.0
        t = np.log2(a, out=q)
        t *= a
        t += qlog                                   # T(A_k)
        t *= pk[:, cut]
        yield start, np.add(t[0], t[1], out=qlog[0])


def _screen(p: BlochX, z3s: np.ndarray, sin2: np.ndarray):
    # rows of the grid whose float32 minimum, 1 - max_j sum_k p_k T / 2,
    # lies within 2 SCREEN_DELTA of the grid's, in order
    half = np.empty(len(z3s))           # float64, so the limit stays exact
    for start, sums in _screen_blocks(p, z3s, sin2):
        half[start:start + len(sums)] = sums.max(axis=1)
    half *= 0.5
    return np.flatnonzero(half >= half.max() - 2.0 * SCREEN_DELTA)


def _sweep(p: BlochX, z3s: np.ndarray, sin2: np.ndarray):
    # (entropy, row, column) of the minimum on the grid z3s x phis, given
    # as sin2 = sin^2 phi, a block of rows at a time; ties resolve to the
    # first cell in row-major order.  A grid of more than one block is
    # swept in float64 only on the rows its screen keeps
    n = len(sin2)
    keep = _screen(p, z3s, sin2) if len(z3s) * n > SWEEP_BLOCK else None
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
    the full grid's ties resolve, and the coarse pass also sweeps round
    1's zoom rows at both corners of z3, so a corner winner starts
    refining with no second pass.  The result is the same bit for bit:
    the kernel is elementwise, and each zoom's rows resolve ties to their
    first minimum, as a sweep of that grid alone does.
    """
    if grid_n < 1 or refine_rounds < 0:
        raise ValueError("grid_n must be at least 1 and refine_rounds at "
                         f"least 0, got {grid_n} and {refine_rounds}")
    cols = 1 if _phi_weight(p) == 0.0 else None    # phi columns swept
    n = operator.index(grid_n)
    z3s, phis, sin2, column = _coarse_grid(n)
    swept = None        # round 1's (entropy, (z3, phi)), if already swept
    if cols is None:
        best, i, j = _sweep(p, z3s, sin2)
    else:
        # one pass over the phi = 0 column and both corner zooms; a corner
        # winner's round 1 is the first minimum of its zoom's rows, whose
        # phi column is [0.0] as in the coarse grid
        ce = np.concatenate([e for _, e in _blocks(p, column, sin2[:1])])
        i, j = int(ce[:n].argmin()), 0
        best = float(ce[i, 0])
        if i in (0, n - 1):
            lo = n + ZOOM_POINTS * (i > 0)
            a = lo + int(ce[lo:lo + ZOOM_POINTS].argmin())
            swept = float(ce[a, 0]), (float(column[a]), 0.0)
    z3, phi = float(z3s[i]), float(phis[j])

    dz = 1.0 / max(grid_n - 1, 1)
    dphi = HALF_PI * dz
    for _ in range(refine_rounds):
        if swept is None:
            zs = _zoom_axis(max(z3 - dz, 0.0), min(z3 + dz, 1.0))
            fs = _zoom_axis(max(phi - dphi, 0.0), min(phi + dphi, HALF_PI))
            cand, a, b = _sweep(p, zs, np.sin(fs[:cols]) ** 2)
            swept = cand, (float(zs[a]), float(fs[b]))
        (cand, at), swept = swept, None
        gain = best - cand
        if gain > 0.0:
            best, (z3, phi) = cand, at
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
