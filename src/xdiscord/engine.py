"""Discord of an X-state via a one-variable reduction.

Minimizing the measured conditional entropy over all von Neumann
measurements on qubit b reduces, for X-states, to maximizing a single
function F(z) on z in [0, 1], where z is the polar component of the
measurement axis.  This module evaluates F and its first two derivatives
in closed form, classifies the parameter regions where the maximum sits
at an endpoint, and otherwise routes on the signs of F''(0) and F'(1):
three of the four sign patterns leave the maximum at an endpoint.  The
fourth, an interior maximum, carries its own sign-change bracket and
takes one bracketed Newton run from z = 1.  States whose signs are not
trusted take a derivative sign scan with safeguarded Newton inside every
bracket; the scan also stays as the reference that checks the router.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .states import BlochX, entropies, xlog2, xlog2_float

LN2 = math.log(2.0)
CLASSIFY_TOL = 1e-12      # equality band for the region conditions
NEWTON_STEP_TOL = 1e-12
NEWTON_GRAD_TOL = 1e-13
NEWTON_MAX_ITER = 100
SCAN_POINTS = 201
TIE_TOL = 1e-12
# |F''(0)| or |F'(1)| at or below this leaves the state to the scan.
# Against 50-digit values on 18,000 uniform, swapped rank-2, a-d and
# boundary states, no float value below 1e-2 in size was off by more than
# 1.6e-12; the error of F''(0) grows as sqrt(r^2 + c^2) -> 1, to 2.8e-10
# on a value of 0.047 and 8e-9 on values of order 1.
SIGN_BAND = 1e-9
PAIR_FLOOR = 1e-15        # weights below this contribute nothing
H_FLOOR = 1e-12           # radicals below this switch to the series limit
TINY = 1e-300             # log argument floor; keeps exact zeros finite


class Region(Enum):
    """Parameter regions with a known maximizer of F."""

    CASE_A = "a"          # max at z = 1
    CASE_B = "b"          # max at z = 1
    CASE_C = "c"          # r = 0 family, endpoint picked by c3^2 vs c^2
    CASE_D = "d"          # max at z = 0
    GENERAL = "general"   # no closed form; numeric search


@dataclass(frozen=True)
class FContext:
    """Scalars shared by every F(z) evaluation for one state."""

    p: BlochX
    c: float        # max(|c1|, |c2|)

    @classmethod
    def from_state(cls, p: BlochX) -> "FContext":
        return cls(p=p, c=max(abs(p.c1), abs(p.c2)))


# ---------------------------------------------------------------------------
# F and derivatives.  Each formula is written once against a backend xp:
# _FLOAT uses the math module (Newton runs many single-point evaluations),
# _ARRAY uses numpy for grids.  Each keeps its own libm; a test pins the
# two against each other.  The float backend evaluates both arms of every
# where(), so every denominator and log argument below is guarded even in
# the arm that is not selected.

_FLOAT = SimpleNamespace(
    sqrt=math.sqrt,
    log=lambda x: math.log(x if x > TINY else TINY),
    # what max() and min() return, at a lower call cost than the builtins
    maximum=lambda a, b: b if b > a else a,
    minimum=lambda a, b: b if b < a else a,
    where=lambda cond, a, b: a if cond else b,
    xlog2=xlog2_float,
)
_ARRAY = SimpleNamespace(
    sqrt=np.sqrt,
    log=lambda x: np.log(np.maximum(x, TINY)),
    maximum=np.maximum,
    minimum=np.minimum,
    where=np.where,
    xlog2=xlog2,
)


def _on_backend(z):
    """z as a float on the math backend, or as an array on numpy's."""
    if np.ndim(z) == 0:
        return float(z), _FLOAT
    return np.asarray(z, dtype=float), _ARRAY


def _radicals(ctx: FContext, z, xp):
    # weights w+- = 1 +- s z and radicals H+- = sqrt(c^2 (1 - z^2)
    # + (r +- c3 z)^2)
    p = ctx.p
    rad = ctx.c * ctx.c * (1.0 - z * z)
    hp = xp.sqrt(xp.maximum(rad + (p.r + p.c3 * z) ** 2, 0.0))
    hm = xp.sqrt(xp.maximum(rad + (p.r - p.c3 * z) ** 2, 0.0))
    return 1.0 + p.s * z, 1.0 - p.s * z, hp, hm


def _pair(w, h, xp):
    # (w/4) [(1+A)log2(1+A) + (1-A)log2(1-A)], A = min(h/w, 1) with h >= 0;
    # exact for the two log terms sharing weight w, finite at A -> 1
    big = w > PAIR_FLOOR
    w = xp.where(big, w, 1.0)
    a = xp.minimum(h / w, 1.0)
    return xp.where(big, 0.25 * w * (xp.xlog2(1.0 + a) + xp.xlog2(1.0 - a)),
                    0.0)


def _f(rads, xp):
    wp, wm, hp, hm = rads
    return _pair(wp, hp, xp) + _pair(wm, hm, xp)


def f_value(ctx: FContext, z):
    """F(z) for scalar or array z in [0, 1]."""
    z, xp = _on_backend(z)
    return _f(_radicals(ctx, z, xp), xp)


# F' is evaluated with the coefficients regrouped per logarithm:
#
#   4 ln2 F' = (s + n+/H+) ln(w+ + H+) + (s - n+/H+) ln(w+ - H+)
#            + (n-/H- - s) ln(w- + H-) - (s + n-/H-) ln(w- - H-)
#            + 2 s ln(w-/w+)
#
# with w+- = 1 +- s z, H+- the radicals, n+- = +-r c3 + (c3^2 - c^2) z
# their derivative numerators.  Algebraically identical to the compact
# two-term display, but on boundary-rank states the coefficient of the
# diverging logarithm vanishes, so this form stays finite where the
# compact one produces inf - inf.  When a radical underflows, the log
# pair it multiplies has the limit 2 n / w.  A weight w+- vanishes only at
# z = 1 on |s| = 1, where the state is a product (c = 0, c3 = r s): there
# H+- = |c3| w+- for every z, F is flat and F' = 0, but the logs floored
# at TINY no longer cancel, so that point takes the limit 0 directly.

def _branch(w, h, n, se, xp):
    lp = xp.log(w + h)
    lm = xp.log(w - h)
    big = h > H_FLOOR
    u = n / xp.where(big, h, 1.0)
    full = (se + u) * lp + (se - u) * lm
    series = se * (lp + lm) + 2.0 * n / xp.maximum(w, TINY)
    return xp.where(big, full, series)


def _fp(ctx: FContext, z, rads, xp):
    p = ctx.p
    r, s, c3, c = p.r, p.s, p.c3, ctx.c
    q = c3 * c3 - c * c
    wp, wm, hp, hm = rads
    tot = _branch(wp, hp, r * c3 + q * z, s, xp)
    tot += _branch(wm, hm, -r * c3 + q * z, -s, xp)
    tot += 2.0 * s * (xp.log(wm) - xp.log(wp))
    return xp.where(xp.minimum(wp, wm) > PAIR_FLOOR, tot / (4.0 * LN2), 0.0)


def f_derivative(ctx: FContext, z):
    """F'(z) for scalar or array z.  F'(0) is exactly 0 (F is even)."""
    z, xp = _on_backend(z)
    return _fp(ctx, z, _radicals(ctx, z, xp), xp)


def _fpp(ctx: FContext, z, rads, xp):
    p = ctx.p
    r, s, c3, c = p.r, p.s, p.c3, ctx.c
    wp, wm, hp, hm = rads
    dp = wp * wp - hp * hp
    dm = wm * wm - hm * hm
    # near-singular denominators: signal with nan, callers fall back; the
    # stand-in values keep the unselected arm finite
    bad = ((hp <= H_FLOOR) | (hm <= H_FLOOR) | (dp <= TINY) | (dm <= TINY)
           | (wp <= TINY) | (wm <= TINY))
    hp, hm = xp.where(bad, 0.5, hp), xp.where(bad, 0.5, hm)
    dp, dm = xp.where(bad, 1.0, dp), xp.where(bad, 1.0, dm)
    wp, wm = xp.where(bad, 1.0, wp), xp.where(bad, 1.0, wm)
    q = c3 * c3 - c * c
    gp = (r * c3 + q * z) / hp
    gm = (-r * c3 + q * z) / hm
    curv = c * c * (q - r * r)
    t = ((s * s + gp * gp) * wp - 2.0 * s * hp * gp) / dp
    t += ((s * s + gm * gm) * wm + 2.0 * s * hm * gm) / dm
    t -= 2.0 * s * s / (wp * wm)
    t += 0.5 * (curv / hp ** 3) * xp.log((wp + hp) / (wp - hp))
    t += 0.5 * (curv / hm ** 3) * xp.log((wm + hm) / (wm - hm))
    return xp.where(bad, math.nan, t / (2.0 * LN2))


def f_second_derivative(ctx: FContext, z):
    """F''(z); returns nan where a denominator degenerates."""
    z, xp = _on_backend(z)
    return _fpp(ctx, z, _radicals(ctx, z, xp), xp)


# ---------------------------------------------------------------------------
# The region classifier.  Inside a region the maximizer is an endpoint, and
# its value is F there; the 50-digit reference in the tests checks F(0)
# and F(1) against the defining sum.

def region_conditions(p: BlochX) -> dict[str, bool]:
    """Which of the four endpoint-region hypotheses the state satisfies.

    The regions overlap; classify_region resolves overlaps by the fixed
    precedence a, b, c, d (consistent, since the endpoint values agree on
    every overlap).
    """
    tol = CLASSIFY_TOL
    r, s, c3 = p.r, p.s, p.c3
    c = max(abs(p.c1), abs(p.c2))
    q = c3 * c3 - c * c
    rc3 = r * c3
    src3 = s * rc3
    return {
        "a": (s >= -tol and rc3 <= tol and q >= src3 - tol)
             or (abs(s) <= tol and q >= -tol),
        "b": s <= tol and rc3 >= -tol and q >= src3 - tol,
        "c": abs(r) <= tol and (q >= -tol or abs(s) <= tol),
        "d": (abs(s - rc3) <= tol and s <= tol and abs(q) <= tol
              and c * c + r * r <= 2.0 / 3.0 + tol),
    }


def classify_region(p: BlochX) -> Region:
    """Assign the state to the first matching region, a through d.

    Comparisons use a small equality band; states matching no hypothesis
    get Region.GENERAL and take the numeric search.
    """
    conds = region_conditions(p)
    for tag in "abcd":
        if conds[tag]:
            return Region(tag)
    return Region.GENERAL


def analytic_max(p: BlochX,
                 region: Region | None = None) -> tuple[float, float]:
    """(z*, max F) from the closed forms; requires a non-general region."""
    tag = classify_region(p) if region is None else region
    ctx = FContext.from_state(p)
    if tag in (Region.CASE_A, Region.CASE_B):
        z_star = 1.0
    elif tag is Region.CASE_C:
        z_star = 1.0 if p.c3 * p.c3 >= ctx.c * ctx.c - CLASSIFY_TOL else 0.0
    elif tag is Region.CASE_D:
        z_star = 0.0
    else:
        raise ValueError("state is outside the closed-form regions")
    return z_star, _f(_radicals(ctx, z_star, _FLOAT), _FLOAT)


# ---------------------------------------------------------------------------
# Numeric search: safeguarded Newton plus a derivative sign scan.

@dataclass(frozen=True)
class NewtonRun:
    """Trace of one safeguarded Newton run on F'."""

    seed: float
    iterates: tuple[float, ...]
    converged: bool
    z: float
    note: str = ""


def newton_critical_point(ctx: FContext, z0: float,
                          bracket: tuple[float, float] | None = None
                          ) -> NewtonRun:
    """Newton iteration for F'(z) = 0 from z0, confined to [0, 1].

    Steps that leave the interval or increase |F'| are rejected; with a
    sign-change bracket the rejected step is replaced by bisection,
    otherwise the run is abandoned.  Converged once F' is exactly 0, once
    a step moves z by less than 1e-12, or once |F'| < 1e-13 and the next
    Newton step would not shrink |F'| strictly or would move z by less
    than 1e-12; that step is not taken.  The polishing below 1e-13 lets
    two runs at one root stop together even where F is flat.  Capped at
    100 steps.

    F' is finite at every z on the float backend (logs are floored at
    TINY and every denominator is guarded), so a bracketed run never
    fails for want of a derivative: every rejected step can bisect.
    """
    z = float(z0)
    rads = _radicals(ctx, z, _FLOAT)
    g = _fp(ctx, z, rads, _FLOAT)
    if bracket is None:
        return _newton(ctx, z, g, rads)[0]
    lo, hi = float(bracket[0]), float(bracket[1])
    return _newton(ctx, z, g, rads, lo, hi,
                   f_derivative(ctx, lo), f_derivative(ctx, hi))[0]


def _newton(ctx: FContext, z: float, g: float, rads, lo: float = 0.0,
            hi: float = 1.0, glo: float = 0.0, ghi: float = 0.0):
    # newton_critical_point's loop, from a seed z whose F' (g) and
    # radicals the caller already has.  glo and ghi are F' at lo and hi;
    # a rejected step bisects [lo, hi] only where they differ in sign.
    # Returns the run and the radicals at its z.
    seed = z
    have_bracket = glo * ghi < 0.0
    its: list[float] = []
    converged = False
    note = ""
    for _ in range(NEWTON_MAX_ITER):
        if g == 0.0:
            converged = True      # zn = z, so no step can shrink |F'|
            break
        h2 = _fpp(ctx, z, rads, _FLOAT)
        zn = z - g / h2 if math.isfinite(h2) and h2 != 0.0 else math.nan
        ok = lo <= zn <= hi                                 # False on nan
        if ok:
            rn = _radicals(ctx, zn, _FLOAT)
        gn = _fp(ctx, zn, rn, _FLOAT) if ok else math.nan
        if abs(g) < NEWTON_GRAD_TOL and not (
                abs(gn) < abs(g) and abs(zn - z) >= NEWTON_STEP_TOL):
            converged = True
            break
        if not (ok and abs(gn) <= abs(g)):
            if not have_bracket:
                note = "step rejected, no bracket to bisect"
                break
            zn = 0.5 * (lo + hi)
            rn = _radicals(ctx, zn, _FLOAT)
            gn = _fp(ctx, zn, rn, _FLOAT)
            note = "bisection fallback used"
        its.append(zn)
        if have_bracket:
            if gn * glo > 0.0:
                lo, glo = zn, gn
            else:
                hi = zn
        dz = abs(zn - z)
        z, g, rads = zn, gn, rn
        if dz < NEWTON_STEP_TOL:
            converged = True
            break
    else:
        note = "iteration cap reached"
    return NewtonRun(seed=seed, iterates=tuple(its), converged=converged,
                     z=z, note=note), rads


@dataclass(frozen=True)
class MaxResult:
    """Outcome of the global search for max F on [0, 1].

    candidates holds every (z, F(z)) examined; newton_runs starts with the
    run seeded at z0 = 1 (a zero-step record when the signs of F''(0) and
    F'(1) left no interior maximum to look for).  fallback is "bisection"
    when a Newton run replaced a rejected step by bisection, else None.
    tie is set when F(0) and F(1) agree at the top within 1e-12.  route
    is "scan" for the derivative sign scan, else "signs a,b" with the
    signs of F''(0) and F'(1).
    """

    z_star: float
    f_max: float
    candidates: tuple[tuple[float, float], ...]
    newton_runs: tuple[NewtonRun, ...]
    tie: bool
    fallback: str | None
    route: str


def _pick(cands, runs, route: str) -> MaxResult:
    # the largest candidate, resolving ties towards z = 1, then z = 0;
    # cands starts with (0, F(0)) and (1, F(1)), and holds only floats.
    # Every numeric call ends here, so it builds no generators.
    (_, f0), (_, f1) = cands[0], cands[1]
    inner = cands[2:]
    f_max = max(f0, f1)
    for _, f in inner:
        f_max = max(f_max, f)
    low = f_max - TIE_TOL
    tie = abs(f0 - f1) <= TIE_TOL and f_max - max(f0, f1) <= TIE_TOL
    if f_max < 1e-12:
        z_star = 0.0              # flat F: state has no correlations
    elif f1 >= low or any([z >= 1.0 - TIE_TOL for z, f in inner if f >= low]):
        z_star = 1.0
    elif f0 >= low or any([z <= TIE_TOL for z, f in inner if f >= low]):
        z_star = 0.0
    else:
        z_star = max(cands, key=lambda t: t[1])[0]
    fallback = None
    for run in runs:
        if "bisection" in run.note:
            fallback = "bisection"
    return MaxResult(z_star, f_max, tuple(cands), tuple(runs), tie, fallback,
                     route)


def _global_max(ctx: FContext) -> MaxResult:
    zs = np.linspace(0.0, 1.0, SCAN_POINTS)
    with np.errstate(all="ignore"):
        d = _fp(ctx, zs, _radicals(ctx, zs, _ARRAY), _ARRAY)
        gi, gj = d[1:-1], d[2:]
        hits = (np.isfinite(gi) & np.isfinite(gj)
                & ((gi == 0.0) | (gi * gj < 0.0)))
    cands: list[tuple[float, float]] = [(0.0, f_value(ctx, 0.0)),
                                        (1.0, f_value(ctx, 1.0))]
    run0 = newton_critical_point(ctx, 1.0)
    runs = [run0]
    if run0.converged:
        cands.append((run0.z, f_value(ctx, run0.z)))

    # interior grid cells where F' vanishes or changes sign; z = 0 is
    # always critical (F is even), covered above.  Newton runs where the
    # float F' changes sign across the cell too, so it can always bisect;
    # where it does not, the two backends disagree on a sign at rounding
    # level, and the grid point with the smaller |F'| is the root.
    for i in np.flatnonzero(hits) + 1:
        a, b = float(zs[i]), float(zs[i + 1])
        ga, gb = f_derivative(ctx, a), f_derivative(ctx, b)
        if ga * gb < 0.0:
            runs.append(newton_critical_point(ctx, 0.5 * (a + b),
                                              bracket=(a, b)))
            a = runs[-1].z
        elif abs(gb) < abs(ga):
            a = b
        cands.append((a, f_value(ctx, a)))
    return _pick(cands, runs, "scan")


def global_max(p: BlochX) -> MaxResult:
    """Locate max F by endpoint candidates, Newton from z = 1, and Newton
    inside every sign-change bracket of F' on SCAN_POINTS grid points."""
    return _global_max(FContext.from_state(p))


# the route for each sign pair (F''(0) > 0, F'(1) > 0), and the zero-step
# record that stands for Newton on the rows with no interior maximum
_ROUTES = {(False, False): "signs -,-", (True, True): "signs +,+",
           (False, True): "signs -,+", (True, False): "signs +,-"}
_NOT_RUN = {
    route: NewtonRun(seed=1.0, iterates=(), converged=False, z=1.0,
                     note=f"not run: {route} leave no interior maximum")
    for route in ("signs -,-", "signs +,+", "signs -,+")}


def _routed_max(ctx: FContext) -> MaxResult:
    # F'(0) = 0, and F' has at most one zero on (0, 1) (conjectured; see
    # the README), so the signs of F''(0) and F'(1) say where it lies:
    # (-,-) and (+,+) have none, (-,+) an interior minimum, (+,-) an
    # interior maximum.  For that maximum, F''(0) > 0 makes F' > 0 just
    # above 0: halve lo from 0.5 until F'(lo) > 0, then run Newton from
    # z = 1 inside the sign-change bracket (lo, 1].  Untrusted signs, and
    # a (+,-) state with no F'(lo) > 0 for lo above 1e-12, take the scan.
    r0 = _radicals(ctx, 0.0, _FLOAT)
    r1 = _radicals(ctx, 1.0, _FLOAT)
    a = _fpp(ctx, 0.0, r0, _FLOAT)
    b = _fp(ctx, 1.0, r1, _FLOAT)
    if not (abs(a) > SIGN_BAND and abs(b) > SIGN_BAND):    # nan too
        return _global_max(ctx)
    route = _ROUTES[a > 0.0, b > 0.0]
    cands = [(0.0, _f(r0, _FLOAT)), (1.0, _f(r1, _FLOAT))]
    if a > 0.0 > b:
        lo, glo = 1.0, math.nan
        while not glo > 0.0:
            lo *= 0.5
            if lo < NEWTON_STEP_TOL:
                return _global_max(ctx)
            glo = _fp(ctx, lo, _radicals(ctx, lo, _FLOAT), _FLOAT)
        run, rz = _newton(ctx, 1.0, b, r1, lo, 1.0, glo, b)
        cands.append((run.z, _f(rz, _FLOAT)))
    else:
        run = _NOT_RUN[route]
    return _pick(cands, (run,), route)


# ---------------------------------------------------------------------------
# Assembly.

@dataclass(frozen=True)
class DiscordResult:
    """Discord and companions for one state.

    method is "analytic" when a closed-form region supplied the maximum,
    else "numeric".  search carries the numeric trace when one ran.
    verify_gap, set by verify=True, is the gap in max F between the route
    taken and the one that checks it.
    """

    discord: float
    classical_correlation: float
    mutual_information: float
    z_star: float
    f_max: float
    region: str
    method: str
    search: MaxResult | None = None
    verify_gap: float | None = None


def discord(p: BlochX, method: str = "auto",
            verify: bool = False) -> DiscordResult:
    """Quantum discord of an X-state, measuring qubit b.

    method "auto" uses the closed forms when the state classifies into a
    known region and the numeric search otherwise; "numeric" forces the
    search; "analytic" raises outside the closed-form regions.  The
    numeric search routes on the signs of F''(0) and F'(1); an interior
    maximum takes one Newton run inside its own sign-change bracket, and
    untrusted signs (or a bracket not found) take the derivative sign
    scan on SCAN_POINTS points.  verify=True checks the route taken
    against a second one and records the gap: the scan checks the closed
    forms and the router, the closed form checks a numeric search forced
    inside a region.
    """
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    tag = classify_region(p)
    search = None
    verify_gap = None
    if method == "numeric" or (method == "auto" and tag is Region.GENERAL):
        ctx = FContext.from_state(p)
        search = _routed_max(ctx)
        z_star, f_max = search.z_star, search.f_max
        how = "numeric"
        if verify and tag is not Region.GENERAL:
            verify_gap = abs(analytic_max(p, tag)[1] - f_max)
        elif verify:
            verify_gap = abs(_global_max(ctx).f_max - f_max)
    else:
        z_star, f_max = analytic_max(p, tag)
        how = "analytic"
        if verify:
            search = global_max(p)
            verify_gap = abs(search.f_max - f_max)

    if f_max < TIE_TOL:
        z_star = 0.0    # flat F: no correlations, every direction ties

    sa, sb, sab = entropies(p)
    q = 1.0 + sb - sab - f_max
    cc = f_max - 1.0 + sa
    mi = sa + sb - sab
    return DiscordResult(discord=q, classical_correlation=cc,
                         mutual_information=mi, z_star=float(z_star),
                         f_max=float(f_max), region=tag.value, method=how,
                         search=search, verify_gap=verify_gap)
