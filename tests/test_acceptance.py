"""End-to-end acceptance gate: seven numbered criteria, one test each.

Every criterion gathers its sub-checks into a list of failure strings
and asserts the list is empty, so a verbose run shows one pass/fail
line per criterion and a failing criterion names each number it missed.

The pinned digits in criterion 1 come from an external reference
computation of the same matrix.  Where the recomputation disagrees
with a pinned digit string, the test reports the difference instead of
loosening its own tolerance; the remaining sub-checks and criteria
stand on independently derived values.
"""

import math
from time import perf_counter

import numpy as np

from conftest import EX_MATRIX, closed_form_bell_diagonal
from xdiscord import (BlochX, Region, XDensityMatrix, analytic_max,
                      bloch_to_matrix, discord, f_derivative, f_value,
                      global_max, koashi_winter, matrix_to_bloch,
                      oracle_classical_correlation, spectrum)
from xdiscord.sampling import (random_bell_diagonal, random_case,
                               random_rank_two, random_states)

# iterate digit strings pinned to their printed precision (half an ulp
# of the last printed digit), seeded at z0 = 1
PINNED_ITERATES = ((0.9205, 5e-5), (0.8884, 5e-5), (0.8833, 5e-5),
                   (0.8831, 5e-5), (0.88313, 5e-6), (0.883131, 5e-7))


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_worked_example_regression():
    failures = []
    p = matrix_to_bloch(XDensityMatrix(EX_MATRIX))
    for name, got, want in zip(("r", "s", "c1", "c2", "c3"), p.as_tuple(),
                               (-0.5934, -0.5934, 0.2, 0.2, 0.5)):
        check(failures, abs(got - want) < 1e-12,
              f"bloch {name}: expected {want}, computed {got!r}")
    for k, (got, want) in enumerate(zip(spectrum(p),
                                        (0.6717, 0.2250, 0.0783, 0.0250))):
        check(failures, abs(got - want) < 5e-5,
              f"eigenvalue {k}: expected {want} +/- 5e-5, computed {got!r}")

    discord(p)                      # warm-up outside the timed call
    t0 = perf_counter()
    res = discord(p)
    elapsed_ms = (perf_counter() - t0) * 1e3

    run = res.search.newton_runs[0]
    check(failures, run.seed == 1.0, f"newton seed is {run.seed}, not 1.0")
    for k, (want, tol) in enumerate(PINNED_ITERATES):
        if k < len(run.iterates):
            got = run.iterates[k]
            check(failures, abs(got - want) <= tol,
                  f"newton iterate {k + 1}: pinned {want}, recomputed "
                  f"{got:.10f} (off {abs(got - want):.2e}, tol {tol:g})")
        else:
            failures.append(
                f"newton iterate {k + 1}: pinned {want}, but the "
                f"recomputed run converged after {len(run.iterates)} "
                "iterates")
    check(failures, abs(res.z_star - 0.88313) < 1e-5,
          f"z*: pinned 0.88313 +/- 1e-5, recomputed {res.z_star:.10f}")
    check(failures, abs(res.discord - 0.1328) < 5e-5,
          f"discord: pinned 0.1328 +/- 5e-5, recomputed {res.discord:.8f} "
          f"(off {abs(res.discord - 0.1328):.2e})")
    check(failures, elapsed_ms < 10.0,
          f"runtime {elapsed_ms:.2f} ms exceeds 10 ms")
    assert not failures, \
        "pinned reference mismatches:\n" + "\n".join(failures)


def test_criterion_2_bell_diagonal_closed_form():
    rng = np.random.default_rng(2)
    t0 = perf_counter()
    worst = 0.0
    for p in random_bell_diagonal(rng, 10_000):
        gap = abs(discord(p).discord
                  - closed_form_bell_diagonal(p.c1, p.c2, p.c3))
        worst = max(worst, gap)
    elapsed = perf_counter() - t0
    failures = []
    check(failures, worst < 1e-10,
          f"worst |pipeline - closed form| = {worst:.3e} >= 1e-10")
    check(failures, elapsed < 5.0, f"runtime {elapsed:.1f} s exceeds 5 s")
    assert not failures, "\n".join(failures)


def test_criterion_3_region_certification():
    rng = np.random.default_rng(3)
    failures = []
    grid = np.linspace(0.0, 1.0, 101)
    t0 = perf_counter()
    for case in "abcd":
        worst_gap = 0.0
        worst_sign = 0.0
        non_finite = 0
        for p in random_case(rng, case, 10_000):
            _, f_closed = analytic_max(p, Region(case))
            worst_gap = max(worst_gap, abs(f_closed - global_max(p).f_max))
            if case in "abd":
                with np.errstate(all="ignore"):
                    d = f_derivative(p, grid)
                if not np.all(np.isfinite(d)):
                    non_finite += 1
                    continue
                signed = d if case in "ab" else -d
                worst_sign = min(worst_sign, float(np.min(signed)))
        check(failures, worst_gap < 1e-9,
              f"case {case}: worst |analytic_max - global_max| = "
              f"{worst_gap:.3e} >= 1e-9")
        if case in "abd":
            wanted = "F' >= -1e-10" if case in "ab" else "F' <= 1e-10"
            check(failures, worst_sign >= -1e-10,
                  f"case {case}: {wanted} violated by {-worst_sign:.3e} "
                  "on the 101-point grid")
            check(failures, non_finite == 0,
                  f"case {case}: derivative grid not finite on "
                  f"{non_finite} states")
    elapsed = perf_counter() - t0
    check(failures, elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 60 s")
    assert not failures, "\n".join(failures)


def test_criterion_4_reduction_certificate():
    rng = np.random.default_rng(4)
    failures = []
    t0 = perf_counter()
    step = (math.pi / 2.0) / 511.0
    worst_gap = 0.0
    worst_off_axis = 0.0
    for p in random_states(rng, 1000):
        res = discord(p)
        orc = oracle_classical_correlation(p, grid_n=512)
        gap = abs(orc.classical_correlation
                  - (res.mutual_information - res.discord))
        worst_gap = max(worst_gap, gap)
        worst_off_axis = max(worst_off_axis,
                             min(orc.phi, math.pi / 2.0 - orc.phi))
    elapsed = perf_counter() - t0
    check(failures, worst_gap < 1e-5,
          f"worst |oracle - (I - Q)| = {worst_gap:.3e} >= 1e-5")
    check(failures, worst_off_axis <= 2.0 * step,
          f"an oracle argmax sits {worst_off_axis:.3e} rad off the "
          f"nearest axis circle (allowed {2.0 * step:.3e})")
    check(failures, elapsed < 600.0,
          f"runtime {elapsed:.1f} s exceeds 600 s")
    assert not failures, "\n".join(failures)


def test_criterion_5_boundary_family_scan():
    failures = []
    zs = np.linspace(0.0, 1.0, 101)[1:]
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        r = 1.0 / 3.0 - 2.0 * a / 3.0
        p = BlochX(r, r, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
        with np.errstate(all="ignore"):
            d = f_derivative(p, zs)
        check(failures, bool(np.all(np.isfinite(d))),
              f"a = {a}: derivative grid is not finite")
        check(failures, float(np.max(d)) <= 1e-10,
              f"a = {a}: max F' on (0, 1] = {float(np.max(d)):.3e} > 1e-10")
        check(failures, f_derivative(p, 0.0) == 0.0,
              f"a = {a}: F'(0) = {f_derivative(p, 0.0)!r}, expected 0.0")
        res = discord(p)
        check(failures, res.z_star == 0.0,
              f"a = {a}: maximizer z* = {res.z_star}, expected 0")
    assert not failures, "\n".join(failures)


def test_criterion_6_purification_identity():
    rng = np.random.default_rng(6)
    failures = []
    worst_residual = 0.0
    worst_quadratic = 0.0
    for case, n in (("I", 334), ("II", 333), ("III", 333)):
        for p in random_rank_two(rng, case, n):
            rep = koashi_winter(bloch_to_matrix(p))
            worst_residual = max(worst_residual, rep.residual)
            if case == "III":
                r, s, c1, c2, c3 = p.as_tuple()
                quad = 0.5 * (1.0 + r * r - s * s - c3 * c3
                              - c1 * c1 + c2 * c2)
                worst_quadratic = max(
                    worst_quadratic, abs(rep.concurrence_bc ** 2 - quad))
    check(failures, worst_residual < 1e-8,
          f"worst |C_a + E_bc - S_b| = {worst_residual:.3e} >= 1e-8")
    check(failures, worst_quadratic < 1e-10,
          f"worst case-III |Con^2 - quadratic form| = "
          f"{worst_quadratic:.3e} >= 1e-10")
    assert not failures, "\n".join(failures)


def test_criterion_7_property_suite():
    rng = np.random.default_rng(7)
    failures = []
    t0 = perf_counter()

    min_q = math.inf
    all_finite = True
    for p in random_states(rng, 100_000):
        q = discord(p).discord
        all_finite = all_finite and math.isfinite(q)
        min_q = min(min_q, q)
    check(failures, all_finite, "a discord value came back non-finite")
    check(failures, min_q >= -1e-9,
          f"min discord = {min_q:.3e} < -1e-9")

    zs = np.linspace(0.1, 0.9, 9)
    h = 1e-6
    worst_fd = 0.0
    worst_even = 0.0
    for p in random_states(rng, 2000):
        with np.errstate(all="ignore"):
            fd = (f_value(p, zs + h) - f_value(p, zs - h)) / (2.0 * h)
            worst_fd = max(worst_fd,
                           float(np.max(np.abs(fd - f_derivative(p, zs)))))
        worst_even = max(worst_even, abs(f_derivative(p, 1e-7)))
    check(failures, worst_fd < 1e-5,
          f"worst |F' - finite difference| = {worst_fd:.3e} >= 1e-5")
    check(failures, worst_even < 1e-4,
          f"worst |F'(1e-7)| = {worst_even:.3e} >= 1e-4")

    worst_spec = 0.0
    for p in random_states(rng, 10_000):
        dense = np.sort(np.linalg.eigvalsh(bloch_to_matrix(p).matrix))[::-1]
        worst_spec = max(worst_spec,
                         float(np.max(np.abs(spectrum(p) - dense))))
    check(failures, worst_spec < 1e-10,
          f"worst |closed-form - dense eigenvalues| = {worst_spec:.3e} "
          ">= 1e-10")

    elapsed = perf_counter() - t0
    check(failures, elapsed < 120.0,
          f"runtime {elapsed:.1f} s exceeds 120 s")
    assert not failures, "\n".join(failures)
