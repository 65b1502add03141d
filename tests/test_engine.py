"""One-variable reduction F(z): values, derivatives, regions, search."""

import dataclasses
import inspect
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from conftest import (BOUNDARY_BLOCH, EX_MATRIX, FALSIFY_NEAR_ZERO,
                      REGION_EDGE_BLOCH, closed_form_bell_diagonal,
                      random_states_with_margin, reference_f)
from xdiscord import (BlochX, PhysicalityError, Region,
                      XDensityMatrix, analytic_max, classify_region, discord,
                      f_derivative, f_second_derivative, f_value, global_max,
                      matrix_to_bloch, newton_critical_point,
                      region_conditions)
from xdiscord import engine
from xdiscord.sampling import (random_bell_diagonal, random_case,
                               random_rank_two, random_states)

# regression values recomputed from scratch for the matrix in conftest
EX_Z_STAR = 0.8831286078456391
EX_F_MAX = 0.3051181676343307
EX_DISCORD = 0.13274145387467
EX_CLASSICAL = 0.033597366537359785
EX_MUTUAL = 0.16633882041202974
EX_ITERATES = (0.920067497178257, 0.8876026848186657, 0.883200690530244,
               0.8831286268119208, 0.8831286078456391)

WERNER_HALF_DISCORD = 0.26248318376373436

ROUTES = {"signs -,-", "signs +,+", "signs -,+", "signs +,-", "scan"}


def ex_state() -> BlochX:
    return matrix_to_bloch(XDensityMatrix(EX_MATRIX))


def test_f_scalar_and_array_agree(rng):
    # float and array calls share each formula but not the libm under it
    zs = np.linspace(0.0, 1.0, 23)
    states = random_states(rng, 50) + [
        p.swapped() for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 100)]
    for p in states:
        scalars = np.array([f_value(p, z) for z in zs])
        np.testing.assert_allclose(f_value(p, zs), scalars, atol=1e-14)
        with np.errstate(all="ignore"):
            d_arr = f_derivative(p, zs)
            d_sca = np.array([f_derivative(p, z) for z in zs])
            dd_arr = f_second_derivative(p, zs)
            dd_sca = np.array([f_second_derivative(p, z) for z in zs])
        np.testing.assert_allclose(d_arr, d_sca, atol=1e-14)
        np.testing.assert_array_equal(np.isnan(dd_arr), np.isnan(dd_sca))
        ok = ~np.isnan(dd_sca)
        assert np.all(np.abs(dd_arr[ok] - dd_sca[ok])
                      <= 1e-12 * np.maximum(1.0, np.abs(dd_sca[ok])))


# r = c3 or r = -c3, with c and s nonzero
SERIES_ARM_AT_ONE = [(0.3, 0.1, 0.2, 0.2, -0.3), (0.3, -0.2, 0.1, -0.2, 0.3),
                     (-0.4, 0.2, 0.2, 0.1, -0.4), (0.2, -0.1, 0.3, 0.2, -0.2)]


def test_f_and_derivatives_match_50_digit_reference(rng):
    mp = pytest.importorskip("mpmath").mp
    states = random_states(rng, 60) + [
        p.swapped() for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 10)]
    checks = ((f_value, 1e-13), (f_derivative, 1e-11),
              (f_second_derivative, 1e-8))
    # the endpoint values are the closed forms of regions a-d and of the
    # sign router, so they are checked on those regions as well
    ends = states + [p for case in "abcd" for p in random_case(rng, case, 15)]
    ends += random_bell_diagonal(rng, 15)
    with mp.workdps(50):
        for p in ends:
            for z in (0, 1):
                ref = reference_f(mp, p, mp.mpf(z))
                assert abs(f_value(p, float(z)) - ref) <= 1e-13 * max(
                    1, abs(ref)), (p.as_tuple(), z)
        for p in states:
            for z in (0.1, 0.35, 0.6, 0.85, 0.97):
                for order, (fn, bound) in enumerate(checks):
                    got = fn(p, z)
                    if np.isnan(got):
                        continue    # the engine flags a degenerate F''
                    ref = mp.diff(lambda t: reference_f(mp, p, t),
                                  mp.mpf(z), order)
                    assert abs(got - ref) <= bound * max(1, abs(ref)), \
                        (p.as_tuple(), z, order)
        # r = +-c3 makes one radical vanish at z = 1, where F' takes the
        # series arm of _branch; F is real only up to z = 1 there, so the
        # reference derivative is one-sided
        for t in SERIES_ARM_AT_ONE:
            p = BlochX(*t)
            ref = mp.diff(lambda x: reference_f(mp, p, x), mp.mpf(1), 1,
                          direction=-1)
            assert abs(f_derivative(p, 1.0) - ref) <= 1e-11 * max(
                1, abs(ref)), t


def test_derivative_matches_finite_differences(rng):
    h = 1e-6
    for p in random_states_with_margin(rng, 60, 0.05):
        for z in np.linspace(0.1, 0.9, 9):
            fd = (f_value(p, z + h) - f_value(p, z - h)) / (2.0 * h)
            assert f_derivative(p, z) == pytest.approx(fd, abs=1e-5)


def test_second_derivative_matches_finite_differences(rng):
    h = 1e-6
    for p in random_states_with_margin(rng, 30, 0.05):
        for z in np.linspace(0.15, 0.85, 5):
            fd = (f_derivative(p, z + h)
                  - f_derivative(p, z - h)) / (2.0 * h)
            fpp = f_second_derivative(p, z)
            assert fpp == pytest.approx(fd, abs=1e-4 * max(1.0, abs(fd)))


def test_derivative_is_zero_at_origin(rng):
    # F is even in z, so F'(0) vanishes identically, not just approximately
    for p in random_states(rng, 50):
        assert f_derivative(p, 0.0) == 0.0
        assert abs(f_derivative(p, 1e-7)) < 1e-4


def test_derivative_vanishes_at_one_on_product_states_with_unit_s():
    # |s| = 1 forces a product state, so F is flat; w+- vanishes at z = 1
    for t in ((0.3, 1.0, 0.0, 0.0, 0.3), (0.2, 1.0, 0.0, 0.0, 0.2),
              (-0.5, -1.0, 0.0, 0.0, 0.5)):
        p = BlochX(*t)
        assert abs(f_derivative(p, 1.0)) <= 1e-12, t
        with np.errstate(all="ignore"):
            d = f_derivative(p, np.array([0.5, 1.0]))
        assert np.all(np.abs(d) <= 1e-12), t


def test_float_derivative_is_finite_on_the_closed_interval(rng):
    # a bracketed Newton run can always bisect because F' on floats is
    # finite at every z in [0, 1]: the logs are floored at TINY and every
    # denominator is guarded, also where radicals or weights vanish
    edge = [BlochX(*t) for t in BOUNDARY_BLOCH] + [
        BlochX(0.3, 0.0, 0.0, 0.0, -0.6), BlochX(0.0, 0.0, 1.0, -1.0, 1.0),
        BlochX(0.0, 0.0, 0.0, 0.0, 0.0), BlochX(1.0, 1.0, 0.0, 0.0, 1.0),
        BlochX(0.0, 1.0, 0.0, 0.0, 0.0), BlochX(-0.5, -1.0, 0.0, 0.0, 0.5)]
    pool = edge + random_states(rng, 200) + [
        p.swapped() for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 30)]
    zs = [0.0, 1e-300, 1e-12, 0.25, 0.5, 0.75, 1.0 - 1e-16, 1.0]
    for p in pool:
        assert all(np.isfinite(f_derivative(p, z)) for z in zs), \
            p.as_tuple()


def test_derivative_finite_where_radical_vanishes():
    # H+ hits zero at z = 0.5 for this state; the derivative must take
    # its series limit there while the second derivative signals nan
    p = BlochX(0.3, 0.0, 0.0, 0.0, -0.6)
    assert np.isfinite(f_derivative(p, 0.5))
    assert np.isnan(f_second_derivative(p, 0.5))
    # at z = 1, w+ = H+ = 1.2 on the first state and w- = H- = 1.2 on its
    # sigma_x-on-b image; F'' divides by w^2 - H^2 there, so it signals nan
    for t in ((0.7, 0.2, 0.3, -0.3, 0.5), (0.7, -0.2, 0.3, 0.3, -0.5)):
        p = BlochX(*t)
        assert np.isfinite(f_derivative(p, 1.0)), t
        assert np.isnan(f_second_derivative(p, 1.0)), t


# F's domain is [0, 1]; each entry lies outside it, nan and inf included
OFF_DOMAIN = (math.nan, -0.5, 1.5, math.inf, -math.inf, -5e-324,
              float(np.nextafter(1.0, 2.0)))


@pytest.mark.parametrize("fn", [f_value, f_derivative, f_second_derivative])
def test_f_functions_reject_z_outside_the_domain(fn):
    p = BlochX(0.3, 0.1, 0.05, 0.0, 0.4)
    for z in OFF_DOMAIN:
        with pytest.raises(ValueError, match=re.escape(f"z = {z} is")):
            fn(p, z)
        with pytest.raises(ValueError, match=re.escape(f"z = {z} is")):
            fn(p, np.array([0.0, 0.5, z, 1.0]))
    with pytest.raises(ValueError, match="z = nan is"):
        fn(p, [[0.5, 1.0], [math.nan, 0.2]])
    # the closed interval itself, -0.0 included, is inside
    assert np.all(np.isfinite(fn(p, np.array([-0.0, 0.0, 0.5, 1.0]))))


def test_newton_rejects_a_seed_outside_the_domain():
    p = BlochX(0.1, 0.2, 0.3, 0.1, 0.2)
    for z in OFF_DOMAIN:
        with pytest.raises(ValueError, match=re.escape(f"z0 = {z} is")):
            newton_critical_point(p, z)


def test_classify_region_examples():
    assert classify_region(BlochX(0.4, 0.1, 0.1, -0.05, -0.2)) is Region.CASE_A
    assert classify_region(BlochX(0.4, -0.1, 0.1, -0.05, 0.2)) is Region.CASE_B
    assert classify_region(BlochX(0.0, 0.0, 0.5, 0.1, -0.2)) is Region.CASE_C
    assert classify_region(BlochX(0.4, -0.12, 0.3, 0.3, -0.3)) is Region.CASE_D
    assert classify_region(ex_state()) is Region.GENERAL


def test_classify_region_is_first_matching_condition(rng):
    # the member classify_region returns is Region(tag) for the first
    # hypothesis region_conditions finds true, so its short-circuit order
    # cannot drift; the region-edge states probe every inequality inside
    # and outside the CLASSIFY_TOL band
    edges = [BlochX(*t) for t in REGION_EDGE_BLOCH]
    states = (random_states(rng, 300) + random_bell_diagonal(rng, 50)
              + [BlochX(*t) for t in BOUNDARY_BLOCH]
              + edges + [p.swapped() for p in edges])
    for case in "abcd":
        states += random_case(rng, case, 50)
    seen = set()
    for p in states:
        conds = region_conditions(p)
        tag = next((t for t, holds in conds.items() if holds), "general")
        assert classify_region(p) is Region(tag), p.as_tuple()
        seen.add(tag)
    assert seen == {"a", "b", "c", "d", "general"}


def test_region_conditions_for_case_d_example():
    conds = region_conditions(BlochX(0.4, -0.12, 0.3, 0.3, -0.3))
    assert conds == {"a": False, "b": False, "c": False, "d": True}


def test_overlapping_hypotheses_share_one_value():
    # this state satisfies all four endpoint hypotheses at once; every
    # closed form must then give the same maximum
    p = BlochX(0.0, 0.0, 0.5, 0.1, -0.5)
    conds = region_conditions(p)
    assert all(conds.values())
    values = [analytic_max(p, region)[1]
              for region in (Region.CASE_A, Region.CASE_B,
                             Region.CASE_C, Region.CASE_D)]
    np.testing.assert_allclose(values, values[0], atol=1e-12)


def test_analytic_value_sits_on_curve():
    pa = BlochX(0.4, 0.1, 0.1, -0.05, -0.2)
    z, fmax = analytic_max(pa)
    assert z == 1.0
    assert fmax == pytest.approx(f_value(pa, 1.0), abs=1e-14)
    pd = BlochX(0.4, -0.12, 0.3, 0.3, -0.3)
    z, fmax = analytic_max(pd)
    assert z == 0.0
    assert fmax == pytest.approx(f_value(pd, 0.0), abs=1e-14)


def test_analytic_matches_global_search_per_case(rng):
    for case in "abcd":
        for p in random_case(rng, case, 120):
            _, f_closed = analytic_max(p, Region(case))
            found = global_max(p)
            assert f_closed == pytest.approx(found.f_max, abs=1e-9), \
                f"case {case}: {p.as_tuple()}"


def test_analytic_max_raises_outside_regions():
    with pytest.raises(ValueError):
        analytic_max(ex_state())
    with pytest.raises(ValueError):
        discord(ex_state(), method="analytic")


def test_newton_trace_on_worked_example():
    p = ex_state()
    run = newton_critical_point(p, 1.0)
    assert run.seed == 1.0
    assert run.converged
    assert len(run.iterates) == len(EX_ITERATES)
    np.testing.assert_allclose(run.iterates, EX_ITERATES, atol=1e-9)
    # F'(0) is exactly 0, so a run seeded there stops without a step
    at_zero = newton_critical_point(p, 0.0)
    assert at_zero.converged and at_zero.iterates == () and at_zero.z == 0.0


def test_newton_reports_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(engine, "NEWTON_MAX_ITER", 2)
    run = newton_critical_point(ex_state(), 1.0)
    np.testing.assert_allclose(run.iterates, EX_ITERATES[:2], atol=1e-9)
    assert not run.converged and run.note == "iteration cap reached"


def test_interior_maximum_with_no_rising_f_prime_takes_the_scan(monkeypatch):
    # F''(0) > 0 and F'(1) < 0, but F' < 0 everywhere inside: the halving
    # finds no F'(lo) > 0, so the router hands the state to the scan
    fp = engine._fp

    def falling(p, z, rads, xp):
        g = fp(p, z, rads, xp)
        return -abs(g) if xp is engine._FLOAT and 0.0 < z < 1.0 else g
    monkeypatch.setattr(engine, "_fp", falling)
    assert discord(ex_state()).search.route == "scan"


def bracketed_newton(p, z0, lo, hi):
    # the run the router and the scan make from z0 inside [lo, hi]
    slope = engine._slope
    return engine._newton(p, z0, *slope(p, z0), lo, hi, slope(p, lo)[0],
                          slope(p, hi)[0])[0]


def test_bracket_turns_rejected_steps_into_bisection():
    # F'' > 0 at z = 0.05 sends the Newton step below 0: alone the run is
    # abandoned, inside a sign-change bracket the step bisects instead
    p = ex_state()
    alone = newton_critical_point(p, 0.05)
    assert not alone.converged and alone.iterates == ()
    run = bracketed_newton(p, 0.05, 0.05, 1.0)
    assert run.converged and run.note == "bisection fallback used"
    assert run.iterates[0] == 0.525
    assert run.z == pytest.approx(EX_Z_STAR, abs=1e-9)


def test_bisection_onto_the_seed_does_not_end_the_run():
    # F'(0.75) is small but not zero; the rejected step bisects (0.5, 1)
    # onto z = 0.75 itself, which is no step toward the root
    p = ex_state()
    assert abs(f_derivative(p, 0.75)) > 1e-5
    run = bracketed_newton(p, 0.75, 0.5, 1.0)
    assert run.iterates[0] == 0.75 and len(run.iterates) > 1
    assert run.converged and run.note == "bisection fallback used"
    assert run.z == pytest.approx(EX_Z_STAR, abs=1e-9)


def test_bisection_alone_converges_on_the_bracket_width(monkeypatch):
    # with F'' nan every Newton step is rejected and bisects; on the
    # straight F' = 10 (0.3 - z), |F'| stays above 1e-13 until the
    # bracket is far below 1e-12, so the run stops on the bracket's width
    monkeypatch.setattr(engine, "_fpp", lambda p, z, rads, xp: math.nan)
    monkeypatch.setattr(engine, "_fp", lambda p, z, rads, xp: 10 * (0.3 - z))
    run = bracketed_newton(ex_state(), 1.0, 0.0, 1.0)
    assert run.converged and run.note == "bisection fallback used"
    assert len(run.iterates) == 40          # 2**-40 < 1e-12 < 2**-39
    assert run.z == pytest.approx(0.3, abs=1e-12)


def test_pick_reports_a_bisected_run_as_fallback():
    # the bracketed run above bisects; a record holding it says so
    p = ex_state()
    bisected = bracketed_newton(p, 0.05, 0.05, 1.0)
    plain = newton_critical_point(p, 1.0)
    assert "bisection" not in plain.note
    cands = [(0.0, f_value(p, 0.0)), (1.0, f_value(p, 1.0)),
             (bisected.z, f_value(p, bisected.z))]
    res = engine._pick(cands, [plain, bisected], "signs +,-")
    assert res.fallback == "bisection"
    assert res.z_star == bisected.z
    assert engine._pick(cands, [plain], "signs +,-").fallback is None


def test_worked_example_discord():
    res = discord(ex_state())
    assert res.region == "general"
    assert res.method == "numeric"
    assert res.z_star == pytest.approx(EX_Z_STAR, abs=1e-9)
    assert res.f_max == pytest.approx(EX_F_MAX, abs=1e-12)
    assert res.discord == pytest.approx(EX_DISCORD, abs=1e-12)
    assert res.classical_correlation == pytest.approx(EX_CLASSICAL, abs=1e-12)
    assert res.mutual_information == pytest.approx(EX_MUTUAL, abs=1e-12)
    # the interior maximum takes one bracketed Newton run from z = 1, with
    # the iterates of the unbracketed run; no scan cell seeds a second run
    assert res.search.route == "signs +,-"
    (run,) = res.search.newton_runs
    assert run.seed == 1.0
    assert run.converged
    assert len(run.iterates) == len(EX_ITERATES)
    np.testing.assert_allclose(run.iterates, EX_ITERATES, atol=1e-9)


def test_discord_plus_classical_equals_mutual(rng):
    for p in random_states(rng, 200):
        res = discord(p)
        assert res.discord + res.classical_correlation == pytest.approx(
            res.mutual_information, abs=1e-12)


def test_discord_nonnegative(rng):
    for p in random_states(rng, 500):
        assert discord(p).discord >= -1e-9


def test_bell_diagonal_closed_form(rng):
    for p in random_bell_diagonal(rng, 300):
        expect = closed_form_bell_diagonal(p.c1, p.c2, p.c3)
        assert discord(p).discord == pytest.approx(expect, abs=1e-10)


def test_werner_family():
    for a in np.linspace(0.0, 1.0, 11):
        p = BlochX(0.0, 0.0, -a, -a, -a)
        res = discord(p)
        assert res.discord == pytest.approx(
            closed_form_bell_diagonal(-a, -a, -a), abs=1e-10)
    assert discord(BlochX(0.0, 0.0, -0.5, -0.5, -0.5)).discord == \
        pytest.approx(WERNER_HALF_DISCORD, abs=1e-12)


def test_bell_state_discord_one():
    res = discord(BlochX(0.0, 0.0, 1.0, -1.0, 1.0))
    assert res.discord == pytest.approx(1.0, abs=1e-12)
    assert res.classical_correlation == pytest.approx(1.0, abs=1e-12)
    assert res.z_star == 1.0


def test_uncorrelated_states_have_zero_discord(rng):
    res = discord(BlochX(0.0, 0.0, 0.0, 0.0, 0.0))
    assert res.discord == 0.0
    assert res.z_star == 0.0
    for _ in range(20):
        r, s = rng.uniform(-0.9, 0.9, size=2)
        res = discord(BlochX(r, s, 0.0, 0.0, r * s))
        assert res.discord == pytest.approx(0.0, abs=1e-9)
        # F is flat at a positive level, so the search reports a tie and
        # resolves it to the endpoint the closed forms prefer
        assert res.search.tie
        assert res.z_star == 1.0


def test_flat_objective_reports_tie():
    # c3 = c1 with r = s = 0 makes F constant on [0, 1]
    p = BlochX(0.0, 0.0, 0.3, 0.1, 0.3)
    ana = discord(p)
    num = discord(p, method="numeric")
    assert num.search.tie
    assert ana.discord == pytest.approx(num.discord, abs=1e-12)
    assert ana.z_star == num.z_star == 1.0


def test_verify_records_route_gap(rng):
    for case in "abcd":
        for p in random_case(rng, case, 10):
            res = discord(p, verify=True)
            if res.region != "general":
                assert res.verify_gap is not None
                assert res.verify_gap < 1e-9
                # a numeric search forced inside a region is checked
                # against that region's closed form
                num = discord(p, method="numeric", verify=True)
                closed = analytic_max(p, Region(res.region))[1]
                assert num.verify_gap == abs(closed - num.f_max)
                assert num.verify_gap < 1e-9


def test_numeric_matches_analytic_on_closed_form_regions(rng):
    for case in "abcd":
        for p in random_case(rng, case, 25):
            ana = discord(p)
            num = discord(p, method="numeric")
            assert num.discord == pytest.approx(ana.discord, abs=1e-9)


def test_boundary_family_maximum_at_origin():
    # rank-deficient family with F decreasing on all of (0, 1]
    expected = {0.0: 0.5500477595827575, 0.25: 0.4167932280112134,
                0.5: 0.3983932542605314, 0.75: 0.4167932280112134,
                1.0: 0.5500477595827575}
    for a, q in expected.items():
        r = 1.0 / 3.0 - 2.0 * a / 3.0
        p = BlochX(r, r, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
        res = discord(p)
        assert res.z_star == 0.0
        assert res.discord == pytest.approx(q, abs=1e-12)
        with np.errstate(all="ignore"):
            d = f_derivative(p, np.linspace(0.0, 1.0, 101)[1:])
        assert np.all(d <= 1e-10)


@pytest.mark.parametrize("move", [
    lambda r, s, c1, c2, c3: (r, s, -c1, -c2, c3),
    lambda r, s, c1, c2, c3: (-r, -s, c1, c2, c3),
    lambda r, s, c1, c2, c3: (r, s, c2, c1, c3),
    lambda r, s, c1, c2, c3: (-r, s, c1, -c2, -c3),
], ids=["flip-c1-c2", "flip-r-s", "swap-c1-c2", "sigma-x-on-a"])
def test_local_unitary_symmetries(rng, move):
    # each move is a local unitary on the state, so the discord is unchanged;
    # together the moves generate all 16 maps.  edge adds a vanishing
    # radical, a Bell state, a flat F, the zero state, a rank-deficient
    # state with its maximum at z = 0 and the states on each region
    # inequality.  Every region is closed under the moves up to a <-> b
    # (flip-r-s maps a to b and d to d), so the image keeps its label, and
    # each closed form is checked against the route of its image
    edge = [BlochX(*t) for t in BOUNDARY_BLOCH + REGION_EDGE_BLOCH] + [
        BlochX(0.3, 0.0, 0.0, 0.0, -0.6), BlochX(0.0, 0.0, 1.0, -1.0, 1.0),
        BlochX(0.0, 0.0, 0.3, 0.1, 0.3), BlochX(0.0, 0.0, 0.0, 0.0, 0.0),
        BlochX(1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)]
    states = random_states(rng, 300) + edge + [
        p.swapped() for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 30)]
    states += [p for case in "abcd" for p in random_case(rng, case, 30)]
    states += random_bell_diagonal(rng, 30)
    up_to_a_b = {"b": "a"}
    for p in states:
        res = discord(p)
        moved = discord(BlochX(*move(*p.as_tuple())))
        assert (up_to_a_b.get(moved.region, moved.region)
                == up_to_a_b.get(res.region, res.region)), p.as_tuple()
        assert moved.discord == pytest.approx(res.discord, abs=1e-12)
        assert moved.classical_correlation == pytest.approx(
            res.classical_correlation, abs=1e-12)


def test_invalid_method_rejected():
    with pytest.raises(ValueError):
        discord(ex_state(), method="fancy")


def test_router_matches_scan():
    # the sign router against the exhaustive scan on every family the
    # conjecture behind it was checked on; each route must occur
    rng = np.random.default_rng(91)
    states = random_states(rng, 5000) + [
        p.swapped() for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 100)]
    states += [p for case in "abcd" for p in random_case(rng, case, 50)]
    states += [BlochX(*t) for t in BOUNDARY_BLOCH + FALSIFY_NEAR_ZERO]
    states.append(ex_state())
    routes = set()
    for p in states:
        got = discord(p, method="numeric").search
        want = global_max(p)
        routes.add(got.route)
        assert abs(got.f_max - want.f_max) <= 1e-12, p.as_tuple()
        assert abs(got.z_star - want.z_star) <= 1e-9, p.as_tuple()
    assert routes == ROUTES


def test_route_counts(rng):
    counts = {}
    for p in random_states(rng, 2000):
        res = discord(p)
        route = res.search.route if res.search else "analytic"
        counts[route] = counts.get(route, 0) + 1
        if route == "signs +,-":
            (run,) = res.search.newton_runs
            assert run.seed == 1.0 and run.converged
        elif route.startswith("signs"):
            run = res.search.newton_runs[0]
            assert (run.seed, run.iterates, run.converged, run.z) == \
                (1.0, (), False, 1.0)
            assert route in run.note
    assert counts == {"analytic": 115, "signs -,-": 1461, "signs +,+": 419,
                      "signs -,+": 3, "signs +,-": 2}
    # F is flat on product states and on (0, 0, 0.3, 0.1, 0.3), so both
    # signs are rounding noise; F''(0) is nan on the zero state
    boundary = [discord(BlochX(*t), method="numeric").search.route
                for t in BOUNDARY_BLOCH]
    assert boundary == ["scan", "scan", "signs +,+", "signs +,+",
                        "signs -,-", "scan"]
    for t in ((0.3, -0.4, 0.0, 0.0, -0.12), (0.0, 0.0, 0.3, 0.1, 0.3),
              (0.0, 0.0, 0.0, 0.0, 0.0)):
        assert discord(BlochX(*t), method="numeric").search.route == "scan"


class _Forbidden:
    # stands in for a module or function that a call must not use
    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        raise AssertionError(f"{self._name}.{attr} used")

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self._name} called")


def test_default_path_runs_no_scan_and_no_numpy(rng, monkeypatch):
    # an interior maximum takes one bracketed Newton run instead of the
    # scan, and no route of a default call goes through numpy or through
    # the domain check of the public F functions
    ex = ex_state()
    pool = [ex] + random_states(rng, 300)
    monkeypatch.setattr(engine, "global_max",
                        lambda p: pytest.fail("scan"))
    monkeypatch.setattr("xdiscord.engine.np", _Forbidden("numpy"))
    monkeypatch.setattr("xdiscord.states.np", _Forbidden("numpy"))
    monkeypatch.setattr(engine, "_unpack", _Forbidden("_unpack"))
    routes = set()
    for p in pool:
        res = discord(p)
        routes.add(res.search.route if res.search else "analytic")
    assert routes >= {"analytic", "signs -,-", "signs +,+", "signs +,-"}


@pytest.fixture(scope="module")
def interior_maxima():
    # (+, -) states near the worked example and from uniform draws
    rng = np.random.default_rng(47)
    ex = np.array(ex_state().as_tuple())
    pool = []
    for v in ex + rng.uniform(-0.02, 0.02, (6500, 5)):
        try:
            pool.append(BlochX(*v))
        except PhysicalityError:
            pass
    pool += random_states(rng, 20000)
    picked = []
    for p in pool:
        if (classify_region(p) is Region.GENERAL
                and f_second_derivative(p, 0.0) > engine.SIGN_BAND
                and f_derivative(p, 1.0) < -engine.SIGN_BAND):
            picked.append(p)
    assert len(picked) >= 90, len(picked)
    return picked


def test_interior_maxima_match_50_digit_root(interior_maxima):
    # z* of the router and of the scan against a 50-digit root of F'
    # found by bracketing, and max F against F at that root
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        for p in interior_maxima:
            def fp(z):
                return mp.diff(lambda t: reference_f(mp, p, t), z)
            lo = mp.mpf(0.5)
            while fp(lo) <= 0:
                lo /= 2
            root = mp.findroot(fp, (lo, mp.mpf(1)), solver="anderson")
            f_root = reference_f(mp, p, root)
            res = discord(p).search
            ref = global_max(p)
            assert res.route == "signs +,-"
            for got in (res, ref):
                assert abs(got.z_star - root) <= 1e-10, p.as_tuple()
                assert abs(got.f_max - f_root) <= 1e-12, p.as_tuple()
                for run in got.newton_runs:
                    assert run.converged and len(run.iterates) <= 20, \
                        p.as_tuple()


def test_router_newton_run_is_the_run_from_scratch(interior_maxima):
    # the router hands its own F'(1) and F'(lo) to the loop; the run must
    # be the one the loop makes from scratch on the same bracket
    for p in interior_maxima:
        lo = 0.5
        while not f_derivative(p, lo) > 0.0:
            lo *= 0.5
        (run,) = discord(p).search.newton_runs
        assert run == bracketed_newton(p, 1.0, lo, 1.0), p.as_tuple()


def _count_kernel_calls(monkeypatch):
    # calls per kernel, and the z of every radicals evaluation
    calls, points = Counter(), []
    for name in ("_f", "_fp", "_fpp", "_radicals"):
        def call(*args, _name=name, _kernel=getattr(engine, name)):
            calls[_name] += 1
            if _name == "_radicals":
                points.append(args[1])
            return _kernel(*args)
        monkeypatch.setattr(engine, name, call)
    return calls, points


def test_routed_path_evaluates_each_kernel_value_once(monkeypatch):
    calls, points = _count_kernel_calls(monkeypatch)
    assert discord(ex_state()).search.route == "signs +,-"
    assert calls["_fp"] <= 7 and calls["_fpp"] <= 6 and calls["_f"] == 3
    assert len(points) == len(set(points)), points
    calls.clear()
    points.clear()
    assert discord(BlochX(0.1, 0.3, -0.35, 0.35, 0.2)).search.route == \
        "signs -,-"
    assert calls == {"_f": 2, "_fp": 1, "_fpp": 1, "_radicals": 2}
    assert points == [0.0, 1.0]


def test_verify_checks_router_against_scan(rng, monkeypatch):
    states = random_states(rng, 300) + [
        p.swapped() for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 30)]
    # the scan and the closed form that check a route skip the domain
    # check of the public F functions
    monkeypatch.setattr(engine, "_unpack", _Forbidden("_unpack"))
    checked = 0
    for p in states:
        res = discord(p, verify=True)
        if res.region == "general":
            checked += 1
            assert res.verify_gap < 1e-12, p.as_tuple()
    assert checked > 300


# one record of each kind, built by the library; each call builds a new one
RECORDS = {
    "discord-analytic": lambda: discord(BlochX(0.4, 0.1, 0.1, -0.05, -0.2)),
    "discord-numeric": lambda: discord(ex_state()),
    "discord-verify": lambda: discord(ex_state(), verify=True),
    "max-result": lambda: global_max(ex_state()),
    "newton-run": lambda: discord(ex_state()).search.newton_runs[0],
    "newton-run-not-run": lambda: discord(
        BlochX(0.1, 0.3, -0.35, 0.35, 0.2)).search.newton_runs[0],
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_contract(make):
    rec = make()
    cls = type(rec)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    values = [getattr(rec, n) for n in names]
    assert list(vars(rec)) == names

    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, names[-1], values[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rec, names[0])

    twin = make()
    assert twin == rec and hash(twin) == hash(rec)
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert cls(*values) == cls(**dict(zip(names, values))) == rec

    # every argument lands in its own field, positionally or by keyword
    marks = [f"<{n}>" for n in names]
    assert vars(cls(*marks)) == dict(zip(names, marks))
    assert vars(cls(**dict(zip(names, marks)))) == dict(zip(names, marks))
    # the same parameters and defaults as the fields
    params = list(inspect.signature(cls).parameters.values())
    assert [q.name for q in params] == names
    assert [q.default for q in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING
        else f.default for f in fields]
    required = [m for m, f in zip(marks, fields)
                if f.default is dataclasses.MISSING]
    assert vars(cls(*required)) == {
        n: m if f.default is dataclasses.MISSING else f.default
        for n, m, f in zip(names, marks, fields)}

    moved = dataclasses.replace(rec, **{names[0]: "<new>"})
    assert vars(moved) == dict(zip(names, ["<new>"] + values[1:]))
    assert dataclasses.replace(rec) == rec
    flat = dataclasses.asdict(rec)
    assert list(flat) == names
    assert flat == dataclasses.asdict(cls(*values))

    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)) + ")"


def test_routes_leave_optional_fields_at_their_defaults():
    analytic = discord(BlochX(0.4, 0.1, 0.1, -0.05, -0.2))
    assert analytic.search is None and analytic.verify_gap is None
    assert discord(ex_state()).verify_gap is None
    assert discord(ex_state(), verify=True).verify_gap is not None
    assert discord(ex_state()).search.newton_runs[0].note == ""
