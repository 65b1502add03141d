"""Brute-force measurement sweep against dense-matrix reference results."""

import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (BOUNDARY_BLOCH, EX_MATRIX, dense_entropy,
                      measured_ensemble, same_bits)
from xdiscord import (BlochX, XDensityMatrix, binary_entropy,
                      bloch_to_matrix, discord, f_value, koashi_winter,
                      matrix_to_bloch, oracle_classical_correlation, xlog2)
from xdiscord import oracle
from xdiscord.oracle import (HALF_PI, PROB_FLOOR, ZOOM_POINTS, _entropy,
                             _outcomes, _phi_weight, _rows, _sweep)
from xdiscord.sampling import random_rank_two, random_states
from xdiscord.states import physicality_margins

ORACLE_SRC = (Path(__file__).resolve().parents[1]
              / "src" / "xdiscord" / "oracle.py")



def random_directions(rng, n):
    z = rng.normal(size=(n, 3))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def theta(p, direction):
    z1, z2, z3 = direction
    return (p.c1 * z1) ** 2 + (p.c2 * z2) ** 2 + (p.c3 * z3) ** 2


def objective(p, z3, th):
    # 1 - measured conditional entropy at (z3, theta)
    return 1.0 - float(_entropy(_rows(p, z3), th))


def best_theta(p, z3):
    # best theta over the circle of directions at fixed z3
    return max(p.c1 ** 2, p.c2 ** 2) * (1.0 - z3 * z3) + (p.c3 * z3) ** 2


def test_oracle_imports_nothing_from_engine():
    # the oracle certifies the reduction, so it must not share its code
    modules = []
    for node in ast.walk(ast.parse(ORACLE_SRC.read_text())):
        if isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
    assert modules
    assert not [m for m in modules if "engine" in m.split(".")]


def test_oracle_direction_is_unit_vector_at_z3_phi(rng):
    for p in random_states(rng, 5):
        orc = oracle_classical_correlation(p, grid_n=32)
        z1, z2, z3 = orc.direction
        assert z3 == orc.z3
        assert math.hypot(z1, z2) == pytest.approx(
            math.sqrt(1.0 - orc.z3 ** 2), abs=1e-12)
        if orc.z3 < 1.0:
            assert math.atan2(z2, z1) == pytest.approx(orc.phi, abs=1e-12)


def test_conditional_ensemble_against_projectors(rng):
    points = random_directions(rng, 60)
    for p, point in zip(random_states(rng, 60), points):
        outcomes = list(zip(*_outcomes(_rows(p, point[2]), theta(p, point))))
        dense = measured_ensemble(bloch_to_matrix(p).matrix, tuple(point))
        assert sum(pk for pk, _ in outcomes) == pytest.approx(1.0, abs=1e-12)
        assert outcomes[0][0] == pytest.approx(
            (1.0 + p.s * point[2]) / 2.0, abs=1e-12)
        for (pk, lam), (dense_pk, state) in zip(outcomes, dense):
            assert pk == pytest.approx(dense_pk, abs=1e-12)
            np.testing.assert_allclose(
                (lam, 1.0 - lam), np.linalg.eigvalsh(state)[::-1],
                atol=1e-10)
        expect = sum(pk * dense_entropy(state) for pk, state in dense)
        assert float(_entropy(_rows(p, point[2]), theta(p, point))) == (
            pytest.approx(expect, abs=1e-10))


def test_conditional_entropy_of_pure_state_vanishes(rng):
    bell = BlochX(0.0, 0.0, 1.0, -1.0, 1.0)
    for point in random_directions(rng, 25):
        assert float(_entropy(_rows(bell, point[2]),
                              theta(bell, point))) == (
            pytest.approx(0.0, abs=1e-12))


def test_theta_circle_max_closed_form(rng):
    # over the circle at fixed z3 the best theta is c^2 (1 - z3^2) + c3^2 z3^2
    phis = np.linspace(0.0, math.pi / 2.0, 1025)
    for p in random_states(rng, 60):
        for z3 in np.linspace(0.0, 1.0, 7):
            rho = math.sqrt(1.0 - z3 * z3)
            thetas = ((p.c1 * rho * np.cos(phis)) ** 2
                      + (p.c2 * rho * np.sin(phis)) ** 2 + (p.c3 * z3) ** 2)
            assert best_theta(p, z3) == pytest.approx(
                float(np.max(thetas)), abs=1e-12)


def test_objective_monotone_in_theta(rng):
    for p in random_states(rng, 40):
        z3 = rng.uniform(0.0, 1.0)
        hi = best_theta(p, z3)
        thetas = np.linspace(0.0, hi, 9)
        vals = [objective(p, z3, th) for th in thetas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_reduction_identity(rng):
    # the engine's F(z) is the circle maximum of the measured correlation
    for p in random_states(rng, 40):
        for z3 in np.linspace(0.0, 1.0, 9):
            best = objective(p, z3, best_theta(p, z3))
            assert f_value(p, z3) == pytest.approx(best, abs=1e-10)


@pytest.mark.parametrize("draw", [
    lambda rng: random_states(rng, 25),
    lambda rng: [p.swapped() for case in ("I", "II", "III")
                 for p in random_rank_two(rng, case, 4)],
    lambda rng: [BlochX(*t) for t in BOUNDARY_BLOCH],
], ids=["uniform", "rank2-swapped", "boundary"])
def test_oracle_agrees_with_engine(rng, draw):
    for p in draw(rng):
        res = discord(p)
        orc = oracle_classical_correlation(p, grid_n=256)
        assert orc.classical_correlation == pytest.approx(
            res.classical_correlation, abs=1e-5)
        assert orc.classical_correlation == pytest.approx(
            res.mutual_information - res.discord, abs=1e-5)


def test_oracle_argmin_on_axis_circle(rng):
    # the measured entropy minimum always lies on a circle with z1 = 0
    # or z2 = 0; two coarse grid steps of slack cover the refinement
    for p in random_states(rng, 25):
        orc = oracle_classical_correlation(p, grid_n=256)
        step = (math.pi / 2.0) / (orc.grid_n - 1)
        assert min(orc.phi, math.pi / 2.0 - orc.phi) <= 2.0 * step


def test_oracle_worked_example():
    p = matrix_to_bloch(XDensityMatrix(EX_MATRIX))
    orc = oracle_classical_correlation(p, grid_n=512)
    res = discord(p)
    assert orc.classical_correlation == pytest.approx(
        res.classical_correlation, abs=1e-6)
    assert orc.entropy_min == pytest.approx(0.6948818323656692, abs=1e-9)
    assert orc.z3 == pytest.approx(res.z_star, abs=2.0 / 511.0)
    assert orc.phi == pytest.approx(0.0, abs=(math.pi / 2.0) / 511.0)
    assert orc.grid_index == (451, 0)


def test_oracle_is_deterministic():
    p = BlochX(0.31, -0.22, 0.47, -0.18, 0.29)
    first = oracle_classical_correlation(p, grid_n=128)
    second = oracle_classical_correlation(p, grid_n=128)
    assert first == second


def test_oracle_rejects_empty_grid():
    with pytest.raises(ValueError, match="grid_n"):
        oracle_classical_correlation(BlochX(0.1, 0.1, 0.2, 0.1, 0.1),
                                     grid_n=0)


def test_oracle_rejects_negative_refine_rounds():
    p = BlochX(0.31, -0.22, 0.47, -0.18, 0.29)
    with pytest.raises(ValueError, match="refine_rounds"):
        oracle_classical_correlation(p, grid_n=17, refine_rounds=-1)
    coarse = oracle_classical_correlation(p, grid_n=17, refine_rounds=0)
    z3s = np.linspace(0.0, 1.0, 17)
    assert coarse.z3 == z3s[coarse.grid_index[0]]
    assert oracle_classical_correlation(
        p, grid_n=17, refine_rounds=np.int64(3)) == (
        oracle_classical_correlation(p, grid_n=17, refine_rounds=3))


def test_oracle_records_grid_n_as_a_python_int():
    # the record holds operator.index(grid_n), so it prints as JSON
    p = BlochX(0.31, -0.22, 0.47, -0.18, 0.29)
    for given, want in ((np.int64(17), 17), (True, 1)):
        orc = oracle_classical_correlation(p, grid_n=given, refine_rounds=0)
        assert type(orc.grid_n) is int and orc.grid_n == want
        assert json.loads(json.dumps(dataclasses.asdict(orc)))[
            "grid_n"] == want


def test_oracle_refinement_improves_on_coarse_grid():
    p = matrix_to_bloch(XDensityMatrix(EX_MATRIX))
    coarse = oracle_classical_correlation(p, grid_n=64, refine_rounds=0)
    refined = oracle_classical_correlation(p, grid_n=64)
    assert refined.entropy_min <= coarse.entropy_min + 1e-15
    res = discord(p)
    assert refined.classical_correlation == pytest.approx(
        res.classical_correlation, abs=1e-6)


def textbook_outcomes(p, z3, theta):
    # the conditional ensemble with a full-grid mask per outcome
    out = []
    for sign in (1.0, -1.0):
        w = 1.0 + sign * p.s * z3
        h = np.sqrt(np.maximum(p.r * p.r + sign * 2.0 * p.r * p.c3 * z3
                               + theta, 0.0))
        live = w > PROB_FLOOR
        a = np.where(live, np.minimum(h / np.where(live, w, 1.0), 1.0), 0.0)
        out.append((np.where(live, 0.5 * w, 0.0), 0.5 * (1.0 + a)))
    return out


def textbook_binary_entropy(x):
    # -(x log2 x + (1 - x) log2 (1 - x)) of each entry, 0 log 0 = 0
    return -(xlog2(x) + xlog2(1.0 - x)) + 0.0


def textbook_entropy(p, z3, theta):
    (p_hi, lam_hi), (p_lo, lam_lo) = textbook_outcomes(p, z3, theta)
    return (p_hi * textbook_binary_entropy(lam_hi)
            + p_lo * textbook_binary_entropy(lam_lo))


def textbook_theta(p, z3, phis):
    c1sq = p.c1 * p.c1
    return ((1.0 - z3 * z3) * (c1sq + (p.c2 * p.c2 - c1sq)
                               * np.sin(phis[None, :]) ** 2)
            + (p.c3 * z3) ** 2)


def kernel_states(rng):
    # random, swapped rank-2, boundary, a pure Bell state, the maximally
    # mixed state (every cell ties), one just outside the region, and two
    # with |s| just above 1, inside PHYS_TOL, whose dead weight at z3 = 1
    # is negative (w ~ -5e-11)
    return (random_states(rng, 10)
            + [p.swapped() for case in ("I", "II", "III")
               for p in random_rank_two(rng, case, 3)]
            + [BlochX(*t) for t in BOUNDARY_BLOCH]
            + [BlochX(0.0, 0.0, 1.0, -1.0, 1.0),
               BlochX(0.0, 0.0, 0.0, 0.0, 0.0),
               BlochX(0.0, 1.0, 0.0, 0.0, 5e-11),
               BlochX(0.3, 1 + 5e-11, 0.0, 0.0, 0.3),
               BlochX(-0.2, -1 - 5e-11, 1e-11, 0.0, 0.2)])


@pytest.mark.parametrize("n", [64, 256])
def test_fused_kernel_matches_textbook_formula(rng, n):
    # the in-place kernel and the blocked sweep reproduce the masked
    # formula bit for bit.  |s| = 1 states leave a dead weight at z3 = 1;
    # in the last state, half of PHYS_TOL outside the region, H_- = c3
    # stays nonzero there.  The Bell state has lambda = 1 exactly.
    z3s = np.linspace(0.0, 1.0, n)
    phis = np.linspace(0.0, math.pi / 2.0, n)
    z3 = z3s[:, None]
    for p in kernel_states(rng):
        th = textbook_theta(p, z3, phis)
        for got, want in zip(zip(*_outcomes(_rows(p, z3), th)),
                             textbook_outcomes(p, z3, th)):
            assert same_bits(got[0], want[0]), p
            assert same_bits(got[1], want[1]), p
        ce = textbook_entropy(p, z3, th)
        assert same_bits(_entropy(_rows(p, z3), th), ce), p
        i, j = np.unravel_index(int(np.argmin(ce)), ce.shape)
        assert _sweep(p, z3s, np.sin(phis) ** 2) == (float(ce[i, j]), i, j), p


def flat_states():
    # c1^2 = c2^2 in floats: the state is symmetric about z, and theta
    # does not depend on phi
    return [BlochX(0.2, -0.1, 0.3, 0.3, 0.1),
            BlochX(0.1, 0.2, 0.4, -0.4, 0.2),
            BlochX(0.3, 0.1, 0.0, 0.0, 0.2),
            BlochX(0.0, 0.0, -0.6, -0.6, -0.6),          # Werner
            matrix_to_bloch(XDensityMatrix(EX_MATRIX)),  # rho_14 = 0
            random_rank_two(np.random.default_rng(5), "I", 1)[0].swapped()]


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("block", ["one_row", "uneven", "default"])
def test_sweep_blocks_keep_full_grid_argmin(rng, monkeypatch, n, block):
    # a later block replaces the best cell only when strictly smaller, so
    # any block size returns the full grid's first row-major argmin.  A
    # grid of more than one block is screened first: every case here but
    # the default block at n = 64 takes the screen
    if block != "default":
        rows = 1 if block == "one_row" else 5       # 5 divides neither n
        monkeypatch.setattr(oracle, "SWEEP_BLOCK", rows * n + 3)
    screened = []
    screen = oracle._screen

    def spy(*args):
        screened.append(True)
        return screen(*args)
    monkeypatch.setattr(oracle, "_screen", spy)
    z3s = np.linspace(0.0, 1.0, n)
    phis = np.linspace(0.0, math.pi / 2.0, n)
    for p in kernel_states(rng) + flat_states():
        ce = textbook_entropy(p, z3s[:, None],
                              textbook_theta(p, z3s[:, None], phis))
        i, j = np.unravel_index(int(np.argmin(ce)), ce.shape)
        assert _sweep(p, z3s, np.sin(phis) ** 2) == (float(ce[i, j]), i, j), p
    assert bool(screened) == (n * n > oracle.SWEEP_BLOCK)


def near_product_states():
    # product states (c3 = r s) with correlations of at most 1e-3: the
    # entropy is flat within 2 SCREEN_DELTA, so the screen keeps every row
    rng = np.random.default_rng(27)
    return [BlochX(r, s, c1, c2, r * s + dc) for r, s, c1, c2, dc in
            zip(*rng.uniform(-0.8, 0.8, (2, 6)),
                *rng.uniform(-1e-3, 1e-3, (3, 6)))]


def screen_states():
    # states whose grids the screen sees: uniform, rank-2 of cases I to
    # III and their swaps, |s| = 1 (dead weights; the last with c2 inside
    # PHYS_TOL, so the oracle sweeps its phi too) and near-product
    rng = np.random.default_rng(2701)
    return (random_states(rng, 8)
            + [q for case in ("I", "II", "III")
               for p in random_rank_two(rng, case, 2)
               for q in (p, p.swapped())]
            + [BlochX(*t) for t in BOUNDARY_BLOCH]
            + [BlochX(0.3, 1.0, 0.0, 1e-11, 0.3)] + near_product_states())


def screen_entropy(p, z3s, phis):
    # the screen's entropy over the full grid z3s x phis: per cell, 1
    # minus half its float32 sum_k p_k T(A_k), as sum_k p_k is 1 within
    # 5e-11 on every physical state.  Each block is read before the next
    # overwrites it
    blocks = []
    for _, sums in oracle._screen_blocks(p, z3s, np.sin(phis) ** 2):
        assert sums.dtype == np.float32
        blocks.append(1.0 - 0.5 * sums)
    return np.concatenate(blocks)


def test_float32_entropy_stays_finite_at_lambda_one():
    # a Bell state reaches lambda_k = 1 on both outcomes, where the cell
    # is exactly 0 and 1 - A_k = 0 needs a LOG_FLOOR float32 holds
    bell = BlochX(0.0, 0.0, 1.0, -1.0, 1.0)
    z3s = np.linspace(0.0, 1.0, 33)
    ce = screen_entropy(bell, z3s, z3s * HALF_PI)
    assert np.isfinite(ce).all()
    assert (ce == 0.0).any() and ce.max() < oracle.SCREEN_DELTA


def outcomes_without_clamp(rows, theta):
    # _outcomes with no clamp of the radicand at 0
    base, divisor, pk = rows
    a = base + theta
    np.sqrt(a, out=a)
    a /= divisor
    np.minimum(a, 1.0, out=a)
    a += 1.0
    a *= 0.5
    return pk, a


def grid_entropy(p, z3s, phis):
    # the float64 kernel's entropy over the full grid z3s x phis
    with np.errstate(invalid="ignore"):
        return np.concatenate([ce for _, ce in oracle._blocks(
            p, z3s, np.sin(phis) ** 2)])


def test_float32_radicand_needs_no_clamp(monkeypatch):
    # the screen's float32 radicand alpha_k circle + beta_k is a sum of
    # terms that round to >= 0, so it is never below 0, on boundary,
    # near-product and |s| = 1 states (the first three with a tiny c2,
    # so theta depends on phi; the last inside PHYS_TOL with A_- > 1
    # near z3 = 1 before min(., 1)), on the coarse grid and on a zoom
    # grid at z3 = 1, where the screen stays within SCREEN_DELTA / 4 of
    # the float64 kernel.  In float64, r^2 - 2 r c3 z3 + theta cancels
    # below 0 on the zoom grid of the fourth |s| = 1 state, where the
    # clamp is needed
    states = ([BlochX(*t) for t in BOUNDARY_BLOCH] + near_product_states()
              + [BlochX(r, s, 0.0, c2, r * s) for r, s, c2 in
                 ((0.3, 1.0, 1e-11), (0.0, -1.0, 3e-11), (-0.5, 1.0, -2e-11),
                  (0.6, 1.0, 0.0))]
              + [BlochX(0.99, 1.0, 1e-5, -9e-6, 0.99)])
    states += [p.swapped() for p in states]
    zoom = (oracle._zoom_axis(1.0 - 1e-7, 1.0), oracle._zoom_axis(0.0, 0.01))
    grids = [oracle._coarse_grid(256)[:2], zoom]
    cases = [(p, z3s, phis) for p in states for z3s, phis in grids]
    kernel = [grid_entropy(*case) for case in cases]
    lows, matmul = [], np.matmul

    def spy(*args, **kwargs):       # records each radicand block's minimum
        out = matmul(*args, **kwargs)
        lows.append(float(out.min()))
        return out
    monkeypatch.setattr(np, "matmul", spy)
    for case, ce in zip(cases, kernel):
        assert np.abs(screen_entropy(*case) - ce).max() < (
            oracle.SCREEN_DELTA / 4.0), case[0]
    monkeypatch.undo()
    assert len(lows) == 5 * len(states)     # 4 coarse blocks, 1 zoom
    assert min(lows) >= 0.0
    monkeypatch.setattr(oracle, "_outcomes", outcomes_without_clamp)
    assert any(not same_bits(ce, grid_entropy(*case))
               for case, ce in zip(cases, kernel))


@pytest.mark.parametrize("n", [100, 256, 300, 512])
def test_screened_sweep_is_the_full_grid_argmin(n):
    # the float32 screen keeps every row that can hold the float64
    # minimum: its error stays well inside SCREEN_DELTA, it keeps the
    # rows whose minimum is within 2 SCREEN_DELTA of the grid's, and
    # _sweep returns the full grid's first row-major argmin bit for bit.
    # At n = 300 the last blocks of both passes are partial
    z3s, phis = np.linspace(0.0, 1.0, n), np.linspace(0.0, HALF_PI, n)
    z3 = z3s[:, None]
    for p in screen_states():
        exact = textbook_entropy(p, z3, textbook_theta(p, z3, phis))
        screen = screen_entropy(p, z3s, phis).reshape(exact.shape)
        assert np.abs(screen - exact).max() < oracle.SCREEN_DELTA / 4.0, p
        row_min = screen.min(axis=1)
        assert np.array_equal(
            oracle._screen(p, z3s, np.sin(phis) ** 2),
            np.flatnonzero(row_min <= row_min.min()
                           + 2.0 * oracle.SCREEN_DELTA)), p
        i, j = np.unravel_index(int(np.argmin(exact)), exact.shape)
        assert _sweep(p, z3s, np.sin(phis) ** 2) == (
            float(exact[i, j]), i, j), p


def test_near_product_grids_keep_every_row():
    z3s, phis, _, _ = oracle._coarse_grid(256)
    for p in near_product_states():
        assert np.array_equal(oracle._screen(p, z3s, np.sin(phis) ** 2),
                              np.arange(256))


def test_screen_work_arrays_fault_in_once():
    # the screen builds its three 128 KB work arrays once per grid.  A
    # screen that allocated them per block would hand each back to the
    # kernel on free and fault it in again on the next block: about
    # 3,300 minor page faults per pass below, where the Koashi-Winter
    # bridge runs between sweeps as on the certify path
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(3504)
    states = [p for case in ("I", "II", "III")
              for p in random_rank_two(rng, case, 20)]

    def one_pass():
        for p in states:
            koashi_winter(bloch_to_matrix(p))
            oracle_classical_correlation(p.swapped(), 256)

    one_pass()                      # warm-up: heap and caches settle
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 100, faults


@pytest.mark.parametrize("n", [100, 256, 512])
def test_screen_blocks_start_on_64_byte_boundaries(n):
    # grid sizes of the identity corpus, the CLI default and --grid 512;
    # without the alignment the offset follows the process's heap layout
    z3s, _, sin2, _ = oracle._coarse_grid(n)
    p = random_rank_two(np.random.default_rng(37), "III", 1)[0]
    starts = []
    for start, sums in oracle._screen_blocks(p, z3s, sin2):
        assert sums.ctypes.data % 64 == 0, (n, start)
        starts.append(start)
    assert starts[-1] + len(sums) == n


def test_zoom_axis_is_linspace_bit_for_bit(rng):
    # bounds as the refinement rounds draw them on both axes, at every
    # step size down to ZOOM_MIN_STEP, then arbitrary ordered pairs
    pairs = []
    for k in range(9):
        for top in (1.0, HALF_PI):
            step = top / 255.0 / 8.0 ** k
            for mid in np.concatenate([rng.uniform(0.0, top, 200),
                                       [0.0, step, top - step, top]]):
                pairs.append((max(mid - step, 0.0), min(mid + step, top)))
    for lo, hi in rng.normal(size=(500, 2)) * 10.0 ** rng.integers(
            -30, 30, size=(500, 1)):
        pairs.append((min(lo, hi), max(lo, hi)))
    for lo, hi in pairs:
        assert same_bits(oracle._zoom_axis(lo, hi),
                         np.linspace(lo, hi, ZOOM_POINTS)), (lo, hi)


def test_grid_cache_accepts_what_linspace_accepts():
    p = BlochX(0.31, -0.22, 0.47, -0.18, 0.29)
    oracle._coarse_grid.cache_clear()
    with pytest.raises(TypeError):
        oracle_classical_correlation(p, grid_n=256.0, refine_rounds=0)
    first = oracle_classical_correlation(p, grid_n=256, refine_rounds=0)
    with pytest.raises(TypeError):
        oracle_classical_correlation(p, grid_n=256.0, refine_rounds=0)
    with pytest.raises(ValueError):
        oracle_classical_correlation(p, grid_n=0)
    assert oracle_classical_correlation(
        p, grid_n=np.int64(256), refine_rounds=0) == first
    z3s, phis, _, column = oracle._coarse_grid(256)
    assert not (z3s.flags.writeable or phis.flags.writeable
                or column.flags.writeable)
    assert np.array_equal(z3s, np.linspace(0.0, 1.0, 256))
    assert np.array_equal(phis, np.linspace(0.0, HALF_PI, 256))
    # the corner column: the first zoom axes around z3 = 0 and z3 = 1
    assert same_bits(column, np.concatenate((
        z3s, np.linspace(0.0, 1.0 / 255.0, ZOOM_POINTS),
        np.linspace(1.0 - 1.0 / 255.0, 1.0, ZOOM_POINTS))))


# |c2| one ulp above |c1|: theta depends on phi, if barely
ULP_APART = BlochX(0.1, 0.2, 0.3, float(np.nextafter(0.3, 1.0)), 0.2)


def record_columns(monkeypatch):
    # the number of phi columns of every float64 kernel pass the oracle
    # makes, screened coarse grids and the corner column included
    seen = []
    blocks = oracle._blocks

    def counting(p, z3s, sin2):
        seen.append(len(sin2))
        return blocks(p, z3s, sin2)

    monkeypatch.setattr(oracle, "_blocks", counting)
    return seen


@pytest.mark.parametrize("grid_n", [1, 2, 17, 256])
def test_flat_states_tie_across_phi(grid_n):
    # the premise of the one-column sweep: on the full grid every row
    # ties, so the row-major argmin is the phi = 0 column's
    z3s = np.linspace(0.0, 1.0, grid_n)
    phis = np.linspace(0.0, HALF_PI, grid_n)
    for p in flat_states():
        assert _phi_weight(p) == 0.0, p
        assert (_sweep(p, z3s, np.sin(phis) ** 2)
                == _sweep(p, z3s, np.sin(phis[:1]) ** 2)), p


@pytest.mark.parametrize("grid_n", [1, 2, 17, 256])
def test_oracle_sweeps_phi_only_when_theta_depends_on_it(monkeypatch,
                                                         grid_n):
    assert _phi_weight(ULP_APART) != 0.0
    non_flat = [BlochX(0.31, -0.22, 0.47, -0.18, 0.29), ULP_APART]
    for p, flat in ([(q, True) for q in flat_states()]
                    + [(q, False) for q in non_flat]):
        seen = record_columns(monkeypatch)
        orc = oracle_classical_correlation(p, grid_n=grid_n,
                                           refine_rounds=4)
        if flat:        # only a corner winner needs no pass beyond the first
            assert seen and set(seen) == {1}, p
            assert len(seen) > 1 or orc.grid_index[0] in (0, grid_n - 1), p
            assert orc.phi == 0.0 and orc.grid_index[1] == 0
        else:
            assert seen[0] == grid_n, p
            assert seen[1:] and set(seen[1:]) == {ZOOM_POINTS}, p


def test_one_point_grid_still_refines_phi(monkeypatch):
    # grid_n = 1 sweeps the single point phi = 0, but a state whose best
    # axis lies at phi = pi/2 (|c2| > |c1|) must find it in the zoom
    p = BlochX(0.1, -0.2, 0.1, 0.5, 0.2)
    seen = record_columns(monkeypatch)
    orc = oracle_classical_correlation(p, grid_n=1)
    assert seen[0] == 1
    assert seen[1:] and set(seen[1:]) == {ZOOM_POINTS}
    assert orc.phi == HALF_PI
    assert orc.classical_correlation == pytest.approx(
        discord(p).classical_correlation, abs=1e-9)


def count_kernel_passes(monkeypatch, p, grid_n):
    # float64 kernel passes (calls of oracle._blocks) of one oracle call
    seen = record_columns(monkeypatch)
    oracle_classical_correlation(p, grid_n=grid_n)
    monkeypatch.undo()
    return len(seen)


def test_corner_zoom_rides_on_the_coarse_pass(monkeypatch):
    # a flat state whose coarse winner sits at z3 = 1 finds round 1's zoom
    # in the coarse pass's corner rows: one pass instead of two.  States
    # off the one-column path, or with an interior winner, keep theirs
    corner = flat_states()[-1]                  # swapped case I
    interior = matrix_to_bloch(XDensityMatrix(EX_MATRIX))
    case_iii = random_rank_two(np.random.default_rng(5), "III", 1)[0]
    assert oracle_classical_correlation(corner).grid_index == (255, 0)
    assert count_kernel_passes(monkeypatch, corner, 256) == 1
    assert count_kernel_passes(monkeypatch, interior, 256) == 8
    assert count_kernel_passes(monkeypatch, case_iii, 256) == 2


def refined_through_sweep(p, grid_n, refine_rounds=30):
    # oracle_classical_correlation with every grid, the coarse column and
    # each round's zoom, sent through oracle._sweep
    cols = 1 if _phi_weight(p) == 0.0 else None
    z3s = np.linspace(0.0, 1.0, grid_n)
    phis = np.linspace(0.0, HALF_PI, grid_n)
    best, i, j = oracle._sweep(p, z3s, np.sin(phis[:cols]) ** 2)
    z3, phi = float(z3s[i]), float(phis[j])
    dz = 1.0 / max(grid_n - 1, 1)
    dphi = HALF_PI * dz
    for _ in range(refine_rounds):
        zs = oracle._zoom_axis(max(z3 - dz, 0.0), min(z3 + dz, 1.0))
        fs = oracle._zoom_axis(max(phi - dphi, 0.0), min(phi + dphi, HALF_PI))
        cand, a, b = oracle._sweep(p, zs, np.sin(fs[:cols]) ** 2)
        gain = best - cand
        if gain > 0.0:
            best, z3, phi = cand, float(zs[a]), float(fs[b])
        if (gain < oracle.CORNER_GAIN and z3 in (0.0, 1.0)
                and phi in (0.0, HALF_PI)):
            break
        dz /= oracle.ZOOM_SHRINK
        dphi /= oracle.ZOOM_SHRINK
        if dz < oracle.ZOOM_MIN_STEP:
            break
    rho = math.sqrt(max(1.0 - z3 * z3, 0.0))
    sa = binary_entropy((1.0 + p.r) / 2.0)
    return oracle.OracleResult(
        classical_correlation=float(sa - best), entropy_min=best, z3=z3,
        phi=phi, direction=(rho * math.cos(phi), rho * math.sin(phi), z3),
        grid_n=grid_n, grid_index=(i, j))


def mirrored_states(rng, n, draw):
    # n physical states (r, s, c, +/-c, c3), (r, s, c, c3) = draw(rng)
    out = []
    while len(out) < n:
        r, s, c, c3 = draw(rng)
        c2 = c if rng.random() < 0.5 else -c
        if min(physicality_margins(r, s, c, c2, c3)) >= 0.0:
            out.append(BlochX(r, s, c, c2, c3))
    return out


def one_column_states():
    # c1^2 = c2^2 in floats: uniform, Bell-diagonal (r = s = 0), region c
    # (r = 0, with c3^2 >= c^2 or s = 0), swapped rank-2 states of cases I
    # and II, as the certify workload draws them, and five whose z* lies
    # 0.3 coarse steps below z3 = 1 at grids 17, 100, 256, 512 and 8292:
    # the coarse winner is the corner, and round 1 moves off it
    near_corner = [BlochX(0.81, -0.69, c, c, -0.8) for c in
                   (0.382873, 0.382497, 0.382451, 0.382437, 0.382423)]
    rng = np.random.default_rng(3801)
    uniform = mirrored_states(rng, 40, lambda g: g.uniform(-1.0, 1.0, 4))
    bell = mirrored_states(rng, 10, lambda g: (0.0, 0.0,
                                               *g.uniform(-1.0, 1.0, 2)))
    region_c = [q for q in mirrored_states(
        rng, 40, lambda g: (0.0, g.uniform(-1.0, 1.0) * (g.random() < 0.5),
                            *g.uniform(-1.0, 1.0, 2)))
        if q.c3 * q.c3 >= q.c1 * q.c1 or q.s == 0.0][:10]
    rank_two = [p.swapped() for case in ("I", "II")
                for p in random_rank_two(rng, case, 10)]
    return (flat_states() + uniform + bell + region_c + rank_two
            + near_corner)


@pytest.mark.parametrize("grid_n", [1, 2, 17, 100, 256, 512,
                                    oracle.SWEEP_BLOCK + 100])
def test_corner_rows_match_a_sweep_per_round(monkeypatch, grid_n):
    # the corner column's rows give the bits _sweep gives each grid: the
    # kernel works elementwise, and each segment's argmin is its first
    # minimum.  The oracle sweeps neither the coarse column nor, after a
    # corner winner, round 1's zoom; a column longer than SWEEP_BLOCK
    # takes the same path, in blocks, with no screen
    states = one_column_states()
    assert len(states) == 6 + 40 + 10 + 10 + 20 + 5
    assert all(_phi_weight(p) == 0.0 for p in states)
    sweeps = []

    def spy(*args):
        sweeps.append(len(args[1]))
        return _sweep(*args)
    monkeypatch.setattr(oracle, "_sweep", spy)
    corners = moved = 0
    for p in states:
        del sweeps[:]
        expect = refined_through_sweep(p, grid_n)
        swept = len(sweeps)
        del sweeps[:]
        got = oracle_classical_correlation(p, grid_n=grid_n)
        corner = got.grid_index[0] in (0, grid_n - 1)
        assert got == expect, p
        assert len(sweeps) == swept - 1 - corner, p
        assert set(sweeps) <= {ZOOM_POINTS}, p
        corners += corner
        moved += corner and got.z3 not in (0.0, 1.0)
    assert corners >= 20 and moved >= 1
