"""Brute-force measurement sweep against dense-matrix reference results."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (BOUNDARY_BLOCH, EX_MATRIX, dense_entropy,
                      measured_ensemble)
from xdiscord import (BlochX, FContext, XDensityMatrix, bloch_to_matrix,
                      discord, f_value, matrix_to_bloch,
                      oracle_classical_correlation)
from xdiscord.oracle import _entropy, _outcomes
from xdiscord.sampling import random_rank_two, random_states

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
    return 1.0 - float(_entropy(p, z3, th))


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
        outcomes = _outcomes(p, point[2], theta(p, point))
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
        assert float(_entropy(p, point[2], theta(p, point))) == (
            pytest.approx(expect, abs=1e-10))


def test_conditional_entropy_of_pure_state_vanishes(rng):
    bell = BlochX(0.0, 0.0, 1.0, -1.0, 1.0)
    for point in random_directions(rng, 25):
        assert float(_entropy(bell, point[2], theta(bell, point))) == (
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
        ctx = FContext.from_state(p)
        for z3 in np.linspace(0.0, 1.0, 9):
            best = objective(p, z3, best_theta(p, z3))
            assert f_value(ctx, z3) == pytest.approx(best, abs=1e-10)


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


def test_oracle_refinement_improves_on_coarse_grid():
    p = matrix_to_bloch(XDensityMatrix(EX_MATRIX))
    coarse = oracle_classical_correlation(p, grid_n=64, refine_rounds=0)
    refined = oracle_classical_correlation(p, grid_n=64)
    assert refined.entropy_min <= coarse.entropy_min + 1e-15
    res = discord(p)
    assert refined.classical_correlation == pytest.approx(
        res.classical_correlation, abs=1e-6)
