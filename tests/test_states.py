"""Representation layer: Pauli parameters, matrices, spectra, entropies."""

import math

import numpy as np
import pytest

from conftest import (BOUNDARY_BLOCH, EX_MATRIX, dense_entropy, ptrace_a,
                      ptrace_b)
from xdiscord import (BlochX, PhysicalityError, XDensityMatrix, XPatternError,
                      binary_entropy, bloch_to_matrix, corner_phases,
                      entropies, matrix_to_bloch, physicality_margins,
                      spectrum, xlog2)
from xdiscord.sampling import (random_bell_diagonal, random_rank_two,
                               random_states)
from xdiscord.states import EIG_CLAMP, blocks


def test_worked_matrix_to_bloch():
    p = matrix_to_bloch(XDensityMatrix(EX_MATRIX))
    assert p.r == pytest.approx(-0.5934, abs=1e-12)
    assert p.s == pytest.approx(-0.5934, abs=1e-12)
    assert p.c1 == pytest.approx(0.2, abs=1e-12)
    assert p.c2 == pytest.approx(0.2, abs=1e-12)
    assert p.c3 == pytest.approx(0.5, abs=1e-12)


def test_worked_matrix_spectrum():
    p = matrix_to_bloch(XDensityMatrix(EX_MATRIX))
    np.testing.assert_allclose(spectrum(p), [0.6717, 0.2250, 0.0783, 0.0250],
                               atol=1e-12)


def test_bloch_matrix_round_trip(rng):
    for p in random_states(rng, 300):
        q = matrix_to_bloch(bloch_to_matrix(p))
        np.testing.assert_allclose(q.as_tuple(), p.as_tuple(), atol=1e-12)


def test_matrix_diagonal_and_corners():
    p = BlochX(0.3, -0.2, 0.3, 0.1, 0.25)
    m = bloch_to_matrix(p)
    d = np.real(np.diag(m.matrix))
    np.testing.assert_allclose(
        d, [(1 + 0.3 - 0.2 + 0.25) / 4, (1 + 0.3 + 0.2 - 0.25) / 4,
            (1 - 0.3 - 0.2 - 0.25) / 4, (1 - 0.3 + 0.2 + 0.25) / 4],
        atol=1e-15)
    assert m.corner_outer == pytest.approx((0.3 - 0.1) / 4)
    assert m.corner_inner == pytest.approx((0.3 + 0.1) / 4)


def test_spectrum_matches_dense_eigensolver(rng):
    for p in random_states(rng, 300):
        dense = np.sort(np.linalg.eigvalsh(bloch_to_matrix(p).matrix))[::-1]
        np.testing.assert_allclose(spectrum(p), np.real(dense), atol=1e-10)


def test_negative_corner_preserved():
    p = BlochX(0.0, 0.0, -0.6, 0.2, 0.1)
    q = matrix_to_bloch(bloch_to_matrix(p))
    assert q.c1 == pytest.approx(-0.6, abs=1e-15)
    assert q.c2 == pytest.approx(0.2, abs=1e-15)


def test_complex_corner_phase_stripped():
    p = BlochX(0.1, -0.2, 0.4, 0.2, 0.1)
    m = bloch_to_matrix(p).matrix.copy()
    ua = np.diag([1.0, np.exp(0.7j)])
    ub = np.diag([1.0, np.exp(-0.4j)])
    u = np.kron(ua, ub)
    rotated = u @ m @ u.conj().T
    q = matrix_to_bloch(rotated)
    # local phases leave the parameters unchanged when corners start >= 0
    np.testing.assert_allclose(q.as_tuple(), p.as_tuple(), atol=1e-12)
    outer, inner = corner_phases(rotated)
    assert abs(outer) > 1e-3 and abs(inner) > 1e-3
    outer0, inner0 = corner_phases(m)
    assert outer0 == 0.0 and inner0 == 0.0


def test_rejects_non_x_pattern():
    m = EX_MATRIX.copy()
    m[0, 1] = 1e-6
    with pytest.raises(XPatternError):
        XDensityMatrix(m)


def test_rejects_wrong_shape():
    for shape in ((3, 3), (4,), (2, 8)):
        with pytest.raises(XPatternError, match="expected a 4x4 matrix"):
            XDensityMatrix(np.zeros(shape))


def test_rejects_non_hermitian():
    m = EX_MATRIX.astype(complex)
    m[1, 2] = 0.1 + 0.05j
    m[2, 1] = 0.1 - 0.02j
    with pytest.raises(PhysicalityError):
        XDensityMatrix(m)


def test_rejects_bad_trace():
    with pytest.raises(PhysicalityError):
        XDensityMatrix(1.5 * EX_MATRIX)


def test_rejects_negative_eigenvalue():
    m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    m[0, 3] = m[3, 0] = 0.6
    with pytest.raises(PhysicalityError):
        XDensityMatrix(m)


@pytest.mark.parametrize("where, value", [
    ((0, 1), np.nan), ((1, 0), np.nan), ((2, 2), np.nan),
    ((0, 3), np.inf), ((1, 2), complex(0.1, np.inf)),
], ids=["nan-off-x-upper", "nan-off-x-lower", "nan-diagonal",
        "inf-corner", "inf-imaginary-corner"])
def test_rejects_non_finite_entry(where, value):
    # nan compares False with every tolerance, and eigvalsh reads only
    # the lower triangle, so each check on its own would let it through
    m = EX_MATRIX.astype(complex)
    m[where] = value
    with pytest.raises(PhysicalityError, match="non-finite"):
        XDensityMatrix(m)


def test_parameter_range_validation():
    with pytest.raises(PhysicalityError):
        BlochX(1.2, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(PhysicalityError):
        BlochX(0.0, 0.0, -1.01, 0.0, 0.0)


def test_positivity_boundary():
    # Bell state sits exactly on the boundary and must be accepted
    bell = BlochX(0.0, 0.0, 1.0, -1.0, 1.0)
    assert min(bell.margins) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(PhysicalityError):
        BlochX(0.0, 0.0, 1.0 + 1e-8, -1.0 - 1e-8, 1.0)
    # violations inside the tolerance band are accepted
    BlochX(0.0, 0.0, 1.0, -1.0 - 1e-12, 1.0)
    # every entry inside [-1, 1]: each inequality raises, naming itself
    with pytest.raises(PhysicalityError,
                       match=r"^1 - c3 >= .* violated by 2\.000e-01$"):
        BlochX(0.0, 0.0, 0.6, 0.6, 0.0)
    with pytest.raises(PhysicalityError, match=r"^1 \+ c3 >= .* violated"):
        BlochX(0.9, 0.9, 0.9, 0.0, 0.0)


def test_margins_name_the_binding_inequality():
    m1, m2 = physicality_margins(0.2, -0.1, 0.5, 0.3, 0.4)
    assert m1 == pytest.approx(1.0 - 0.4 - math.hypot(0.3, 0.8))
    assert m2 == pytest.approx(1.0 + 0.4 - math.hypot(0.1, 0.2))


def test_margins_on_arrays_match_float_calls(rng):
    # one formula serves single states and the samplers' (N, 5) batches
    rows = np.vstack([rng.uniform(-1.0, 1.0, size=(10_000, 5)),
                      np.array(BOUNDARY_BLOCH)])
    m1, m2 = physicality_margins(*rows.T)
    per_row = np.array([physicality_margins(*map(float, row))
                        for row in rows])
    np.testing.assert_allclose(m1, per_row[:, 0], rtol=0, atol=4.4e-16)
    np.testing.assert_allclose(m2, per_row[:, 1], rtol=0, atol=4.4e-16)


def test_entropy_helpers():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert xlog2(0.0) == 0.0
    np.testing.assert_allclose(xlog2(np.array([0.0, 0.5, 1.0])),
                               [0.0, -0.5, 0.0], atol=1e-15)


def test_state_entropy_matches_dense(rng):
    for p in random_states(rng, 100):
        assert entropies(p)[2] == pytest.approx(
            dense_entropy(bloch_to_matrix(p).matrix), abs=1e-10)


def test_pure_state_entropy_zero():
    bell = BlochX(0.0, 0.0, 1.0, -1.0, 1.0)
    assert entropies(bell) == (1.0, 1.0, 0.0)


def test_marginals_match_partial_traces(rng):
    # S(a) and S(b) against the partial traces of the dense matrix
    for p in random_states(rng, 50):
        m = bloch_to_matrix(p).matrix
        sa, sb, _ = entropies(p)
        assert sa == pytest.approx(dense_entropy(ptrace_b(m)), abs=1e-12)
        assert sb == pytest.approx(dense_entropy(ptrace_a(m)), abs=1e-12)


def test_mutual_information_of_product_state(rng):
    for _ in range(20):
        r, s = rng.uniform(-0.9, 0.9, size=2)
        p = BlochX(r, s, 0.0, 0.0, r * s)
        m = bloch_to_matrix(p).matrix
        np.testing.assert_allclose(m, np.kron(ptrace_b(m), ptrace_a(m)),
                                   atol=1e-14)
        sa, sb, sab = entropies(p)
        assert sa + sb - sab == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_matches_dense(rng):
    for p in random_states(rng, 100):
        m = bloch_to_matrix(p).matrix
        expect = (dense_entropy(ptrace_b(m)) + dense_entropy(ptrace_a(m))
                  - dense_entropy(m))
        sa, sb, sab = entropies(p)
        assert sa + sb - sab == pytest.approx(expect, abs=1e-10)


def test_entropies_match_dense_on_every_family(rng):
    # S(a), S(b), S(ab) on floats against eigvalsh of the dense matrix and
    # its partial traces.  The two near-pure states have closed-form
    # eigenvalues within EIG_CLAMP of 0 and of 1, so both clamps run.
    eps = 1e-14
    near_pure = [BlochX(0.0, 0.0, eps - 1.0, eps - 1.0, eps - 1.0),
                 BlochX(1.0 - eps / 2, 1.0 - eps / 2, 0.0, 0.0, 1.0 - eps)]
    for p in near_pure:
        raw = [(t + sign * big) / 4.0 for t, big in blocks(*p.as_tuple())
               for sign in (1.0, -1.0)]
        assert any(0.0 < x < EIG_CLAMP for x in raw)
        assert any(0.0 < 1.0 - x < EIG_CLAMP for x in raw)
        assert {0.0, 1.0} <= set(spectrum(p))
    states = random_states(rng, 200) + random_bell_diagonal(rng, 50) + [
        p.swapped() for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 30)]
    states += [BlochX(*t) for t in BOUNDARY_BLOCH] + near_pure
    for p in states:
        m = bloch_to_matrix(p).matrix
        expect = (dense_entropy(ptrace_b(m)), dense_entropy(ptrace_a(m)),
                  dense_entropy(m))
        np.testing.assert_allclose(entropies(p), expect, rtol=0, atol=1e-12,
                                   err_msg=str(p.as_tuple()))


def test_swapped_exchanges_parties():
    p = BlochX(0.3, -0.2, 0.3, 0.1, 0.25)
    q = p.swapped()
    assert (q.r, q.s) == (p.s, p.r)
    assert (q.c1, q.c2, q.c3) == (p.c1, p.c2, p.c3)
    m = bloch_to_matrix(p).matrix
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    np.testing.assert_allclose(bloch_to_matrix(q).matrix,
                               swap @ m @ swap, atol=1e-15)


def test_matrix_is_read_only():
    m = bloch_to_matrix(BlochX(0.1, 0.1, 0.2, 0.1, 0.3))
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 9.9
