"""Representation layer: Pauli parameters, matrices, spectra, entropies."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from conftest import (BOUNDARY_BLOCH, EX_MATRIX, REGION_EDGE_BLOCH,
                      dense_entropy, ptrace_a, ptrace_b, same_bits)
from xdiscord import (BlochX, PhysicalityError, XDensityMatrix, XPatternError,
                      binary_entropy, bloch_to_matrix, entropies,
                      koashi_winter, matrix_to_bloch, physicality_margins,
                      rank_two_classify, spectrum, xlog2)
from xdiscord.sampling import (random_bell_diagonal, random_rank_two,
                               random_states)
from xdiscord.states import (EIG_CLAMP, HERM_TOL, PHYS_TOL, TRACE_TOL,
                             blocks, xlog2_float)

# rank-2 states with a zero eigenvalue in the (|01>, |10>) block: case I
# (both inner eigenvalues 0) and case III (one in each block)
EDGE_CASE_I = BlochX(0.3, 0.3, 0.2, -0.2, 1.0)
EDGE_CASE_III = BlochX(0.3, 0.3, 0.9, 0.1, 0.0)


def moved_weight(p: BlochX, delta: float) -> np.ndarray:
    """The matrix of p with delta moved from rho_22 to rho_11."""
    m = bloch_to_matrix(p).matrix.copy()
    m[1, 1] -= delta
    m[0, 0] += delta
    return m


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
    assert m.matrix[0, 3] == pytest.approx((0.3 - 0.1) / 4)
    assert m.matrix[1, 2] == pytest.approx((0.3 + 0.1) / 4)


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
    outer, inner = XDensityMatrix(rotated).phases
    assert abs(outer) > 1e-3 and abs(inner) > 1e-3
    outer0, inner0 = XDensityMatrix(m).phases
    assert outer0 == 0.0 and inner0 == 0.0


# a state with both corners complex: local phases diag(1, e^0.7i) on
# qubit a and diag(1, e^-0.4i) on qubit b
U_PHASE = np.kron(np.diag([1.0, np.exp(0.7j)]), np.diag([1.0, np.exp(-0.4j)]))
PHASED = (U_PHASE @ bloch_to_matrix(BlochX(0.1, -0.2, 0.4, 0.2, 0.1)).matrix
          @ U_PHASE.conj().T)


def test_matrix_keeps_what_it_reads():
    xm = XDensityMatrix(PHASED)
    assert matrix_to_bloch(xm) is xm.bloch
    assert not xm.gauged.flags.writeable
    assert not np.iscomplexobj(xm.gauged)
    np.testing.assert_allclose(xm.gauged,
                               bloch_to_matrix(xm.bloch).matrix.real,
                               rtol=0.0, atol=1e-15)


def test_copies_rebuild_through_the_constructor():
    xm = XDensityMatrix(PHASED)
    for twin in (pickle.loads(pickle.dumps(xm)), copy.copy(xm),
                 copy.deepcopy(xm)):
        assert twin is not xm
        assert not twin.matrix.flags.writeable
        assert not twin.gauged.flags.writeable
        np.testing.assert_array_equal(twin.matrix, xm.matrix)
        assert twin.bloch == xm.bloch and twin.phases == xm.phases


def test_replace_derives_every_field_again():
    xm = bloch_to_matrix(BlochX(0.3, -0.2, 0.3, 0.1, 0.25))
    fresh = dataclasses.replace(xm, matrix=PHASED)
    ref = XDensityMatrix(PHASED)
    np.testing.assert_array_equal(fresh.gauged, ref.gauged)
    assert fresh.phases == ref.phases != xm.phases
    assert fresh.bloch == ref.bloch != xm.bloch


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


@pytest.mark.parametrize("p, message", [
    (EDGE_CASE_I, r"^c3 = 1\.00000000012 outside \[-1, 1\]$"),
    (EDGE_CASE_III, r"^1 - c3 >= .* violated by 1\.200e-10$"),
], ids=["case-I", "case-III"])
def test_every_matrix_path_rejects_a_state_past_the_margin(p, message):
    # lowest eigenvalue -3e-11 (case III) or -6e-11 (case I): above
    # -PHYS_TOL, but the Bloch margin, 4x a block eigenvalue, is past it
    m = moved_weight(p, 6e-11)
    assert -PHYS_TOL < np.linalg.eigvalsh(m).min() < -2.5e-11
    messages = set()
    for call in (XDensityMatrix, matrix_to_bloch, rank_two_classify,
                 koashi_winter):
        with pytest.raises(PhysicalityError, match=message) as err:
            call(m)
        messages.add(str(err.value))
    assert len(messages) == 1, messages


def test_every_accepted_matrix_has_a_bloch_form(rng):
    # k * 1e-11 moved onto rho_11 walks rank-2 states out through the
    # tolerance band; an accepted matrix always has a Bloch form, and no
    # matrix with an eigenvalue below -PHYS_TOL is accepted
    states = [EDGE_CASE_I, EDGE_CASE_III] + random_states(rng, 5) + [
        q for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 5) for q in (p, p.swapped())]
    accepted = 0
    for p in states:
        for k in range(1, 21):
            m = moved_weight(p, k * 1e-11)
            try:
                XDensityMatrix(m)
            except PhysicalityError:
                continue
            accepted += 1
            matrix_to_bloch(m)
            assert np.linalg.eigvalsh(m).min() >= -PHYS_TOL
    assert 0 < accepted < 20 * len(states)


def test_round_trip_accepts_states_just_inside_the_tolerance(rng):
    # c3 moved so the smaller margin sits 1e-13 inside -PHYS_TOL; at
    # 1e-16 inside, rounding rejects about one state in five (README)
    edge = []
    for p in random_states(rng, 2000):
        r, s, c1, c2, c3 = p.as_tuple()
        m1, m2 = p.margins
        if m1 <= m2:
            c3 += m1 + PHYS_TOL - 1e-13
        else:
            c3 -= m2 + PHYS_TOL - 1e-13
        if abs(c3) <= 1.0:
            edge.append(BlochX(r, s, c1, c2, c3))
    assert len(edge) > 1800
    for p in edge:
        q = matrix_to_bloch(bloch_to_matrix(p))
        np.testing.assert_allclose(q.as_tuple(), p.as_tuple(), atol=1e-12)


@pytest.mark.parametrize("where, value", [
    ((0, 1), np.nan), ((1, 0), np.nan), ((2, 2), np.nan),
    ((0, 3), np.inf), ((1, 2), complex(0.1, np.inf)),
], ids=["nan-off-x-upper", "nan-off-x-lower", "nan-diagonal",
        "inf-corner", "inf-imaginary-corner"])
def test_rejects_non_finite_entry(where, value):
    # nan compares False with every tolerance, and the Bloch form reads
    # only the diagonal and the corners, so a nan off the X would pass
    # every later check
    m = EX_MATRIX.astype(complex)
    m[where] = value
    with pytest.raises(PhysicalityError, match="non-finite"):
        XDensityMatrix(m)


# the entries the X pattern leaves zero
OFF_X = np.ones((4, 4), dtype=bool)
OFF_X[[0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 2, 3, 3, 2, 1, 0]] = False


def whole_array_checks(m):
    # XDensityMatrix's entry checks, each as one numpy call on the whole
    # array: (type, message) of the first that fails, or None
    m = np.array(m, dtype=complex)
    if not np.isfinite(m).all():
        return PhysicalityError, "matrix has a non-finite entry"
    stray = np.abs(m[OFF_X])
    if stray.max() > HERM_TOL:
        return XPatternError, ("entries off the diagonal and anti-diagonal "
                               "(largest %.3e)" % stray.max())
    if np.abs(m - m.conj().T).max() > HERM_TOL:
        return PhysicalityError, "matrix is not hermitian"
    tr = m.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        return PhysicalityError, f"trace {float(tr)!r} differs from 1"
    return None


def checks_corpus(rng):
    # states with a 1e-3 positivity margin, real and with complex corners,
    # moved at and around each tolerance: a corner or a diagonal entry at
    # +/- HERM_TOL (real or imaginary, one of the pair), a diagonal entry
    # at +/- TRACE_TOL, and entries off the X just under and over 1e-12,
    # with or without their hermitian partner; then non-finite entries
    bases = []
    for p in random_states(rng, 12, margin=1e-3):
        m = bloch_to_matrix(p).matrix
        u = np.kron(np.diag([1.0, np.exp(1j * rng.uniform(0.0, 6.3))]),
                    np.diag([1.0, np.exp(1j * rng.uniform(0.0, 6.3))]))
        bases += [m, u @ m @ u.conj().T]
    factors = [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 2.0]
    mats = []
    for m in bases:
        for f in factors:
            for sign in (1.0, -1.0):
                for unit in (1.0, 1j):
                    for where in ((0, 3), (2, 1), (1, 1)):
                        moved = m.copy()
                        moved[where] += sign * unit * f * HERM_TOL
                        mats.append(moved)
                moved = m.copy()
                moved[2, 2] += sign * f * TRACE_TOL
                mats.append(moved)
                for where in ((0, 1), (3, 1), (2, 0)):
                    value = f * 1e-12 * np.exp(1j * rng.uniform(0.0, 6.3))
                    for partner in (0.0, np.conj(value), -np.conj(value)):
                        moved = m.copy()
                        moved[where], moved[where[::-1]] = value, partner
                        mats.append(moved)
        for value in (np.nan, -np.inf, complex(0.1, np.nan)):
            moved = m.copy()
            moved[1, 3] = value
            mats.append(moved)
    return mats


def test_entry_checks_match_whole_array_checks(rng):
    # the checks read the 16 entries once, as Python numbers; decisions
    # and messages must be those of the numpy form, near every tolerance
    decided = set()
    for m in checks_corpus(rng):
        want = whole_array_checks(m)
        try:
            XDensityMatrix(m)
            got = None
        except (PhysicalityError, XPatternError) as exc:
            got = type(exc), str(exc)
        assert got == want, m
        # the check that decided: its message's start, without digits
        decided.add(None if want is None else re.sub(r"\d", "", want[1])[:12])
    assert len(decided) == 5, decided     # every check fails, some pass


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
    # nan is no probability, and its entropy is not 0
    assert math.isnan(xlog2(math.nan)) and math.isnan(xlog2_float(math.nan))
    assert math.isnan(binary_entropy(math.nan))
    h = [binary_entropy(x) for x in (0.5, math.nan, 0.0)]
    assert h[0] == 1.0 and math.isnan(h[1]) and h[2] == 0.0


def test_xlog2_keeps_the_masked_form_bits_off_nan(rng):
    # off nan, both helpers give x log2 x where x > 0 and +0.0 elsewhere,
    # bit for bit and sign of zero included
    x = np.concatenate([[0.0, -0.0, -1.0, np.inf, 1e-300, 5e-324,
                         0.5, 1.0], rng.uniform(-1.0, 2.0, 200)])
    want = np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)
    got = xlog2(x)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    for v in x.tolist():
        old = v * math.log2(v) if v > 0.0 else 0.0
        assert repr(xlog2_float(v)) == repr(old), v


def entropies_spelling(x):
    # S(a) and S(b) as entropies writes them, for one marginal x;
    # test_binary_entropy_is_the_marginal_entropy_bits ties the two
    return -(xlog2_float(x) + xlog2_float(1.0 - x)) + 0.0


def test_binary_entropy_matches_entropies_spelling_bits(rng):
    grid = np.concatenate([[0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0],
                           rng.uniform(0.0, 1.0, 95)])
    cases = [0.0, -0.0, 1.0, 1e-300, 0.5, 0.3, np.float64(0.7)]
    for x in cases + grid.tolist():
        got, want = binary_entropy(x), entropies_spelling(float(x))
        assert type(got) is float
        assert same_bits(got, want), x
    # +0.0 at both ends and at -0.0, nan at nan
    for x in (0.0, -0.0, 1.0):
        assert same_bits(binary_entropy(x), 0.0), x
    assert math.isnan(binary_entropy(math.nan))


def test_binary_entropy_is_the_marginal_entropy_bits():
    # the oracle's S(a) and the bridge's entropy of a bit have the bits
    # of the engine's S(a) and S(b) of the same state
    for p in random_states(np.random.default_rng(5), 5_000):
        sa, sb, _ = entropies(p)
        assert same_bits(binary_entropy((1.0 + p.r) / 2.0), sa), p
        assert same_bits(binary_entropy((1.0 + p.s) / 2.0), sb), p


def binary_entropy_50_digits(mp, x):
    # -x log2 x - (1 - x) log2 (1 - x) for the float x taken as exact
    x = mp.mpf(x)
    if x <= 0 or x >= 1:
        return mp.mpf(0)
    return -(x * mp.log(x, 2) + (1 - x) * mp.log(1 - x, 2))


# Chosen after measuring, u = 2^-53: worst error 1.88e-16 (1.7u) on
# 20,000 uniform x and 1.57e-16 on 4,000 x spread in log scale toward 0
# and 1.  A rough count gives under 3u: each x log2 x term is at most
# 0.531 with about 1.5u of relative error (log2 and the product), 1 - x
# rounds by at most u/2, which moves its term by 1.45 u/2, and the sum
# rounds by u/2.  Bound: 4u
BINARY_ENTROPY_TOL = 4 * 2.0 ** -53


def test_binary_entropy_matches_50_digit_reference(rng):
    mp = pytest.importorskip("mpmath").mp
    xs = [0.0, 5e-324, 1e-300, 2.0 ** -54, 2.0 ** -53, 1e-8, 0.25, 0.5,
          0.75, 1.0 - 1e-8, 1.0 - 2.0 ** -53, 1.0]
    xs += rng.uniform(0.0, 1.0, 2_000).tolist()
    xs += (2.0 ** -rng.uniform(1.0, 60.0, 200)).tolist()
    xs += (1.0 - 2.0 ** -rng.uniform(1.0, 53.0, 200)).tolist()
    with mp.workdps(50):
        for x in xs:
            err = abs(binary_entropy(x) - binary_entropy_50_digits(mp, x))
            assert err <= BINARY_ENTROPY_TOL, (x, err)


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


def test_swapped_is_the_validated_state(families):
    # swapped() skips validation: r <-> s must leave both margins the same
    # floats, and the result equal to the state built through the checks
    for p in families + [BlochX(*t) for t in REGION_EDGE_BLOCH]:
        q = p.swapped()
        built = BlochX(p.s, p.r, p.c1, p.c2, p.c3)
        assert q == built and vars(q) == vars(built), p.as_tuple()
        assert q.margins == p.margins, p.as_tuple()
        assert q.swapped() == p


def test_c_is_derived_on_every_construction_path(families):
    # c = max(|c1|, |c2|) and the two margins on every way a state is
    # made; they are derived, so repr, == and hash read the five
    # coefficients only.  Halving c1 and c2 together only widens both
    # margins.
    for p in families + [BlochX(*t) for t in REGION_EDGE_BLOCH]:
        r, s, c1, c2, c3 = p.as_tuple()
        for q in (p, BlochX(r, s, c1, c2, c3), p.swapped(),
                  dataclasses.replace(p, c1=0.5 * c1, c2=0.5 * c2),
                  pickle.loads(pickle.dumps(p)),
                  XDensityMatrix(bloch_to_matrix(p).matrix).bloch):
            assert q.c == max(abs(q.c1), abs(q.c2)), (p.as_tuple(), q)
            assert q.margins == physicality_margins(*q.as_tuple()), \
                (p.as_tuple(), q)
        assert repr(p) == (f"BlochX(r={r!r}, s={s!r}, c1={c1!r}, "
                           f"c2={c2!r}, c3={c3!r})")
        assert p == BlochX(*p.as_tuple())
        assert hash(p) == hash(p.as_tuple())
    for name in ("c", "margins"):
        with pytest.raises(ValueError):
            dataclasses.replace(p, **{name: 0.0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 0.0)


def test_matrix_is_read_only():
    m = bloch_to_matrix(BlochX(0.1, 0.1, 0.2, 0.1, 0.3))
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 9.9
