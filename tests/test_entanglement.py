"""Concurrence, rank-2 decompositions, and the purification identity."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from conftest import (BOUNDARY_BLOCH, NEAR_CLASSICAL_BLOCH, closed_form_mu,
                      dense_entropy, local_unitary_images, ptrace_a,
                      same_bits)
from xdiscord import (BlochX, PhysicalityError, RankError, XDensityMatrix,
                      binary_entropy, bloch_to_matrix, concurrence, discord,
                      koashi_winter, matrix_to_bloch,
                      purification_marginal_ab, rank_two_classify)
from xdiscord import entanglement, states
from xdiscord.entanglement import _as_array, _mu, eof_from_concurrence
from xdiscord.sampling import random_rank_two, random_states

# deterministic case-III example: rank-2 by construction, |c1| >= |c2|
CASE_III = BlochX(0.675026234717949, 0.24278439002343719,
                  0.7231190062657733, -0.04994221841945595, 0.2)


# sigma_y (x) sigma_y kept real, as in the textbook formula
SYY_REAL = np.array([[0.0, 0.0, 0.0, -1.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0],
                     [-1.0, 0.0, 0.0, 0.0]])


@pytest.mark.parametrize("shape", [(3, 3), (2, 2), (2, 4, 4), (4,), (16,)],
                         ids=lambda s: "x".join(map(str, s)))
def test_matrix_helpers_reject_wrong_shapes(shape):
    with pytest.raises(ValueError,
                       match=r"4x4 matrix, got shape " + re.escape(
                           str(shape))):
        concurrence(np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 0.0),
                                   complex(0.1, np.nan)],
                         ids=["nan", "inf", "complex-nan", "nan-imaginary"])
def test_matrix_helpers_reject_non_finite_entries(value):
    # eigh failed on these with a RuntimeWarning and LinAlgError
    for where in ((0, 0), (0, 1), (1, 2)):
        m = bloch_to_matrix(CASE_III).matrix.copy()
        m[where] = value
        with pytest.raises(PhysicalityError,
                           match="^matrix has a non-finite entry$"):
            concurrence(m)


def test_public_matrix_calls_read_their_input_once(monkeypatch):
    # concurrence reads a raw array once and an XDensityMatrix not at
    # all (its constructor read it), and koashi_winter reads no matrix:
    # its concurrence comes from the purification
    reads = []
    entries = entanglement._entries

    def counted(m):
        reads.append(m)
        return entries(m)
    monkeypatch.setattr(entanglement, "_entries", counted)
    xm = bloch_to_matrix(CASE_III)
    for m, count in ((xm, 0), (xm.matrix, 1)):
        reads.clear()
        concurrence(m)
        assert len(reads) == count
    reads.clear()
    koashi_winter(xm)
    assert reads == []


def test_concurrence_general_route_is_local_unitary_invariant():
    # U_a (x) U_b moves entries off the X and makes them complex, so
    # tau = Phi^T (sy x sy) Phi differs from Phi^dagger (sy x sy) Phi
    # here, unlike on the real X-shaped original
    off_x = np.ones((4, 4), dtype=bool)
    off_x[[0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 2, 3, 3, 2, 1, 0]] = False
    for m, image in local_unitary_images():
        assert np.abs(image[off_x]).max() > 1e-14
        assert abs(concurrence(image) - concurrence(m)) <= 1e-12, m


def test_mu_spectrum_routes_agree(rng):
    # _mu against the X closed form on uniform states, rank-2 states of
    # each case with their swaps, and the boundary and near-classical ones
    picked = random_states(rng, 300) + [
        q for case in ("I", "II", "III")
        for p in random_rank_two(rng, case, 40) for q in (p, p.swapped())]
    picked += [BlochX(*t) for t in BOUNDARY_BLOCH + NEAR_CLASSICAL_BLOCH]
    for p in picked:
        m = bloch_to_matrix(p)
        np.testing.assert_allclose(_mu(_as_array(m)), closed_form_mu(m.matrix),
                                   atol=1e-10, err_msg=repr(p))


def test_concurrence_of_known_states():
    bell = bloch_to_matrix(BlochX(0.0, 0.0, 1.0, -1.0, 1.0))
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert eof_from_concurrence(concurrence(bell)) == pytest.approx(
        1.0, abs=1e-12)
    product = bloch_to_matrix(BlochX(0.4, -0.3, 0.0, 0.0, -0.12))
    assert concurrence(product) == 0.0
    assert eof_from_concurrence(concurrence(product)) == 0.0


def test_concurrence_of_werner_family():
    # (3a - 1)/2 above the separability threshold a = 1/3, zero below
    for a, expect in ((0.2, 0.0), (1.0 / 3.0, 0.0), (0.6, 0.4), (1.0, 1.0)):
        m = bloch_to_matrix(BlochX(0.0, 0.0, -a, -a, -a))
        assert concurrence(m) == pytest.approx(expect, abs=1e-12)


def test_eof_from_concurrence_shape():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-15)
    grid = np.linspace(0.0, 1.0, 21)
    vals = [eof_from_concurrence(c) for c in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert eof_from_concurrence(0.5) == pytest.approx(
        binary_entropy(0.5 * (1.0 + math.sqrt(0.75))), abs=1e-15)
    # a nan concurrence is no evidence of zero entanglement
    assert math.isnan(eof_from_concurrence(math.nan))


def test_rank_two_case_i():
    k = math.hypot(0.3, 0.2)
    m = bloch_to_matrix(BlochX(0.3, 0.3, 0.2, -0.2, 1.0))
    decomp = rank_two_classify(m)
    assert decomp.case == "I"
    np.testing.assert_allclose(decomp.weights,
                               [(1.0 + k) / 2.0, (1.0 - k) / 2.0],
                               atol=1e-12)
    # support stays inside the outer block
    np.testing.assert_allclose(decomp.vectors[:, 1:3], 0.0, atol=1e-15)
    for w, v in zip(decomp.weights, decomp.vectors):
        assert np.abs(m.matrix @ v - w * v).max() < 1e-12
    np.testing.assert_allclose(purification_marginal_ab(decomp), m.matrix,
                               atol=1e-12)


def test_rank_two_case_ii():
    m = bloch_to_matrix(BlochX(0.3, -0.3, 0.2, 0.2, -1.0))
    decomp = rank_two_classify(m)
    assert decomp.case == "II"
    np.testing.assert_allclose(decomp.vectors[:, [0, 3]], 0.0, atol=1e-15)
    for w, v in zip(decomp.weights, decomp.vectors):
        assert np.abs(m.matrix @ v - w * v).max() < 1e-12
    np.testing.assert_allclose(purification_marginal_ab(decomp), m.matrix,
                               atol=1e-12)


def test_decomposition_arrays_are_read_only():
    # local phases make a corner complex, so the decomposition describes
    # the gauged matrix; no write through its arrays can change that
    u = np.kron(np.diag([1.0, np.exp(0.7j)]), np.eye(2))
    xm = XDensityMatrix(u @ bloch_to_matrix(CASE_III).matrix @ u.conj().T)
    decomp = rank_two_classify(xm)
    for arr in (decomp.vectors, decomp.purification, decomp.rho_bc):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    np.testing.assert_allclose(purification_marginal_ab(decomp), xm.gauged,
                               rtol=0.0, atol=1e-12)


def test_rank_two_case_iii():
    m = bloch_to_matrix(CASE_III)
    decomp = rank_two_classify(m)
    assert decomp.case == "III"
    np.testing.assert_allclose(
        decomp.weights, [(1.0 + CASE_III.c3) / 2.0,
                         (1.0 - CASE_III.c3) / 2.0], atol=1e-14)
    for w, v in zip(decomp.weights, decomp.vectors):
        assert np.abs(m.matrix @ v - w * v).max() < 1e-12
    np.testing.assert_allclose(purification_marginal_ab(decomp), m.matrix,
                               atol=1e-12)


def test_purification_is_normalized(rng):
    for case in ("I", "II", "III"):
        for p in random_rank_two(rng, case, 10):
            decomp = rank_two_classify(bloch_to_matrix(p))
            assert decomp.case == case
            assert np.sum(decomp.purification ** 2) == pytest.approx(
                1.0, abs=1e-12)


def test_complementary_marginal_is_a_state(rng):
    for p in random_rank_two(rng, "III", 20):
        decomp = rank_two_classify(bloch_to_matrix(p))
        bc = decomp.rho_bc
        assert np.trace(bc) == pytest.approx(1.0, abs=1e-12)
        assert float(np.min(np.linalg.eigvalsh(bc))) > -1e-12
        # the complementary state is X-shaped too, so the closed form
        # of its lambda_i applies
        mask = np.ones((4, 4), dtype=bool)
        mask[np.arange(4), np.arange(4)] = False
        mask[0, 3] = mask[3, 0] = mask[1, 2] = mask[2, 1] = False
        assert np.abs(bc[mask]).max() < 1e-14
        concurrence(bc)


def test_rank_errors():
    with pytest.raises(RankError):
        rank_two_classify(bloch_to_matrix(BlochX(0.0, 0.0, -0.5, -0.5, -0.5)))
    with pytest.raises(RankError):
        rank_two_classify(bloch_to_matrix(BlochX(0.0, 0.0, 1.0, -1.0, 1.0)))


def array_block(m, i, j):
    # _block on the gauged numpy array, in numpy scalars and vectors
    tr = m[i, i] + m[j, j]
    if tr == 0.0:
        return [(0.0, np.zeros(4))] * 2
    t, u = (m[i, i] - m[j, j]) / tr, 2.0 * m[i, j] / tr
    k = math.hypot(t, u)
    a = 0.5 * math.atan2(u, t)
    v0, v1 = np.zeros(4), np.zeros(4)
    v0[i], v0[j] = math.cos(a), math.sin(a)
    v1[i], v1[j] = -math.sin(a), math.cos(a)
    return [(tr * (0.5 * (1.0 + k)), v0), (tr * (0.5 * (1.0 - k)), v1)]


def test_rank_two_classify_matches_array_form_bits(rng):
    # the decomposition runs on Python floats; each pair it keeps, its
    # purification and rho_bc have the bits of the numpy array form
    states = [q for case in ("I", "II", "III")
              for p in random_rank_two(rng, case, 30)
              for q in (p, p.swapped())]
    for p in states:
        xm = bloch_to_matrix(p)
        d = rank_two_classify(xm)
        pairs = array_block(xm.gauged, 0, 3) + array_block(xm.gauged, 1, 2)
        psi = np.zeros((2, 2, 2))
        for k, (w, v) in enumerate(zip(d.weights, d.vectors)):
            assert any(w == float(w_ref) and same_bits(v, v_ref)
                       for w_ref, v_ref in pairs), p
            psi[:, :, k] = math.sqrt(max(w, 0.0)) * v.reshape(2, 2)
        assert same_bits(d.purification, psi), p
        assert same_bits(d.rho_bc, np.einsum("abc,ade->bcde", psi,
                                             psi).reshape(4, 4)), p


def test_rank_two_classify_checks_its_residual(monkeypatch):
    block = entanglement._block

    def heavier(m, i, j):
        (w0, v0), pair = block(m, i, j)
        return [(w0 * (1.0 + 1e-6), v0), pair]
    monkeypatch.setattr(entanglement, "_block", heavier)
    with pytest.raises(RuntimeError, match="decomposition residual"):
        rank_two_classify(bloch_to_matrix(CASE_III))


def test_barely_rank_three_warns_but_proceeds():
    p = BlochX(0.3, 0.3, 0.2, -0.2, 1.0 - 2e-8)
    m = bloch_to_matrix(p)
    with pytest.warns(RuntimeWarning):
        decomp = rank_two_classify(m)
    assert decomp.case == "I"
    assert np.abs(purification_marginal_ab(decomp) - m.matrix).max() < 1e-7


def test_koashi_winter_on_worked_cases():
    rep1 = koashi_winter(bloch_to_matrix(BlochX(0.3, 0.3, 0.2, -0.2, 1.0)))
    assert rep1.case == "I"
    assert rep1.residual < 1e-12
    assert rep1.eof_bc == 0.0
    assert rep1.z_star_swapped == 1.0
    assert rep1.classical_correlation_a == pytest.approx(
        rep1.marginal_entropy_b, abs=1e-12)

    rep2 = koashi_winter(bloch_to_matrix(BlochX(0.3, -0.3, 0.2, 0.2, -1.0)))
    assert rep2.case == "II"
    assert rep2.residual < 1e-12
    assert rep2.eof_bc == 0.0
    assert rep2.z_star_swapped == 1.0

    rep3 = koashi_winter(bloch_to_matrix(CASE_III))
    assert rep3.case == "III"
    assert rep3.residual < 1e-10
    assert rep3.eof_bc > 0.01


def test_koashi_winter_identity_sampled(rng):
    for case in ("I", "II", "III"):
        for p in random_rank_two(rng, case, 25):
            rep = koashi_winter(bloch_to_matrix(p))
            assert rep.case == case
            assert rep.residual < 1e-10
            assert rep.marginal_entropy_b == pytest.approx(
                binary_entropy((1.0 + p.s) / 2.0), abs=1e-15)
            if case in ("I", "II"):
                assert rep.eof_bc == 0.0
                assert rep.z_star_swapped == 1.0


def test_koashi_winter_against_dense_marginal(rng):
    # S(rho_b) recomputed from the dense partial trace
    for p in random_rank_two(rng, "III", 10):
        m = bloch_to_matrix(p)
        rep = koashi_winter(m)
        assert rep.marginal_entropy_b == pytest.approx(
            dense_entropy(ptrace_a(m.matrix)), abs=1e-10)


def test_case_iii_concurrence_closed_forms(rng):
    for p in random_rank_two(rng, "III", 60):
        rep = koashi_winter(bloch_to_matrix(p))
        r, s, c1, c2, c3 = p.as_tuple()
        general = 1.0 - s * s - max(c1 * c1, c2 * c2)
        assert rep.concurrence_bc ** 2 == pytest.approx(general, abs=1e-10)
        # with the corners ordered |c1| >= |c2| (the sampler's default
        # normal form) the quadratic identity takes its simplest shape
        assert abs(c1) >= abs(c2)
        pinned = 0.5 * (1.0 + r * r - s * s - c3 * c3 - c1 * c1 + c2 * c2)
        assert rep.concurrence_bc ** 2 == pytest.approx(pinned, abs=1e-10)


def test_case_iii_quadratic_form_requires_ordered_corners():
    # swapping the corners is a local unitary on the input state, but it
    # moves the complementary state: the simple quadratic form tracks
    # max(|c1|, |c2|) and only matches when |c1| >= |c2|
    swapped = BlochX(CASE_III.r, CASE_III.s, CASE_III.c2, CASE_III.c1,
                     CASE_III.c3)
    rep = koashi_winter(bloch_to_matrix(swapped))
    assert rep.residual < 1e-10
    r, s, c1, c2, c3 = swapped.as_tuple()
    general = 1.0 - s * s - max(c1 * c1, c2 * c2)
    assert rep.concurrence_bc ** 2 == pytest.approx(general, abs=1e-10)
    naive = 0.5 * (1.0 + r * r - s * s - c3 * c3 - c1 * c1 + c2 * c2)
    assert abs(rep.concurrence_bc ** 2 - naive) > 1e-3


def test_koashi_winter_ca_matches_swapped_engine(rng):
    for p in random_rank_two(rng, "III", 10):
        rep = koashi_winter(bloch_to_matrix(p))
        assert rep.classical_correlation_a == pytest.approx(
            discord(p.swapped()).classical_correlation, abs=1e-12)


# Certify-workload states (seed/index) that broke the bridge at rounding
# level: 408/95 is case III with an outer block of rank 1 in rho_bc, whose
# small mu must survive; the others are case I/II with |c1| tiny, where
# the block eigenvectors must stay accurate.
BRIDGE_REGRESSIONS = {
    "408/95": ((-0.995857864863547, 0.7086880604984267, -0.08412905058441578,
                -0.08412809608424501, -0.7128301956332934), 5.7318e-8),
    "12/90": ((0.7564986752664902, 0.7564986752664902, 0.0001616125711523253,
               -0.0001616125711523253, 1.0), None),
    "95/15": ((-0.46167390971168415, -0.46167390971168415,
               -4.192431948213393e-05, 4.192431948213393e-05, 1.0), None),
    "322/46": ((-0.11586322552631922, 0.11586322552631922,
                -1.0433202495163663e-05, -1.0433202495163663e-05, -1.0),
               None),
    "463/63": ((-0.9171267611687353, -0.9171267611687353,
                1.1056790438890296e-05, -1.1056790438890296e-05, 1.0), None),
}


@pytest.mark.parametrize("name", list(BRIDGE_REGRESSIONS))
def test_bridge_regressions(name):
    bloch, mu2 = BRIDGE_REGRESSIONS[name]
    m = bloch_to_matrix(BlochX(*bloch))
    decomp = rank_two_classify(m)
    for w, v in zip(decomp.weights, decomp.vectors):
        assert np.abs(m.matrix @ v - w * v).max() < 1e-12
    np.testing.assert_allclose(purification_marginal_ab(decomp), m.matrix,
                               atol=1e-12)
    if mu2 is not None:
        mu = _mu(_as_array(decomp.rho_bc))
        np.testing.assert_allclose(mu, closed_form_mu(decomp.rho_bc),
                                   atol=1e-10)
        assert mu[1] == pytest.approx(mu2, rel=1e-4)
    assert koashi_winter(m).residual < 1e-8


def with_random_corner_phases(rng, p):
    # the matrix of p with both corners turned by random phases
    m = bloch_to_matrix(p).matrix.astype(complex)
    a, b = np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
    m[0, 3] *= a
    m[3, 0] *= a.conjugate()
    m[1, 2] *= b
    m[2, 1] *= b.conjugate()
    return m


def test_complex_corners_decompose_in_the_real_gauge(rng):
    # corner phases are a local unitary: the bridge works on the state in
    # matrix_to_bloch's gauge, whose spectrum is the input's
    for case in ("I", "II", "III"):
        for p in random_rank_two(rng, case, 15):
            for q in (p, p.swapped()):
                m = with_random_corner_phases(rng, q)
                gauged = bloch_to_matrix(matrix_to_bloch(m)).matrix
                decomp = rank_two_classify(m)
                assert decomp.case == case
                np.testing.assert_allclose(
                    sorted(decomp.weights),
                    np.linalg.eigvalsh(m)[2:], rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(purification_marginal_ab(decomp),
                                           gauged, rtol=0.0, atol=1e-12)
                rep, ref = koashi_winter(m), koashi_winter(gauged)
                assert rep.case == ref.case
                for f in dataclasses.fields(rep)[1:]:
                    np.testing.assert_allclose(
                        getattr(rep, f.name), getattr(ref, f.name),
                        rtol=0.0, atol=1e-12, err_msg=f.name)


def test_matrix_paths_read_the_corners_once(monkeypatch):
    calls = []
    corner = states._corner
    monkeypatch.setattr(states, "_corner",
                        lambda c: calls.append(c) or corner(c))
    xm = bloch_to_matrix(CASE_III)
    assert len(calls) == 2
    for call in (matrix_to_bloch, rank_two_classify, koashi_winter):
        calls.clear()
        call(xm)
        assert calls == [], call.__name__


def test_records_holding_arrays_compare_by_identity():
    for make in (bloch_to_matrix,
                 lambda p: rank_two_classify(bloch_to_matrix(p))):
        a, b = make(CASE_III), make(CASE_III)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def rank_two_inputs(rng, n):
    # n sampled states of each case and their swaps, the regression
    # states, and each of the sampled states with complex corners, as
    # (case, matrix) pairs
    picked = [(case, q) for case in ("I", "II", "III")
              for p in random_rank_two(rng, case, n)
              for q in (p, p.swapped())]
    out = [(case, bloch_to_matrix(q).matrix) for case, q in picked]
    out += [(rank_two_classify(m).case, m) for m in
            (bloch_to_matrix(BlochX(*bloch))
             for bloch, _ in BRIDGE_REGRESSIONS.values())]
    out += [(case, with_random_corner_phases(rng, q)) for case, q in picked]
    return out


def real_purifications(rng, n):
    # n normalised Gaussian real (2, 2, 2) tensors.  An X-state's
    # purification gives tau with b = 0 (case III) or a = d = 0 (cases I
    # and II), so only these reach every term of the tau route
    psi = rng.normal(size=(n, 2, 2, 2))
    return list(psi / np.sqrt(np.sum(psi ** 2, axis=(1, 2, 3),
                                     keepdims=True)))


def marginal_bc(psi):
    return np.einsum("abc,ade->bcde", psi, psi).reshape(4, 4)


def rows_of(psi):
    # the purification rows phi_0, phi_1 over (b, c), as lists of floats
    return [psi[a].ravel().tolist() for a in range(2)]


def _tau_concurrence_50_digits(mp, psi):
    # Wootters' lambda_i as the |eigenvalues| of tau = Phi^T (sy x sy) Phi,
    # Phi the 4 x 2 matrix of the float purification psi taken as exact
    phi = mp.matrix([psi[a].ravel().tolist() for a in range(2)]).T
    e, _ = mp.eigsy(phi.T * mp.matrix(SYY_REAL.tolist()) * phi)
    lam = sorted((abs(x) for x in e), reverse=True)
    return max(lam[0] - lam[1], 0)


# Derived bound on the tau route's rounding, u = 2^-53.  Each tau entry
# sums four products in three roundings, so it is off by at most
# 3u |u| |v| (Cauchy-Schwarz pairs the products), and
# |phi_0|^2 + |phi_1|^2 = 1: |a + d| moves by 3u plus u for its sum, and
# hypot(a - d, 2b) by 3 sqrt(2) u plus u for a - d and one ulp (2u, as
# the gap is at most 2) for hypot; min moves by the larger, under 7.3u.
# Worst seen: 1.1e-16 on 600 rank-2 states (seed 11) and 1.6e-16 on
# 3,000 Gaussian purifications (seed 7)
TAU_ROUTE_TOL = 8 * 2.0 ** -53

# Measured, not derived: concurrence (the singular values of the 4x4
# tau of one eigh's factor) is off by up to 2.9e-13 on rho_bc of 12,000
# sampled rank-2 states (seed 5, 4,000 per case), each also swapped, all
# of it on case-III states with |c1| close to |c2| (cases I and II: at
# most 3.1e-16), and by up to 9.2e-14 on 3,000 Gaussian purifications
# (seed 7)
GENERAL_ROUTE_TOL = 1e-12

# a case-III state with |c1| close to |c2|: the tau route is within
# 1.5e-16 of 50 digits here and on its swap
NEAR_TIE_III = BlochX(0.46658015936635566, 0.7374797943040758,
                      0.37425447960078567, 0.3741664848458211,
                      0.2040599568858349)

# the worst of the seed-5 states for the tau route, case III with |c1|
# close to |c2|: mu[1] and mu[2] are off by 1.46e-13 each and C by
# 2.93e-13, and by 3.6e-14 and 7.3e-14 on its swap
WORST_TAU_III = BlochX(-0.41103768868616886, 0.8771978198774921,
                       0.2692502482068527, -0.26861888375255305,
                       -0.28823566327956807)


def _mu_spectrum_50_digits(mp, rho):
    # singular values of sqrt(rho) sqrt(rho-tilde) for the float matrix
    # rho taken as exact, descending
    def sqrtm(a):
        e, q = mp.eigsy(a)
        return q * mp.diag([mp.sqrt(max(x, 0)) for x in e]) * q.T

    a = mp.matrix(np.real(rho).tolist())
    syy = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0],
                     [-1, 0, 0, 0]])
    s = mp.svd_r(sqrtm(a) * sqrtm(syy * a * syy), compute_uv=False)
    return sorted((s[i] for i in range(4)), reverse=True)


def test_mu_spectrum_matches_50_digit_reference():
    # _mu, which concurrence runs, on rho_bc.  Worst seen on the
    # regression states and on NEAR_TIE_III and its swap: 9.6e-17
    # absolute (322/46's mu[0] and mu[1]), 2.1e-16 relative on 408/95's
    # mu[1], and C within 1.5e-16; each mu and C is held to 1e-15 there.
    # On WORST_TAU_III and its swap mu[1], mu[2] and C are held to
    # GENERAL_ROUTE_TOL, the route's bound measured on 24,000 matrices
    mp = pytest.importorskip("mpmath").mp
    worst = ("worst", "worst swapped")
    named = {**BRIDGE_REGRESSIONS,
             "near-tie": (NEAR_TIE_III.as_tuple(), None),
             "near-tie swapped": (NEAR_TIE_III.swapped().as_tuple(), None),
             "worst": (WORST_TAU_III.as_tuple(), None),
             "worst swapped": (WORST_TAU_III.swapped().as_tuple(), None)}
    with mp.workdps(50):
        for name, (bloch, mu2) in named.items():
            rho_bc = rank_two_classify(bloch_to_matrix(BlochX(*bloch))).rho_bc
            assert not np.iscomplexobj(rho_bc)
            mu = _mu(_as_array(rho_bc))
            ref = _mu_spectrum_50_digits(mp, rho_bc)
            tol = [1e-15] * 5           # mu[0] to mu[3], then C
            if name in worst:
                tol[1] = tol[2] = tol[4] = GENERAL_ROUTE_TOL
            con = max(ref[0] - ref[1] - ref[2] - ref[3], 0)
            got = [*mu, concurrence(rho_bc)]
            for g, want, bound in zip(got, [*ref, con], tol):
                assert abs(g - want) <= bound, (name, g, want)
            if mu2 is not None:
                assert abs(mu[1] - ref[1]) <= 1e-14 * ref[1], name


def test_kw_concurrence_matches_50_digit_tau(rng):
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        for case, m in rank_two_inputs(rng, 20):
            psi = rank_two_classify(m).purification
            want = _tau_concurrence_50_digits(mp, psi)
            got = koashi_winter(m).concurrence_bc
            assert abs(mp.mpf(got) - want) <= TAU_ROUTE_TOL, (case, m)
        for psi in real_purifications(rng, 200):
            want = _tau_concurrence_50_digits(mp, psi)
            got = entanglement._con_from_purification(*rows_of(psi))
            assert abs(mp.mpf(got) - want) <= TAU_ROUTE_TOL, psi


def test_kw_concurrence_matches_general_route(rng):
    near_tie = [("III", bloch_to_matrix(q).matrix)
                for q in (NEAR_TIE_III, NEAR_TIE_III.swapped())]
    for case, m in near_tie + rank_two_inputs(rng, 60):
        rho_bc = rank_two_classify(m).rho_bc
        assert abs(koashi_winter(m).concurrence_bc
                   - concurrence(rho_bc)) <= GENERAL_ROUTE_TOL, (case, m)
    for psi in real_purifications(rng, 300):
        assert abs(entanglement._con_from_purification(*rows_of(psi))
                   - concurrence(marginal_bc(psi))) <= GENERAL_ROUTE_TOL, psi


def test_kw_concurrence_is_exactly_zero_in_cases_i_and_ii(rng):
    # each row of the purification lies in one half of the (b, c) basis,
    # where tau(u, u) = 0 exactly; concurrence(rho_bc) leaves rounding
    # noise there, up to 3.3e-16 on 4,000 sampled case I/II states and
    # their swaps (seed 1)
    ladder = [BlochX(0.3, 0.3, 0.2, -0.2, 1.0 - eps)
              for eps in (1e-10, 2e-9, 2e-8)]
    ladder += [BlochX(0.3, -0.3, 0.2, 0.2, -1.0 + eps) for eps in (1e-10,
                                                                    2e-8)]
    inputs = rank_two_inputs(rng, 60)
    inputs += [(None, bloch_to_matrix(p).matrix) for p in ladder]
    seen = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _, m in inputs:
            rep = koashi_winter(m)
            if rep.case in ("I", "II"):
                assert rep.concurrence_bc == 0.0, m
                assert rep.eof_bc == 0.0, m
                seen += 1
    # 120 sampled I/II states with swaps, each also with complex corners,
    # four of the regression states, and the ladder
    assert seen == 2 * 2 * 120 + 4 + len(ladder)


def test_koashi_winter_runs_no_eigh_or_svd(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("4x4 linear algebra on the bridge path")
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for case, m in rank_two_inputs(rng, 2):
        assert koashi_winter(m).case == case
    # the patch reaches concurrence's eigh and svd, so it would catch a
    # call
    with pytest.raises(AssertionError, match="4x4 linear algebra"):
        concurrence(bloch_to_matrix(CASE_III))


def test_koashi_winter_builds_no_decomposition_or_einsum(rng, monkeypatch):
    # the bridge takes the purification rows as Python floats from the
    # step rank_two_classify shares; their concurrence has the bits of the
    # one from rank_two_classify's purification array
    inputs = rank_two_inputs(rng, 2)
    want = [entanglement._con_from_purification(
        *rows_of(rank_two_classify(m).purification)) for _, m in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("array built on the bridge path")
    monkeypatch.setattr(entanglement, "RankTwoDecomposition", refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    assert {case for case, _ in inputs} == {"I", "II", "III"}
    for (case, m), con in zip(inputs, want):
        rep = koashi_winter(m)
        assert rep.case == case
        assert same_bits(rep.concurrence_bc, con), (case, m)
    # the patches reach rank_two_classify, so they would catch a call
    with pytest.raises(AssertionError, match="array built"):
        rank_two_classify(bloch_to_matrix(CASE_III))


def test_koashi_winter_runs_no_numpy_log2(monkeypatch):
    # every entropy on the bridge is a float: S(b), the swapped state's
    # discord and the entanglement of formation's binary entropy
    inputs = [(case, bloch_to_matrix(p).matrix) for case in ("I", "II", "III")
              for p in random_rank_two(np.random.default_rng(3), case, 3)]
    inputs.append(("III", bloch_to_matrix(NEAR_TIE_III).matrix))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy log2 on the bridge path")
    monkeypatch.setattr(np, "log2", refuse)
    for case, m in inputs:
        rep = koashi_winter(m)
        assert rep.case == case
        assert rep.residual < 1e-10, (case, m)
    # the patch reaches states, so it would catch a call
    with pytest.raises(AssertionError, match="numpy log2"):
        states.xlog2(0.5)


def matrix_with(diagonal, **entries):
    # a real 4x4 matrix with the given diagonal and entries "ij" set
    m = np.diag(diagonal).astype(float)
    for key, value in entries.items():
        m[int(key[1]), int(key[2])] = value
    return m


@pytest.mark.parametrize("m, message", [
    # eigh reads one triangle, so this read as the identity over 4
    (matrix_with([0.25] * 4, e01=0.2), "^matrix is not hermitian$"),
    # the square roots clamped these negative eigenvalues to 0
    (matrix_with([0.7, 0.5, -0.1, -0.1]), r"eigenvalue -1\.000e-01 < 0"),
    (matrix_with([0.25] * 4, e01=0.3, e10=0.3),
     r"eigenvalue -5\.000e-02 < 0"),
], ids=["not-hermitian", "negative-diagonal", "negative-eigenvalue"])
def test_concurrence_rejects_non_states(m, message):
    with pytest.raises(PhysicalityError, match=message):
        concurrence(m)


def test_concurrence_accepts_what_xdensitymatrix_accepts():
    # a block margin of -0.99 PHYS_TOL, which BlochX accepts, puts two
    # eigenvalues at -0.2475 PHYS_TOL; a stray entry of HERM_TOL passes
    # XDensityMatrix; and rho_bc has trace w0 + w1, which concurrence does
    # not check
    tol = states.PHYS_TOL
    for p in (BlochX(0.3, 0.3, 0.2, -0.2, 1.0 + 0.99 * tol),
              BlochX(0.3, -0.3, 0.2, 0.2, -1.0 - 0.99 * tol)):
        xm = bloch_to_matrix(p)
        assert np.linalg.eigvalsh(xm.matrix)[0] < -0.24 * tol
        assert concurrence(xm) == concurrence(xm.matrix) >= 0.0
    # rank 2, both margins 0 to rounding
    stray = bloch_to_matrix(BlochX(
        -0.8017944489737832, -0.5411521030904474, 0.5536546967347962,
        -0.5517114908874239, 0.7393504104807881)).matrix.copy()
    stray[0, 1] = stray[1, 0] = states.HERM_TOL
    assert 0.0 < concurrence(stray) == concurrence(XDensityMatrix(stray))
    assert concurrence(stray) <= 1.0
    edge = BlochX(0.3, 0.3, 0.5, -0.5, 1.0 - 4e-8)
    with pytest.warns(RuntimeWarning, match="barely zero"):
        rho_bc = rank_two_classify(bloch_to_matrix(edge)).rho_bc
    assert abs(np.trace(rho_bc) - (1.0 - 2.0e-8)) < 1e-15
    assert concurrence(rho_bc) >= 0.0
