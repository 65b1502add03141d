"""Concurrence, rank-2 decompositions, and the purification identity."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import dense_entropy, ptrace_a
from xdiscord import (BlochX, RankError, binary_entropy, bloch_to_matrix,
                      concurrence, discord, koashi_winter, matrix_to_bloch,
                      mu_spectrum, purification_marginal_ab,
                      rank_two_classify)
from xdiscord.entanglement import (eof_from_concurrence, mu_spectrum_closed,
                                   spin_flip)
from xdiscord.sampling import random_rank_two, random_states

# deterministic case-III example: rank-2 by construction, |c1| >= |c2|
CASE_III = BlochX(0.675026234717949, 0.24278439002343719,
                  0.7231190062657733, -0.04994221841945595, 0.2)


def test_spin_flip_is_an_involution(rng):
    for p in random_states(rng, 30):
        m = bloch_to_matrix(p).matrix
        np.testing.assert_allclose(spin_flip(spin_flip(m)), m, atol=1e-15)


def test_mu_spectrum_routes_agree(rng):
    for p in random_states(rng, 300):
        m = bloch_to_matrix(p)
        np.testing.assert_allclose(mu_spectrum(m), mu_spectrum_closed(m),
                                   atol=1e-10)
        concurrence(m)  # the internal cross-check must not raise


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
        # the complementary state is X-shaped too, so both concurrence
        # routes stay active on it
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
        mu = mu_spectrum(decomp.rho_bc)
        np.testing.assert_allclose(mu, mu_spectrum_closed(decomp.rho_bc),
                                   atol=1e-10)
        assert mu[1] == pytest.approx(mu2, rel=1e-4)
    assert koashi_winter(m).residual < 1e-8


def test_complex_corners_decompose_in_the_real_gauge(rng):
    # corner phases are a local unitary: the bridge works on the state in
    # matrix_to_bloch's gauge, whose spectrum is the input's
    for case in ("I", "II", "III"):
        for p in random_rank_two(rng, case, 15):
            for q in (p, p.swapped()):
                m = bloch_to_matrix(q).matrix.copy()
                a, b = np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
                m[0, 3] *= a
                m[3, 0] *= a.conjugate()
                m[1, 2] *= b
                m[2, 1] *= b.conjugate()
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
    # the bridge's concurrence path on the regression states; worst error
    # seen: 2.1e-16 absolute (322/46), 3.5e-16 relative on 408/95's mu[1]
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        for name, (bloch, mu2) in BRIDGE_REGRESSIONS.items():
            rho_bc = rank_two_classify(bloch_to_matrix(BlochX(*bloch))).rho_bc
            assert not np.iscomplexobj(rho_bc)
            mu = mu_spectrum(rho_bc)
            ref = _mu_spectrum_50_digits(mp, rho_bc)
            for got, want in zip(mu, ref):
                assert abs(got - want) <= 1e-15, (name, got, want)
            if mu2 is not None:
                assert abs(mu[1] - ref[1]) <= 1e-14 * ref[1], name
