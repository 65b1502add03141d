"""Shared helpers for the test suite and the references its checks use.

Everything here recomputes quantities apart from the package,
deliberately bypassing its closed forms, so each check compares two
independent derivations: dense 4x4 matrices through numpy's
general-purpose eigensolver, and F(z) at 50 digits from its defining
sum.  Each reference has this one copy; scripts/ imports it from here.
The state lists and the families fixture only supply inputs.
"""

import math

import numpy as np
import pytest

from xdiscord import BlochX, bloch_to_matrix
from xdiscord.sampling import (random_bell_diagonal, random_case,
                               random_rank_two, random_states)

SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
EYE2 = np.eye(2, dtype=complex)

# worked example: the X-matrix that the regression values below refer to
EX_MATRIX = np.array([
    [0.0783, 0.0000, 0.0000, 0.0000],
    [0.0000, 0.1250, 0.1000, 0.0000],
    [0.0000, 0.1000, 0.1250, 0.0000],
    [0.0000, 0.0000, 0.0000, 0.6717],
])

# (r, s, c1, c2, c3) on the edges of the physical region: |s| = 1,
# |c3| = 1 (rank-2 cases I and II), r = 0, and a product state
BOUNDARY_BLOCH = [
    (0.3, 1.0, 0.0, 0.0, 0.3),
    (0.0, -1.0, 0.0, 0.0, 0.0),
    (0.3, 0.3, 0.4, -0.4, 1.0),
    (0.2, -0.2, 0.5, 0.5, -1.0),
    (0.0, 0.3, 0.4, 0.2, 0.1),
    (0.3, -0.4, 0.0, 0.0, -0.12),
]

# F' of these states came closest to a +-+ or -+- sign pattern (two zeros
# on (0, 1)) in scripts/falsify_router.py seeds 1-3; at 50 digits none has
# the pattern.  F''(0) and F'(1) are within 1e-4 of zero on each, and each
# float score lies within the script's AMBIGUOUS (1e-9) of zero.
FALSIFY_NEAR_ZERO = [
    (-0.83161749954064068, -0.59154974165086371, -0.00097830786902597389,
     0.02117667446353888, 0.48076609462625353),
    (-0.13905057664931764, -0.29335768600060397, 0.014130011432241352,
     -0.0082462914176842927, 0.054217144512624493),
    (-0.11598726466099296, 0.15498898800794869, -0.0067890872099218846,
     0.0040449487295739495, -0.024659736301273827),
    (-0.20074019022041334, -0.97985432046130883, -0.0097433947484042438,
     0.058211716816160886, 0.20829226991870908),
    (-0.13076736450989901, -0.96844948038934775, -0.036288623859984104,
     -0.0034700834666820946, 0.11781527165798122),
    (-0.055027808584801052, 0.93865109522173507, -0.0040811696696604338,
     -0.0040693908358605535, -0.05024817001518278),
]


def _region_edges(d: float) -> list[tuple[float, ...]]:
    # one state per inequality of the region hypotheses a-d, whose left
    # side minus its right side is d (up to rounding), the others held
    c_ab, c_q, c_d = (math.sqrt(x - d) for x in (0.096, 0.16, 0.09))
    r_d = math.sqrt(2.0 / 3.0 - 0.09 + d)
    return [
        (0.3, d, 0.2, 0.1, -0.5),            # a: s >= 0
        (0.3, d, 0.2, 0.1, 0.5),             # a: s = 0; b: s <= 0
        (2.0 * d, 0.2, 0.2, 0.1, 0.5),       # a: r c3 <= 0
        (2.0 * d, -0.2, 0.2, 0.1, 0.5),      # b: r c3 >= 0
        (0.2, 0.1, c_ab, 0.0, -0.3),         # a: q >= s r c3
        (0.2, -0.1, c_ab, 0.0, 0.3),         # b: q >= s r c3
        (0.3, 0.0, c_q, 0.0, 0.4),           # a: q >= 0 at s = 0
        (0.0, 0.2, c_q, 0.0, 0.4),           # c: q >= 0
        (d, 0.0, 0.5, 0.1, -0.2),            # c: r = 0
        (0.0, d, 0.5, 0.1, -0.2),            # c: s = 0
        (0.4, -0.12 + d, 0.3, 0.3, -0.3),    # d: s = r c3
        (0.4, d, 2.5 * d, 2.5 * d, 2.5 * d),  # d: s = r c3, either sign
        (0.4, -0.12, c_d, c_d, -0.3),        # d: q = 0
        (r_d, -0.3 * r_d, 0.3, 0.3, -0.3),   # d: c^2 + r^2 <= 2/3
    ]


# (r, s, c1, c2, c3) at -2, -0.5, 0.5 and 2 times CLASSIFY_TOL (1e-12)
# from each inequality of the region hypotheses: the inner two sit inside
# the classifier's equality band, the outer two outside it
REGION_EDGE_BLOCH = [t for k in (-2.0, -0.5, 0.5, 2.0)
                     for t in _region_edges(k * 1e-12)]


def same_bits(a, b):
    """Equal arrays with equal sign bits, so -0.0 differs from +0.0."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def reference_f(mp, p, z):
    """F(z) at 50 digits from its defining sum, written apart from engine.py:

    F = sum over x = w+- +- H+- of (x/4) log2 x - sum of (w+-/2) log2 w+-,
    with w+- = 1 +- s z and H+- = sqrt(c^2 (1 - z^2) + (r +- c3 z)^2).
    mp is mpmath's context; callers hold it at 50 digits (mp.workdps).
    """
    r, s, c3 = mp.mpf(p.r), mp.mpf(p.s), mp.mpf(p.c3)
    c = max(abs(mp.mpf(p.c1)), abs(mp.mpf(p.c2)))

    def xlog2(x):
        return x * mp.log(x, 2) if x != 0 else mp.mpf(0)

    tot = mp.mpf(0)
    for sign in (1, -1):
        w = 1 + sign * s * z
        h = mp.sqrt(c * c * (1 - z * z) + (r + sign * c3 * z) ** 2)
        tot += (xlog2(w + h) + xlog2(w - h)) / 4 - xlog2(w) / 2
    return tot


def dense_entropy(matrix) -> float:
    """Von Neumann entropy in bits via the dense eigensolver."""
    w = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    return float(-sum(x * math.log2(x) for x in np.clip(w, 0.0, 1.0)
                      if x > 0.0))


def ptrace_a(matrix) -> np.ndarray:
    """Reduced state of qubit b."""
    m = np.asarray(matrix, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abad->bd", m)


def ptrace_b(matrix) -> np.ndarray:
    """Reduced state of qubit a."""
    m = np.asarray(matrix, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", m)


def measured_ensemble(matrix, direction):
    """Outcomes of projecting qubit b along a unit direction.

    One (probability, reduced state of qubit a) pair per outcome, built
    from explicit projectors and partial traces; the state is None when
    the outcome never occurs.  The package's conditional ensembles must
    reproduce these.
    """
    z1, z2, z3 = direction
    b0 = 0.5 * (EYE2 + z1 * SIGMA[0] + z2 * SIGMA[1] + z3 * SIGMA[2])
    m = np.asarray(matrix, dtype=complex)
    out = []
    for proj in (b0, EYE2 - b0):
        pb = np.kron(EYE2, proj)
        sub = pb @ m @ pb
        pk = float(np.trace(sub).real)
        out.append((pk, ptrace_b(sub) / pk if pk > 1e-15 else None))
    return out


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random 2x2 unitary: the Q of a complex Gaussian matrix's QR,
    each column times the phase of R's diagonal entry (Mezzadri 2007)."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2))
                        + 1j * rng.normal(size=(2, 2)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def local_unitary_images() -> list[tuple[np.ndarray, np.ndarray]]:
    """(X-shaped matrix, its image under U_a (x) U_b) pairs, U_a and U_b
    Haar-random: 300 uniform states, then 100 rank-2 states of each of
    cases I to III, seeded."""
    rng = np.random.default_rng(19980)
    states = random_states(rng, 300) + [
        p for case in ("I", "II", "III") for p in random_rank_two(rng, case,
                                                                  100)]
    pairs = []
    for p in states:
        m = bloch_to_matrix(p).matrix
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        pairs.append((m, u @ m @ u.conj().T))
    return pairs


def closed_form_bell_diagonal(c1, c2, c3) -> float:
    """Independent transcription of the Bell-diagonal discord formula."""
    big = max(abs(c1), abs(c2), abs(c3))

    def xl(t):
        return t * math.log2(t) if t > 0.0 else 0.0

    return (0.25 * (xl(1 - c3 + c1 + c2) + xl(1 - c3 - c1 - c2)
                    + xl(1 + c3 + c1 - c2) + xl(1 + c3 - c1 + c2))
            - 0.5 * (xl(1 + big) + xl(1 - big)))


@pytest.fixture
def ex_matrix() -> np.ndarray:
    return EX_MATRIX.copy()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)


@pytest.fixture
def families(rng) -> list[BlochX]:
    """Seeded uniform, region a-d, Bell-diagonal and rank-2 I-III states,
    each followed by its swap, then the boundary states."""
    drawn = random_states(rng, 300) + random_bell_diagonal(rng, 40)
    for case in "abcd":
        drawn += random_case(rng, case, 40)
    for case in ("I", "II", "III"):
        drawn += random_rank_two(rng, case, 40)
    return ([q for p in drawn for q in (p, p.swapped())]
            + [BlochX(*t) for t in BOUNDARY_BLOCH])
