"""Concurrence, entanglement of formation, and the rank-2 bridge.

For rank-2 X-states a purification with a single ancilla qubit c exists;
tracing out qubit a then relates the classical correlation of the input
(measured on a) to the entanglement of formation of the (b, c) pair:

    C_a(rho_ab) + E(rho_bc) = S(rho_b)

which this module checks end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import discord
from .states import (PHYS_TOL, PhysicalityError, XDensityMatrix, _as_x,
                     _check_hermitian, _entries, _snap, _stray,
                     binary_entropy, entropies)

RANK_TOL = 1e-10        # eigenvalues below this count as zero
NEAR_RANK_BAND = 1e-6   # third eigenvalue in (RANK_TOL, this) warns
ROUTE_TOL = 1e-10       # allowed gap between the two concurrence routes

# sigma_y (x) sigma_y, the anti-diagonal (-1, 1, 1, -1): real entries,
# stored complex so _spin_flip casts none
_SYY = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1].astype(complex)


class RankError(ValueError):
    """State does not have the rank required by the decomposition."""


def _as_array(matrix) -> np.ndarray:
    # the one read of a public call's input; private steps take its array
    if isinstance(matrix, XDensityMatrix):
        matrix = matrix.matrix
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected one 4x4 matrix, got shape {m.shape}")
    _entries(m)                     # a non-finite entry raises
    _check_hermitian(m)
    return m


def _spin_flip(m: np.ndarray) -> np.ndarray:
    # the spin-flipped matrix (sy x sy) conj(rho) (sy x sy)
    return _SYY @ m.conj() @ _SYY


def _mu(m: np.ndarray) -> np.ndarray:
    # square roots of the eigenvalues of rho rho-tilde, descending: Wootters'
    # lambda_i, the singular values of sqrt(rho) sqrt(rho-tilde); computed
    # that way, small ones keep absolute accuracy instead of sqrt(eps).
    # Works for any two-qubit density matrix
    w, v = np.linalg.eigh(np.array((m, _spin_flip(m))))
    if w[0, 0] < -PHYS_TOL:
        raise PhysicalityError("matrix has eigenvalue %.3e < 0" % w[0, 0])
    w = np.sqrt(np.maximum(w, 0.0))
    root, root_flip = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return np.linalg.svd(root @ root_flip, compute_uv=False)


def _mu_closed(m: np.ndarray) -> np.ndarray:
    # the mu spectrum of an X-shaped matrix in closed form,
    # {sqrt(rho11 rho44) +/- |rho14|, sqrt(rho22 rho33) +/- |rho23|},
    # descending
    g1 = math.sqrt(max(m[0, 0].real * m[3, 3].real, 0.0))
    g2 = math.sqrt(max(m[1, 1].real * m[2, 2].real, 0.0))
    a14 = abs(m[0, 3])
    a23 = abs(m[1, 2])
    return np.array(sorted((g1 + a14, abs(g1 - a14), g2 + a23,
                            abs(g2 - a23)), reverse=True))


def _con_from_mu(mu: np.ndarray) -> float:
    m0, m1, m2, m3 = mu.tolist()
    return max(0.0, m0 - m1 - m2 - m3)


def _con_from_purification(p0: list[float], p1: list[float]) -> float:
    # Wootters' construction on rho = sum_a phi_a phi_a^T, the rows phi_0 =
    # p0 and phi_1 = p1 of the purification over (b, c) in the basis
    # |00>, |01>, |10>, |11>, real in the corner gauge: for rho = Phi Phi^T,
    # rho rho-tilde = Phi tau Phi^T (sy x sy) with tau = Phi^T (sy x sy)
    # Phi, so its nonzero eigenvalues are those of tau tau; lambda_3 =
    # lambda_4 = 0 and C = lambda_1 - lambda_2.  tau is real symmetric
    # 2x2, [[a, b], [b, d]], so the lambda_i are |mean +/- half-gap|,
    # mean = (a + d)/2 and half-gap = hypot(a - d, 2b)/2, and
    # lambda_1 - lambda_2 = 2 min(|mean|, half-gap).  In cases I and II
    # each phi_a lies in span(|00>, |01>) or in span(|10>, |11>) of (b, c),
    # where tau(u, u) = 0, so a + d is exactly 0
    def tau(u, v):
        # u^T (sy x sy) v
        return (u[1] * v[2] + u[2] * v[1]) - (u[0] * v[3] + u[3] * v[0])
    a, b, d = tau(p0, p0), tau(p0, p1), tau(p1, p1)
    return min(abs(a + d), math.hypot(a - d, 2.0 * b))


def concurrence(matrix) -> float:
    """Concurrence of a two-qubit density matrix.

    Uses the general singular-value route; for X-shaped inputs the closed
    form runs too, and a gap beyond 1e-10 raises.  A non-finite entry,
    asymmetry above HERM_TOL or an eigenvalue below -PHYS_TOL raises
    PhysicalityError; the trace is not checked: rank_two_classify's rho_bc
    has trace w0 + w1, 1 - 2.0e-8 on BlochX(0.3, 0.3, 0.5, -0.5, 1 - 4e-8).
    """
    m = _as_array(matrix)
    con = _con_from_mu(_mu(m))
    # not HERM_TOL: XDensityMatrix accepts strays up to 1e-12, which move
    # the concurrence of a rank-deficient state by more than ROUTE_TOL
    # (1.25e-10 on a rank-2 state with rho_12 = rho_21 = 1e-12)
    if _stray(m) < 1e-14:
        con_x = _con_from_mu(_mu_closed(m))
        if abs(con - con_x) > ROUTE_TOL:
            raise RuntimeError(
                "concurrence routes disagree: eigen %.12g vs closed %.12g"
                % (con, con_x))
    return con


def eof_from_concurrence(con: float) -> float:
    """Entanglement of formation from the concurrence, in bits."""
    con = min(max(con, 0.0), 1.0)       # so 1 - con^2 >= 0, or nan
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - con * con)))


# ---------------------------------------------------------------------------
# Rank-2 spectral decompositions.  The X pattern keeps the two nonzero
# eigenvectors inside the outer span(|00>, |11>) and middle span(|01>, |10>)
# blocks, so the decomposition is written down entrywise.

@dataclass(frozen=True, eq=False)
class RankTwoDecomposition:
    """Spectral decomposition rho = w0 |v0><v0| + w1 |v1><v1|.

    case is "I" (support in the outer block, c3 = 1), "II" (middle block,
    c3 = -1), or "III" (one eigenvector in each block).  purification is
    the three-qubit pure state sum_k sqrt(w_k) |v_k>|k>_c as a (2, 2, 2)
    tensor over (a, b, c); rho_bc is its (b, c) marginal.  The three
    arrays are read-only.
    """

    case: str
    weights: tuple[float, float]
    vectors: np.ndarray
    purification: np.ndarray
    rho_bc: np.ndarray

    def __post_init__(self):
        for arr in (self.vectors, self.purification, self.rho_bc):
            arr.setflags(write=False)


def _block(m: list[list[float]], i: int, j: int):
    # (weight, vector) pairs of m on span(|i>, |j>), heavier first: with
    # (m_ii - m_jj, 2 m_ij) = tr k (cos 2a, sin 2a), tr the block's trace,
    # (cos a, sin a) has weight tr (1 + k)/2 and (-sin a, cos a) has
    # tr (1 - k)/2.  An empty block gives two zero pairs.  m holds the
    # rows of a real matrix; each vector is a list of its 4 entries
    tr = m[i][i] + m[j][j]
    if tr == 0.0:
        return [(0.0, [0.0] * 4)] * 2
    t, u = (m[i][i] - m[j][j]) / tr, 2.0 * m[i][j] / tr
    k = math.hypot(t, u)
    a = 0.5 * math.atan2(u, t)
    ca, sa = math.cos(a), math.sin(a)
    v0, v1 = [0.0] * 4, [0.0] * 4
    v0[i], v0[j], v1[i], v1[j] = ca, sa, -sa, ca
    return [(tr * (0.5 * (1.0 + k)), v0), (tr * (0.5 * (1.0 - k)), v1)]


def _rank_two(xm: XDensityMatrix):
    # (case, weights, vectors, rows) of a rank-2 X-state in its corner
    # gauge: the two eigenpairs (w_k, v_k), heavier first, each vector a
    # list of its 4 entries, and the purification rows phi_a over (b, c),
    # phi_a[2 b + k] = v_k[2 a + b] sqrt(w_k), as lists.  Raises RankError
    # off rank 2 and warns, at the public caller's caller, on a third
    # eigenvalue inside (RANK_TOL, NEAR_RANK_BAND)
    m = xm.gauged.tolist()
    out, mid = _block(m, 0, 3), _block(m, 1, 2)
    # weights snap as in states.spectrum, so a rank-1 error prints no
    # rounding noise
    lams = sorted([_snap(w) for w, _ in mid + out], reverse=True)
    if lams[1] <= RANK_TOL:
        raise RankError(
            "state has rank 1 (second eigenvalue %.3e); decomposition "
            "needs rank 2" % lams[1])
    if lams[2] >= NEAR_RANK_BAND:
        nonzero = sum(1 for x in lams if x > RANK_TOL)
        raise RankError(
            f"state has rank {nonzero}, decomposition needs rank 2")
    if lams[2] > RANK_TOL:
        warnings.warn(
            "third eigenvalue %.3e is barely zero; treating the state as "
            "rank 2" % lams[2], RuntimeWarning, stacklevel=3)
    # residual slack grows with whatever the rank-2 truncation discards
    slack = max(1e-10, 8.0 * (abs(lams[2]) + abs(lams[3])))

    # the two heaviest pairs; on a tie the middle block's pair ranks first
    if out[1][0] > mid[0][0]:
        case, pairs = "I", out
    elif mid[1][0] >= out[0][0]:
        case, pairs = "II", mid
    else:
        case, pairs = "III", [out[0], mid[0]]
    (w0, v0), (w1, v1) = pairs
    gap = max(abs(w0 * (v0[a] * v0[b]) + w1 * (v1[a] * v1[b]) - m[a][b])
              for a in range(4) for b in range(4))
    if gap > slack:
        raise RuntimeError(
            "decomposition residual %.3e; eigenvector formulas do not "
            "match the input" % gap)

    r0, r1 = math.sqrt(max(w0, 0.0)), math.sqrt(max(w1, 0.0))
    rows = [[v0[i] * r0, v1[i] * r1, v0[i + 1] * r0, v1[i + 1] * r1]
            for i in (0, 2)]
    return case, (w0, w1), (v0, v1), rows


def rank_two_classify(matrix) -> RankTwoDecomposition:
    """Classify a rank-2 X-state and build its spectral decomposition.

    Rank, case and eigenpairs come from the two 2x2 blocks of the state in
    its corner gauge (XDensityMatrix.gauged: complex corners replaced by
    their moduli; XDensityMatrix.phases holds the phases removed), through
    the same private step koashi_winter takes.  Raises RankError when the
    state is not rank 2 at tolerance 1e-10; a third eigenvalue inside
    (1e-10, 1e-6) warns and is treated as zero.
    """
    case, weights, vectors, rows = _rank_two(_as_x(matrix))
    psi = np.array(rows).reshape(2, 2, 2)           # psi[a, b, k]
    rho_bc = np.einsum("abc,ade->bcde", psi, psi).reshape(4, 4)
    return RankTwoDecomposition(case=case, weights=weights,
                                vectors=np.array(vectors), purification=psi,
                                rho_bc=rho_bc)


def purification_marginal_ab(decomp: RankTwoDecomposition) -> np.ndarray:
    """Trace the ancilla back out: the input state in its corner gauge,
    XDensityMatrix.gauged (XDensityMatrix.phases holds the phases
    removed)."""
    psi = decomp.purification
    return np.einsum("abc,dec->abde", psi, psi).reshape(4, 4)


@dataclass(frozen=True)
class KoashiWinterReport:
    """Both sides of C_a(rho_ab) + E(rho_bc) = S(rho_b) for one state."""

    case: str
    weights: tuple[float, float]
    classical_correlation_a: float
    concurrence_bc: float
    eof_bc: float
    marginal_entropy_b: float
    residual: float
    z_star_swapped: float


def koashi_winter(matrix) -> KoashiWinterReport:
    """Check the purification identity on a rank-2 X-state.

    The classical correlation measured on qubit a equals the one the
    engine computes (which measures b) on the qubit-swapped state.  Like
    rank_two_classify, it works on the state in its corner gauge;
    XDensityMatrix.phases holds the phases removed.  It shares
    rank_two_classify's rank, case and eigenpair step, but builds no
    array: the purification rows are Python-float products with the bits
    of rank_two_classify's purification.  The concurrence of rho_bc comes
    from their 2x2 Wootters matrix, in floats; it agrees with
    concurrence(rho_bc), the general route, to rounding.
    """
    xm = _as_x(matrix)
    p = xm.bloch
    case, weights, _, rows = _rank_two(xm)
    swapped = discord(p.swapped())
    c_a = swapped.classical_correlation
    con = _con_from_purification(*rows)
    e_bc = eof_from_concurrence(con)
    s_b = entropies(p)[1]
    return KoashiWinterReport(case=case, weights=weights,
                              classical_correlation_a=c_a,
                              concurrence_bc=con, eof_bc=e_bc,
                              marginal_entropy_b=s_b,
                              residual=abs(c_a + e_bc - s_b),
                              z_star_swapped=swapped.z_star)
