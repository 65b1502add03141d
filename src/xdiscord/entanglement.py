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
from .states import (_OFF_X, EIG_CLAMP, XDensityMatrix, _as_x, _corner,
                     binary_entropy, entropies, matrix_to_bloch)

RANK_TOL = 1e-10        # eigenvalues below this count as zero
NEAR_RANK_BAND = 1e-6   # third eigenvalue in (RANK_TOL, this) warns
ROUTE_TOL = 1e-10       # allowed gap between the two concurrence routes

# sigma_y (x) sigma_y, real in the computational basis
_SYY = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


class RankError(ValueError):
    """State does not have the rank required by the decomposition."""


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, XDensityMatrix):
        matrix = matrix.matrix
    return np.asarray(matrix, dtype=complex)


def spin_flip(matrix) -> np.ndarray:
    """The spin-flipped matrix (sy x sy) conj(rho) (sy x sy)."""
    m = _as_array(matrix)
    return _SYY @ m.conj() @ _SYY


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def mu_spectrum(matrix) -> np.ndarray:
    """Square roots of the eigenvalues of rho rho-tilde, descending.

    These are Wootters' lambda_i, the singular values of
    sqrt(rho) sqrt(rho-tilde); computed that way, small ones keep
    absolute accuracy instead of sqrt(eps).  Works for any two-qubit
    density matrix.
    """
    m = _as_array(matrix)
    return np.linalg.svd(_sqrtm_psd(m) @ _sqrtm_psd(spin_flip(m)),
                         compute_uv=False)


def mu_spectrum_closed(matrix) -> np.ndarray:
    """The mu spectrum of an X-shaped matrix in closed form.

    {sqrt(rho11 rho44) +/- |rho14|, sqrt(rho22 rho33) +/- |rho23|},
    descending.
    """
    m = _as_array(matrix)
    g1 = math.sqrt(max(m[0, 0].real * m[3, 3].real, 0.0))
    g2 = math.sqrt(max(m[1, 1].real * m[2, 2].real, 0.0))
    a14 = abs(m[0, 3])
    a23 = abs(m[1, 2])
    mu = np.array([g1 + a14, abs(g1 - a14), g2 + a23, abs(g2 - a23)])
    return np.sort(mu)[::-1]


def _con_from_mu(mu: np.ndarray) -> float:
    return max(0.0, float(mu[0] - mu[1] - mu[2] - mu[3]))


def concurrence(matrix) -> float:
    """Concurrence of a two-qubit density matrix.

    Uses the general singular-value route; for X-shaped inputs the closed
    form is evaluated as well and a disagreement beyond 1e-10 raises,
    so the two derivations keep checking each other.
    """
    m = _as_array(matrix)
    con = _con_from_mu(mu_spectrum(m))
    if np.abs(m[_OFF_X]).max() < 1e-14:
        con_x = _con_from_mu(mu_spectrum_closed(m))
        if abs(con - con_x) > ROUTE_TOL:
            raise RuntimeError(
                "concurrence routes disagree: eigen %.12g vs closed %.12g"
                % (con, con_x))
    return con


def eof_from_concurrence(con: float) -> float:
    """Entanglement of formation from the concurrence, in bits."""
    con = min(max(con, 0.0), 1.0)
    x = 0.5 * (1.0 + math.sqrt(max(1.0 - con * con, 0.0)))
    return binary_entropy(x)


# ---------------------------------------------------------------------------
# Rank-2 spectral decompositions.  The X pattern keeps the two nonzero
# eigenvectors inside the outer span(|00>, |11>) and middle span(|01>, |10>)
# blocks, so the decomposition is written down entrywise.

@dataclass(frozen=True)
class RankTwoDecomposition:
    """Spectral decomposition rho = w0 |v0><v0| + w1 |v1><v1|.

    case is "I" (support in the outer block, c3 = 1), "II" (middle block,
    c3 = -1), or "III" (one eigenvector in each block).  purification is
    the three-qubit pure state sum_k sqrt(w_k) |v_k>|k>_c as a (2, 2, 2)
    tensor over (a, b, c); rho_bc is its (b, c) marginal.
    """

    case: str
    weights: tuple[float, float]
    vectors: np.ndarray
    purification: np.ndarray
    rho_bc: np.ndarray


def _block(m: np.ndarray, i: int, j: int):
    # (weight, vector) pairs of m on span(|i>, |j>), heavier first: with
    # (m_ii - m_jj, 2 m_ij) = tr k (cos 2a, sin 2a), tr the block's trace,
    # (cos a, sin a) has weight tr (1 + k)/2 and (-sin a, cos a) has
    # tr (1 - k)/2.  An empty block gives two zero pairs.
    tr = m[i, i] + m[j, j]
    if tr == 0.0:
        return [(0.0, np.zeros(4))] * 2
    t, u = (m[i, i] - m[j, j]) / tr, 2.0 * m[i, j] / tr
    k = math.hypot(t, u)
    a = 0.5 * math.atan2(u, t)
    ca, sa = math.cos(a), math.sin(a)
    v0, v1 = np.zeros(4), np.zeros(4)
    v0[i], v0[j], v1[i], v1[j] = ca, sa, -sa, ca
    return [(tr * (0.5 * (1.0 + k)), v0), (tr * (0.5 * (1.0 - k)), v1)]


def rank_two_classify(matrix) -> RankTwoDecomposition:
    """Classify a rank-2 X-state and build its spectral decomposition.

    Rank, case and eigenpairs come from the two 2x2 blocks of the state in
    matrix_to_bloch's corner gauge (complex corners replaced by their
    moduli; corner_phases gives the phases removed).  Raises RankError
    when the state is not rank 2 at tolerance 1e-10; a third eigenvalue
    inside (1e-10, 1e-6) warns and is treated as zero.
    """
    xm = _as_x(matrix)
    m = xm.matrix.real.copy()
    m[0, 3] = m[3, 0] = _corner(xm.corner_outer)[0]
    m[1, 2] = m[2, 1] = _corner(xm.corner_inner)[0]
    out, mid = _block(m, 0, 3), _block(m, 1, 2)
    # a weight within EIG_CLAMP of 0 is 0, as in states.spectrum, so a
    # rank-1 error prints no rounding noise
    lams = sorted([w if abs(w) >= EIG_CLAMP else 0.0 for w, _ in mid + out],
                  reverse=True)
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
            "rank 2" % lams[2], RuntimeWarning, stacklevel=2)
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
    gap = np.abs(w0 * np.outer(v0, v0) + w1 * np.outer(v1, v1) - m).max()
    if gap > slack:
        raise RuntimeError(
            "decomposition residual %.3e; eigenvector formulas do not "
            "match the input" % gap)

    psi = np.zeros((2, 2, 2))
    for k, (w, v) in enumerate(pairs):
        psi[:, :, k] = math.sqrt(max(w, 0.0)) * v.reshape(2, 2)
    rho_bc = np.einsum("abc,ade->bcde", psi, psi).reshape(4, 4)
    return RankTwoDecomposition(case=case, weights=(float(w0), float(w1)),
                                vectors=np.array([v0, v1]), purification=psi,
                                rho_bc=rho_bc)


def purification_marginal_ab(decomp: RankTwoDecomposition) -> np.ndarray:
    """Trace the ancilla back out: the input state in matrix_to_bloch's
    corner gauge (corner_phases gives the phases removed)."""
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
    rank_two_classify, it works on the state in matrix_to_bloch's corner
    gauge; corner_phases gives the phases removed.
    """
    xm = _as_x(matrix)
    p = matrix_to_bloch(xm)
    decomp = rank_two_classify(xm)
    swapped = discord(p.swapped())
    c_a = swapped.classical_correlation
    con = concurrence(decomp.rho_bc)
    e_bc = eof_from_concurrence(con)
    s_b = entropies(p)[1]
    return KoashiWinterReport(case=decomp.case, weights=decomp.weights,
                              classical_correlation_a=c_a,
                              concurrence_bc=con, eof_bc=e_bc,
                              marginal_entropy_b=s_b,
                              residual=abs(c_a + e_bc - s_b),
                              z_star_swapped=swapped.z_star)
