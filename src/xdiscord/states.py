"""Two-qubit X-state representations, validation, and entropic basics.

An X-state is a two-qubit density matrix whose only nonzero entries sit on
the diagonal and the anti-diagonal.  Up to local phases it is fixed by five
real Pauli coefficients (r, s, c1, c2, c3):

    rho = (I(x)I + r s3(x)I + s I(x)s3 + sum_i ci si(x)si) / 4

with r, s the local z-polarizations and ci the diagonal correlators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHYS_TOL = 1e-10    # slack allowed on the two positivity inequalities
EIG_CLAMP = 1e-12   # closed-form eigenvalues this close to 0 or 1 snap
TRACE_TOL = 1e-12
HERM_TOL = 1e-12
PHASE_TOL = 1e-13   # |Im| above this (relative) marks a corner as complex

# entries that must vanish for the X pattern
_OFF_X = np.array([
    [False, True, True, False],
    [True, False, False, True],
    [True, False, False, True],
    [False, True, True, False],
])


class PhysicalityError(ValueError):
    """Parameters or matrix outside the set of valid X-states."""


class XPatternError(ValueError):
    """Matrix has support off the diagonal and anti-diagonal."""


def xlog2(x):
    """x * log2(x) with the 0 log 0 = 0 convention, elementwise."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    out = np.where(x > 0.0, x * np.log2(safe), 0.0)
    return float(out) if out.ndim == 0 else out


def xlog2_float(x: float) -> float:
    """xlog2 for one float, on the math module."""
    return x * math.log2(x) if x > 0.0 else 0.0


def binary_entropy(x):
    """Shannon entropy -x log2 x - (1-x) log2 (1-x) of a bit, in bits."""
    x = np.asarray(x, dtype=float)
    out = -(xlog2(x) + xlog2(1.0 - x)) + 0.0   # "+ 0.0" normalizes -0.0
    return float(out) if np.ndim(out) == 0 else out


def blocks(r, s, c1, c2, c3):
    """(t, R) of the two 2x2 blocks; each has eigenvalues (t +/- R)/4.

    The X pattern block-diagonalizes into an inner block with
    (t, R1) = (1 - c3, sqrt((r - s)^2 + (c1 + c2)^2)) and an outer one with
    (t, R2) = (1 + c3, sqrt((r + s)^2 + (c1 - c2)^2)).  Takes floats or
    numpy arrays; "** 0.5" keeps the float path free of numpy.
    """
    return ((1.0 - c3, ((r - s) ** 2 + (c1 + c2) ** 2) ** 0.5),
            (1.0 + c3, ((r + s) ** 2 + (c1 - c2) ** 2) ** 0.5))


def physicality_margins(r, s, c1, c2, c3):
    """Slack of the two block positivity constraints, for floats or arrays.

    Both are nonnegative exactly when the Pauli coefficients describe a
    positive semidefinite matrix:

        1 - c3 >= sqrt((r - s)^2 + (c1 + c2)^2)
        1 + c3 >= sqrt((r + s)^2 + (c1 - c2)^2)
    """
    (t1, R1), (t2, R2) = blocks(r, s, c1, c2, c3)
    return t1 - R1, t2 - R2


@dataclass(frozen=True)
class BlochX:
    """Pauli coefficients (r, s, c1, c2, c3) of a two-qubit X-state.

    Validates the positivity region on construction; raises
    PhysicalityError naming the violated inequality otherwise.
    """

    r: float
    s: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("r", "s", "c1", "c2", "c3"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v) or abs(v) > 1.0 + PHYS_TOL:
                raise PhysicalityError(f"{name} = {v!r} outside [-1, 1]")
        m1, m2 = physicality_margins(*self.as_tuple())
        if m1 < -PHYS_TOL:
            raise PhysicalityError(
                "1 - c3 >= sqrt((r-s)^2 + (c1+c2)^2) violated by %.3e" % -m1)
        if m2 < -PHYS_TOL:
            raise PhysicalityError(
                "1 + c3 >= sqrt((r+s)^2 + (c1-c2)^2) violated by %.3e" % -m2)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r, self.s, self.c1, self.c2, self.c3)

    def swapped(self) -> "BlochX":
        """The same state with the roles of the two qubits exchanged."""
        return BlochX(self.s, self.r, self.c1, self.c2, self.c3)

    @property
    def margins(self) -> tuple[float, float]:
        return physicality_margins(*self.as_tuple())


@dataclass(frozen=True)
class XDensityMatrix:
    """A validated 4x4 X-shaped density matrix.

    Checks finite entries, the X pattern, hermiticity, unit trace, and
    positive semidefiniteness at construction.  The wrapped array is
    read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise XPatternError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.isfinite(m).all():    # nan would pass every ">" below
            raise PhysicalityError("matrix has a non-finite entry")
        stray = np.abs(m[_OFF_X])
        if stray.max() > HERM_TOL:
            raise XPatternError(
                "entries off the diagonal and anti-diagonal "
                "(largest %.3e)" % stray.max())
        if np.abs(m - m.conj().T).max() > HERM_TOL:
            raise PhysicalityError("matrix is not hermitian")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise PhysicalityError(f"trace {tr!r} differs from 1")
        low = np.linalg.eigvalsh(m).min()
        if low < -PHYS_TOL:
            raise PhysicalityError(
                "matrix has a negative eigenvalue (%.3e)" % low)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def corner_outer(self) -> complex:
        return complex(self.matrix[0, 3])

    @property
    def corner_inner(self) -> complex:
        return complex(self.matrix[1, 2])


def bloch_to_matrix(p: BlochX) -> XDensityMatrix:
    """Assemble the density matrix from Pauli coefficients.

    Diagonal (1 + e_a r + e_b s + e_a e_b c3)/4 over signs e_a, e_b, outer
    corner (c1 - c2)/4, inner corner (c1 + c2)/4, corners real.
    """
    r, s, c1, c2, c3 = p.as_tuple()
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (1.0 + r + s + c3) / 4.0
    m[1, 1] = (1.0 + r - s - c3) / 4.0
    m[2, 2] = (1.0 - r + s - c3) / 4.0
    m[3, 3] = (1.0 - r - s + c3) / 4.0
    m[0, 3] = m[3, 0] = (c1 - c2) / 4.0
    m[1, 2] = m[2, 1] = (c1 + c2) / 4.0
    return XDensityMatrix(m)


def _as_x(m) -> XDensityMatrix:
    return m if isinstance(m, XDensityMatrix) else XDensityMatrix(m)


def _corner(corner: complex) -> tuple[float, float]:
    # (value kept, phase removed): real corners of either sign stay exact,
    # complex ones rotate onto their modulus
    if abs(corner.imag) > PHASE_TOL * max(1.0, abs(corner)):
        return abs(corner), float(np.angle(corner))
    return corner.real, 0.0


def matrix_to_bloch(m) -> BlochX:
    """Extract Pauli coefficients from a matrix, stripping corner phases.

    Real corners of either sign are preserved, so bloch -> matrix -> bloch
    is an exact identity.  Complex corners are replaced by their moduli
    (a local phase gauge that leaves discord, entanglement, and the
    measurement optimum unchanged); the removed phases are available from
    corner_phases.
    """
    xm = _as_x(m)
    d = np.real(np.diag(xm.matrix))
    e14 = _corner(xm.corner_outer)[0]
    e23 = _corner(xm.corner_inner)[0]
    r = d[0] + d[1] - d[2] - d[3]
    s = d[0] - d[1] + d[2] - d[3]
    c3 = d[0] - d[1] - d[2] + d[3]
    c1 = 2.0 * (e23 + e14)
    c2 = 2.0 * (e23 - e14)
    return BlochX(r, s, c1, c2, c3)


def corner_phases(m) -> tuple[float, float]:
    """Phases (outer, inner) removed by matrix_to_bloch, in radians."""
    xm = _as_x(m)
    return _corner(xm.corner_outer)[1], _corner(xm.corner_inner)[1]


def _eigenvalues(p: BlochX) -> list[float]:
    # (t +/- R)/4 per block, snapped to 0 or 1 within EIG_CLAMP; unsorted
    lam = []
    for t, big in blocks(*p.as_tuple()):
        for x in ((t + big) / 4.0, (t - big) / 4.0):
            lam.append(0.0 if abs(x) < EIG_CLAMP
                       else 1.0 if abs(x - 1.0) < EIG_CLAMP else x)
    return lam


def spectrum(p: BlochX) -> np.ndarray:
    """Eigenvalues of the state in closed form (see blocks), descending."""
    return np.array(sorted(_eigenvalues(p), reverse=True))


def entropies(p: BlochX) -> tuple[float, float, float]:
    """Von Neumann entropies S(a), S(b) and S(ab) of the state, in bits.

    The marginals are diag((1 + x)/2, (1 - x)/2) with x = r for qubit a and
    x = s for qubit b; S(ab) sums over the clamped eigenvalues of
    spectrum(p), in any order.  Plain floats throughout, no numpy.
    """
    a, b = (1.0 + p.r) / 2.0, (1.0 + p.s) / 2.0
    return (-(xlog2_float(a) + xlog2_float(1.0 - a)) + 0.0,
            -(xlog2_float(b) + xlog2_float(1.0 - b)) + 0.0,
            -sum(map(xlog2_float, _eigenvalues(p))) + 0.0)
