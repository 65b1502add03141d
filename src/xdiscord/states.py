"""Two-qubit X-state representations, validation, and entropic basics.

An X-state is a two-qubit density matrix whose only nonzero entries sit on
the diagonal and the anti-diagonal.  Up to local phases it is fixed by five
real Pauli coefficients (r, s, c1, c2, c3):

    rho = (I(x)I + r s3(x)I + s I(x)s3 + sum_i ci si(x)si) / 4

with r, s the local z-polarizations and ci the diagonal correlators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

PHYS_TOL = 1e-10    # slack allowed on the two positivity inequalities
TRACE_TOL = 1e-12
HERM_TOL = 1e-12
PHASE_TOL = 1e-13   # |Im| above this (relative) marks a corner as complex

# row-major indices 4 i + j of the entries that must vanish for the X
# pattern
_OFF_X = (1, 2, 4, 7, 8, 11, 13, 14)


class PhysicalityError(ValueError):
    """Parameters or matrix outside the set of valid X-states."""


class XPatternError(ValueError):
    """Matrix has support off the diagonal and anti-diagonal."""


def xlog2(x):
    """x * log2(x) with 0 log 0 = 0, elementwise; nan stays nan."""
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 0.0, 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)))
    return float(out) if out.ndim == 0 else out


def xlog2_float(x: float) -> float:
    """xlog2 for one float, on the math module."""
    return x * math.log2(x) if x > 0.0 else 0.0 if x <= 0.0 else x


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2 (1-x) in bits, as entropies spells S(a)."""
    x = float(x)
    return -(xlog2_float(x) + xlog2_float(1.0 - x)) + 0.0


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
    PhysicalityError naming the violated inequality otherwise.  Keeps
    the margins it computed and c = max(|c1|, |c2|), through which alone
    F reads c1 and c2; both are derived, so repr, == and hash skip them.
    """

    r: float
    s: float
    c1: float
    c2: float
    c3: float
    c: float = field(init=False, repr=False, compare=False)
    margins: tuple[float, float] = field(init=False, repr=False,
                                         compare=False)

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
        object.__setattr__(self, "margins", (m1, m2))
        object.__setattr__(self, "c", max(abs(self.c1), abs(self.c2)))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r, self.s, self.c1, self.c2, self.c3)

    def swapped(self) -> "BlochX":
        """The same state with the roles of the two qubits exchanged."""
        # not validated again: (r - s)^2 and r + s are symmetric in floats,
        # so the margins stay as they are; so do c1 and c2, and so c
        q = object.__new__(BlochX)
        q.__dict__.update(vars(self), r=self.s, s=self.r)
        return q


def _entries(m: np.ndarray) -> list[complex]:
    # the 16 entries of a complex 4x4 array, row-major, as Python numbers;
    # nan would pass every ">" of a tolerance check, so non-finite raise
    e = m.ravel().tolist()
    if not all(map(cmath.isfinite, e)):
        raise PhysicalityError("matrix has a non-finite entry")
    return e


def _stray(m: np.ndarray) -> float:
    # the largest modulus off the X pattern of a complex 4x4 array, from
    # numpy: abs() of a Python complex (libm's hypot) differs from numpy's
    # by 1 to 2 ulp on about a third of complex numbers
    mod = np.abs(m).ravel().tolist()
    return max(mod[k] for k in _OFF_X)


def _check_hermitian(m: np.ndarray) -> None:
    if np.abs(m - m.conj().T).max() > HERM_TOL:     # eigh reads one triangle
        raise PhysicalityError("matrix is not hermitian")


def _corner(corner: complex) -> tuple[float, float]:
    # (value kept, phase removed): real corners of either sign stay exact,
    # complex ones rotate onto their modulus
    if abs(corner.imag) > PHASE_TOL * max(1.0, abs(corner)):
        return abs(corner), float(np.angle(corner))
    return corner.real, 0.0


@dataclass(frozen=True, eq=False)
class XDensityMatrix:
    """A validated 4x4 X-shaped density matrix, read once.

    Checks finite entries, the X pattern, hermiticity and unit trace, then
    keeps the corner gauge: gauged (real, complex corners replaced by their
    moduli), phases (outer, inner) removed, and bloch, the BlochX of gauged,
    whose construction alone decides positivity.  Arrays are read-only,
    copies rebuild through the constructor, and == is identity.
    """

    matrix: np.ndarray
    gauged: np.ndarray = field(init=False, repr=False)
    phases: tuple[float, float] = field(init=False, repr=False)
    bloch: BlochX = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise XPatternError(f"expected a 4x4 matrix, got {m.shape}")
        e = _entries(m)
        stray = _stray(m)
        if stray > HERM_TOL:
            raise XPatternError(
                "entries off the diagonal and anti-diagonal "
                "(largest %.3e)" % stray)
        _check_hermitian(m)
        d = [e[0].real, e[5].real, e[10].real, e[15].real]
        tr = (d[0] + d[1]) + (d[2] + d[3]) + 0.0    # numpy's trace: pairwise
        if abs(tr - 1.0) > TRACE_TOL:
            raise PhysicalityError(f"trace {tr!r} differs from 1")
        g = m.real.copy()
        (e14, ph14), (e23, ph23) = _corner(m[0, 3]), _corner(m[1, 2])
        g[0, 3] = g[3, 0] = e14
        g[1, 2] = g[2, 1] = e23
        bloch = BlochX(d[0] + d[1] - d[2] - d[3], d[0] - d[1] + d[2] - d[3],
                       2.0 * (e23 + e14), 2.0 * (e23 - e14),
                       d[0] - d[1] - d[2] + d[3])
        m.setflags(write=False)
        g.setflags(write=False)
        self.__dict__.update(matrix=m, gauged=g, phases=(ph14, ph23),
                             bloch=bloch)

    def __reduce__(self):
        return XDensityMatrix, (self.matrix,)


def bloch_to_matrix(p: BlochX) -> XDensityMatrix:
    """Assemble the density matrix from Pauli coefficients.

    Diagonal (1 + e_a r + e_b s + e_a e_b c3)/4 over signs e_a, e_b, outer
    corner (c1 - c2)/4, inner corner (c1 + c2)/4, corners real.
    """
    r, s, c1, c2, c3 = p.as_tuple()
    outer, inner = (c1 - c2) / 4.0, (c1 + c2) / 4.0
    return XDensityMatrix([[(1.0 + r + s + c3) / 4.0, 0.0, 0.0, outer],
                           [0.0, (1.0 + r - s - c3) / 4.0, inner, 0.0],
                           [0.0, inner, (1.0 - r + s - c3) / 4.0, 0.0],
                           [outer, 0.0, 0.0, (1.0 - r - s + c3) / 4.0]])


def _as_x(m) -> XDensityMatrix:
    return m if isinstance(m, XDensityMatrix) else XDensityMatrix(m)


def matrix_to_bloch(m) -> BlochX:
    """Extract Pauli coefficients from a matrix, stripping corner phases.

    Real corners of either sign are preserved, so bloch -> matrix -> bloch
    agrees up to rounding.  Complex corners are replaced by their moduli
    (a local phase gauge that leaves discord, entanglement, and the
    measurement optimum unchanged); XDensityMatrix(m).phases holds the
    removed phases (outer, inner), in radians.
    """
    return _as_x(m).bloch


def _clamp(x: float) -> float:
    # x clamped to [0, 1]; every value inside is kept as computed
    return 0.0 if x <= 0.0 else 1.0 if x >= 1.0 else x


def _eigenvalues(p: BlochX) -> tuple[float, float, float, float]:
    # (t + R)/4 and (t - R)/4 of the inner block, then of the outer one,
    # each clamped to [0, 1]; unsorted
    (t1, r1), (t2, r2) = blocks(p.r, p.s, p.c1, p.c2, p.c3)
    return (_clamp((t1 + r1) / 4.0), _clamp((t1 - r1) / 4.0),
            _clamp((t2 + r2) / 4.0), _clamp((t2 - r2) / 4.0))


def spectrum(p: BlochX) -> np.ndarray:
    """Eigenvalues of the state in closed form (see blocks), descending.

    Each (t +/- R)/4 is clamped to [0, 1] and otherwise kept as computed,
    within 2u t of the exact value (u = 2^-53; see entropies).
    """
    return np.array(sorted(_eigenvalues(p), reverse=True))


def entropies(p: BlochX) -> tuple[float, float, float]:
    """Von Neumann entropies S(a), S(b) and S(ab) of the state, in bits.

    The marginals are diag((1 + x)/2, (1 - x)/2) with x = r for qubit a and
    x = s for qubit b; S(ab) sums over the clamped eigenvalues of
    spectrum(p), inner block first.  Plain floats throughout, no numpy.

    Rounding of S(ab), with u = 2^-53 and the five floats taken as exact.
    A block's t = 1 -/+ c3 rounds once, by u t.  In R^2 each square is
    off by 4u relative (a rounded difference, then pow within 1 ulp, which
    is 2u), and the sum of the two adds u; the square root, pow again,
    halves the 5u and adds 2u, so R is off by 4.5u R.  t +/- R rounds by
    u (t + R) and /4 is exact.  With R <= t, each computed eigenvalue is
    within 1.875u t < delta = 2u t <= 4u of the exact (t +/- R)/4
    (measured: 1.07u t on 2,000 rank-2 states of case III).  A clamp
    moves no two numbers apart, so the clamped value is within delta of
    the exact one clamped the same way; that can differ from the exact
    one, which the floats of a state inside PHYS_TOL can put below 0
    (2,002 of those states' 4,000 zero eigenvalues, down to -8.4e-17).

    The term eta(x) = -x log2 x of an eigenvalue lambda then moves by at
    most delta |log2 x + 1/ln 2| for x within delta of lambda, and by at
    most eta(delta) whatever lambda is (Fannes' lemma, |x - y| <= 1/2):
    - near 1 that is delta / ln 2 <= 6.4e-16;
    - near 0 the slope is unbounded, and the cost is up to eta(4u) =
      2.3e-14 on a block with t near 2 (a near-pure state); on a block
      with t near 0, delta shrinks with t, so the two eigenvalues 5e-13
      of c1 = c2 = 0, c3 = 1 - 2e-12 keep their 4.1e-11 of entropy.
    Evaluating the sum adds 6u S(ab) (log2 within 1 ulp and the product
    per term, then three additions of terms of one sign).  So S(ab) is
    within 6u S(ab) plus, per eigenvalue, the smaller of the two costs;
    tests/test_states.py checks that bound against 50-digit eigenvalues.
    """
    a, b = (1.0 + p.r) / 2.0, (1.0 + p.s) / 2.0
    l1, l2, l3, l4 = _eigenvalues(p)
    # binary_entropy(a) and (b), inlined: calls add 0.2 of 4.7 us (2-vCPU x86)
    return (-(xlog2_float(a) + xlog2_float(1.0 - a)) + 0.0,
            -(xlog2_float(b) + xlog2_float(1.0 - b)) + 0.0,
            -(xlog2_float(l1) + xlog2_float(l2) + xlog2_float(l3)
              + xlog2_float(l4)) + 0.0)
