"""Print the repr of every engine result on a fixed corpus of states.

A change meant to leave every result bit-identical is checked by running
this script at the parent commit and at the change, and comparing the two
outputs byte for byte:

    PYTHONPATH=src python3 scripts/identity_corpus.py > new.txt
    cmp old.txt new.txt

The corpus draws, with fixed seeds, uniform states, states of endpoint
regions a to d, Bell-diagonal states and rank-2 states of cases I to III,
each also with its qubits swapped, plus the worked example.  Every state
gets one line for each of discord() with method "auto", "numeric" and
verify=True, and one for global_max().

The rank-2 bridge gets three more sections, all on real matrices: each
rank-2 state and its swap prints its koashi_winter() report and its
rank_two_classify() decomposition; each uniform state, and each of a
set of rank-1 and rank-3 states, prints the exception
rank_two_classify() raises on it; and a near-rank ladder
c3 = +/-(1 - eps) prints each warning and result of both calls.  Needs
only numpy.
"""

from __future__ import annotations

import warnings

import numpy as np

from xdiscord import (BlochX, PhysicalityError, XDensityMatrix,
                      bloch_to_matrix, discord, global_max, koashi_winter,
                      matrix_to_bloch, random_bell_diagonal, random_case,
                      random_rank_two, random_states, rank_two_classify)

WORKED_EXAMPLE = np.array([
    [0.0783, 0.0,   0.0,   0.0],
    [0.0,    0.125, 0.1,   0.0],
    [0.0,    0.1,   0.125, 0.0],
    [0.0,    0.0,   0.0,   0.6717],
])


def corpus() -> list[tuple[str, object]]:
    """(label, state) pairs: each drawn state, then its swap."""
    rng = np.random.default_rng(20161)
    drawn = [("uniform", p) for p in random_states(rng, 200)]
    for case in "abcd":
        drawn += [(case, p) for p in random_case(rng, case, 40)]
    drawn += [("bell", p) for p in random_bell_diagonal(rng, 40)]
    for case in ("I", "II", "III"):
        drawn += [(f"rank2-{case}", p)
                  for p in random_rank_two(rng, case, 40)]
    states = [("worked", matrix_to_bloch(XDensityMatrix(WORKED_EXAMPLE)))]
    for label, p in drawn:
        states += [(label, p), (label + "-swap", p.swapped())]
    return states


def other_ranks(n: int = 40) -> list[BlochX]:
    """n pure states in each block (rank 1), then n rank-3 states."""
    rng = np.random.default_rng(20162)
    states = []
    for phi in rng.uniform(0.0, 2.0 * np.pi, n):
        r, c = np.cos(phi), np.sin(phi)
        states += [BlochX(r, r, c, -c, 1.0), BlochX(r, -r, c, c, -1.0)]
    while len(states) < 3 * n:
        # the middle block has rank 1, the outer one full rank
        r, s, c1, c3 = rng.uniform(-1.0, 1.0, 4)
        c2 = np.sqrt(max((1.0 - c3) ** 2 - (r - s) ** 2, 0.0)) - c1
        try:
            p = BlochX(r, s, c1, c2, c3)
        except PhysicalityError:
            continue
        if p.margins[1] > 1e-3:
            states.append(p)
    return states


# third eigenvalue eps/4: below RANK_TOL, in the warning band, then above
LADDER_EPS = [1e-12, 1e-10, 4e-10, 1e-9, 1e-8, 1e-7, 1e-6, 2e-6, 4e-6, 1e-5]
LADDER_BASES = [(0.3, 0.3, 0.2, -0.2, 1.0), (0.3, -0.3, 0.2, 0.2, -1.0),
                (-0.55, -0.55, -0.1, 0.1, 1.0), (0.1, -0.1, 0.6, 0.6, -1.0)]


def decomposition_lines(m) -> list[str]:
    """The report and the decomposition of the bridge on matrix m."""
    d = rank_two_classify(m)
    return ["  kw " + repr(koashi_winter(m)),
            f"  case {d.case} weights {d.weights!r}",
            "  vectors " + repr(d.vectors.tolist()),
            "  purification " + repr(d.purification.tolist()),
            "  rho_bc " + repr(d.rho_bc.tolist())]


def outcome(call, m) -> str:
    """The warnings call(m) gives, then its result or its exception."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(call(m))
        except Exception as exc:     # the type and message are the output
            result = f"{type(exc).__name__}: {exc}"
    return " | ".join([f"{w.category.__name__}: {w.message}"
                       for w in caught] + [result])


def main() -> None:
    states = corpus()
    for i, (label, p) in enumerate(states):
        print(i, label, repr(p))
        print("  auto", repr(discord(p)))
        print("  numeric", repr(discord(p, method="numeric")))
        print("  verify", repr(discord(p, verify=True)))
        print("  global_max", repr(global_max(p)))
    for i, (label, p) in enumerate(states):
        if label.startswith("rank2"):
            print("bridge", i, label)
            print("\n".join(decomposition_lines(bloch_to_matrix(p))))
        elif label.startswith("uniform"):
            print("not rank 2", i, label,
                  outcome(rank_two_classify, bloch_to_matrix(p)))
    for i, p in enumerate(other_ranks()):
        print("other rank", i, repr(p),
              outcome(rank_two_classify, bloch_to_matrix(p)))
    for base in LADDER_BASES:
        for eps in LADDER_EPS:
            c3 = base[4] - eps if base[4] > 0 else base[4] + eps
            m = bloch_to_matrix(BlochX(*base[:4], c3))
            print("ladder", base, eps)
            print("  classify", outcome(
                lambda x: rank_two_classify(x).weights, m))
            print("  kw", outcome(koashi_winter, m))


if __name__ == "__main__":
    main()
