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
verify=True, and one for global_max().  Needs only numpy.
"""

from __future__ import annotations

import numpy as np

from xdiscord import (XDensityMatrix, discord, global_max, matrix_to_bloch,
                      random_bell_diagonal, random_case, random_rank_two,
                      random_states)

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


def main() -> None:
    for i, (label, p) in enumerate(corpus()):
        print(i, label, repr(p))
        print("  auto", repr(discord(p)))
        print("  numeric", repr(discord(p, method="numeric")))
        print("  verify", repr(discord(p, verify=True)))
        print("  global_max", repr(global_max(p)))


if __name__ == "__main__":
    main()
