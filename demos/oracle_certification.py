"""Certify the engine against the brute-force measurement oracle.

The oracle scans every von Neumann measurement of qubit b on a
(z3, phi) grid, refines the best cell, and reports the classical
correlation with no help from the one-variable reduction.  For X-states
the optimal direction must lie on one of the two great circles through
the poles that the reduction exploits, so the scan both checks the
discord value and confirms where the maximum lives.
"""

import numpy as np

from xdiscord import (BlochX, discord, oracle_classical_correlation,
                      random_states)


def main() -> None:
    rng = np.random.default_rng(7)
    states = random_states(rng, 50)

    worst_gap = 0.0
    worst_circle = 0.0
    for p in states:
        res = discord(p)
        orc = oracle_classical_correlation(p, grid_n=128)
        worst_gap = max(worst_gap, abs(orc.classical_correlation
                                       - res.classical_correlation))
        # distance of the best azimuth from the nearest axis circle
        phi = orc.phi % (np.pi / 2.0)
        worst_circle = max(worst_circle, min(phi, np.pi / 2.0 - phi))

    step = (np.pi / 2.0) / 127
    print("50 random X-states, 128x128 oracle grid + refinement")
    print(f"  worst |oracle - engine|      = {worst_gap:.2e}")
    print(f"  worst azimuth off the circles = {worst_circle:.2e} rad "
          f"({worst_circle / step:.2f} grid steps)")

    # a state whose optimal z3 = 0.883... sits between grid points, so the
    # raw sweep error shrinks with the grid while refinement removes it
    print("\nGrid convergence on an interior-maximizer state "
          "(raw sweep vs refined cell)")
    p = BlochX(-0.5934, -0.5934, 0.2, 0.2, 0.5)
    res = discord(p)
    print(f"  engine classical correlation = {res.classical_correlation:.12f}")
    for n in (16, 32, 64, 128, 256):
        raw = oracle_classical_correlation(p, grid_n=n, refine_rounds=0)
        orc = oracle_classical_correlation(p, grid_n=n)
        raw_gap = abs(raw.classical_correlation - res.classical_correlation)
        gap = abs(orc.classical_correlation - res.classical_correlation)
        print(f"  grid {n:>3}: raw gap = {raw_gap:.2e}   "
              f"refined gap = {gap:.2e}")


if __name__ == "__main__":
    main()
