"""Tie classical correlation to entanglement on rank-2 X-states.

A rank-2 state purifies into three qubits, and there the classical
correlation extractable from qubit a and the entanglement of formation
between b and the purifying qubit c split the marginal entropy of b
exactly: C_a + E_bc = S_b.  This script classifies sampled states into
the three rank-2 families and checks the identity.  On one case-III
state it then prints the bridge's concurrence, which koashi_winter takes
from the purification's 2x2 Wootters matrix, next to concurrence() of
rho_bc (the general 4x4 route) and the case-III quadratic that gives
the squared concurrence from the Bloch parameters.
"""

import numpy as np

from xdiscord import (bloch_to_matrix, concurrence, koashi_winter,
                      purification_marginal_ab, rank_two_classify,
                      random_rank_two)


def main() -> None:
    rng = np.random.default_rng(11)

    print("identity C_a + E_bc = S_b on sampled rank-2 states")
    print(f"{'case':>5} {'C_a':>10} {'E_bc':>10} {'S_b':>10} {'residual':>10}")
    for case in ("I", "II", "III"):
        worst = 0.0
        for p in random_rank_two(rng, case, 40):
            rep = koashi_winter(bloch_to_matrix(p))
            worst = max(worst, rep.residual)
        rep = koashi_winter(bloch_to_matrix(random_rank_two(rng, case, 1)[0]))
        print(f"{rep.case:>5} {rep.classical_correlation_a:>10.6f} "
              f"{rep.eof_bc:>10.6f} {rep.marginal_entropy_b:>10.6f} "
              f"{worst:>10.2e}")

    # Cases I and II are pure-state mixtures confined to one X block, so
    # the complementary pair bc is uncorrelated and E_bc = 0; case III
    # mixes both blocks and bc is genuinely entangled.
    p = random_rank_two(rng, "III", 1)[0]
    decomp = rank_two_classify(bloch_to_matrix(p))
    print(f"\ncase III example: weights = "
          f"({decomp.weights[0]:.6f}, {decomp.weights[1]:.6f})")

    marg = purification_marginal_ab(decomp)
    gap = np.max(np.abs(marg - bloch_to_matrix(p).matrix))
    print(f"purification traces back to the state: max entry gap = {gap:.2e}")

    con_kw = koashi_winter(bloch_to_matrix(p)).concurrence_bc
    con = concurrence(decomp.rho_bc)
    quad = 0.5 * (1.0 + p.r ** 2 - p.s ** 2 - p.c3 ** 2
                  - p.c1 ** 2 + p.c2 ** 2)
    print(f"koashi_winter concurrence_bc    = {con_kw:.15f}")
    print(f"concurrence(rho_bc)             = {con:.15f}")
    print(f"difference                      = {abs(con_kw - con):.2e}")
    print(f"quadratic closed form (squared) = {quad:.15f}")
    print(f"difference of squares           = {abs(con_kw ** 2 - quad):.2e}")


if __name__ == "__main__":
    main()
