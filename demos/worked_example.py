"""Walk through one X-state from density matrix to discord.

Starts from a 4x4 matrix, recovers the Bloch parameters, classifies the
endpoint region, shows the Newton trace on the interior search, and
cross-checks the result against both the grid search and the brute-force
measurement oracle.
"""

import numpy as np

from xdiscord import (XDensityMatrix, discord, f_derivative, matrix_to_bloch,
                      oracle_classical_correlation, region_conditions,
                      spectrum)

MATRIX = np.array([
    [0.0783, 0.0,   0.0,   0.0],
    [0.0,    0.125, 0.1,   0.0],
    [0.0,    0.1,   0.125, 0.0],
    [0.0,    0.0,   0.0,   0.6717],
])


def main() -> None:
    p = matrix_to_bloch(XDensityMatrix(MATRIX))
    print("Bloch parameters")
    print(f"  r  = {p.r:+.4f}   s  = {p.s:+.4f}")
    print(f"  c1 = {p.c1:+.4f}   c2 = {p.c2:+.4f}   c3 = {p.c3:+.4f}")
    print(f"  eigenvalues: {np.round(spectrum(p), 6)}")

    print("\nEndpoint regions (closed forms apply when a hypothesis holds)")
    for name, holds in region_conditions(p).items():
        print(f"  case {name}: {holds}")

    res = discord(p)
    print(f"\nregion: {res.region}, method: {res.method}")
    run = res.search.newton_runs[0]
    print(f"Newton from z0 = {run.seed}:")
    for k, z in enumerate(run.iterates, start=1):
        print(f"  iterate {k}: z = {z:.10f}")
    print(f"  converged: {run.converged}")

    print(f"\nz*      = {res.z_star:.10f}")
    print(f"F(z*)   = {res.f_max:.10f}")
    print(f"F'(z*)  = {f_derivative(p, res.z_star):+.2e}")
    print(f"discord = {res.discord:.10f}")
    print(f"classical correlation = {res.classical_correlation:.10f}")
    print(f"mutual information    = {res.mutual_information:.10f}")

    # A second opinion: minimize the measured conditional entropy over a
    # dense grid of von Neumann measurements on qubit b, with no use of
    # the one-variable reduction.
    oracle = oracle_classical_correlation(p, grid_n=256)
    gap = abs(oracle.classical_correlation - res.classical_correlation)
    print(f"\noracle (256x256 grid + refinement)")
    print(f"  classical correlation = {oracle.classical_correlation:.10f}")
    print(f"  best direction z = {oracle.direction}")
    print(f"  |oracle - engine|     = {gap:.2e}")


if __name__ == "__main__":
    main()
