"""Quantum discord of two-qubit X-states.

Closed-form endpoint regions, a safeguarded Newton search on the
one-variable reduction F(z), a brute-force measurement oracle, and the
rank-2 purification bridge between classical correlation and
entanglement of formation.
"""

from .engine import (DiscordResult, FContext, MaxResult, NewtonRun, Region,
                     analytic_max, classify_region, discord, f_derivative,
                     f_second_derivative, f_value, global_max,
                     newton_critical_point, region_conditions)
from .entanglement import (KoashiWinterReport, RankError, concurrence,
                           koashi_winter, purification_marginal_ab,
                           rank_two_classify)
from .oracle import OracleResult, oracle_classical_correlation
from .sampling import (random_bell_diagonal, random_case, random_rank_two,
                       random_states)
from .states import (BlochX, PhysicalityError, XDensityMatrix, XPatternError,
                     binary_entropy, bloch_to_matrix, entropies,
                     matrix_to_bloch, physicality_margins, spectrum, xlog2)

__version__ = "0.1.0"

__all__ = [
    "BlochX", "DiscordResult", "FContext", "KoashiWinterReport", "MaxResult",
    "NewtonRun", "OracleResult", "PhysicalityError", "RankError", "Region",
    "XDensityMatrix", "XPatternError", "analytic_max", "binary_entropy",
    "bloch_to_matrix", "classify_region", "concurrence", "discord",
    "entropies", "f_derivative", "f_second_derivative", "f_value",
    "global_max", "koashi_winter", "matrix_to_bloch", "newton_critical_point",
    "oracle_classical_correlation", "physicality_margins",
    "purification_marginal_ab", "random_bell_diagonal", "random_case",
    "random_rank_two", "random_states", "rank_two_classify",
    "region_conditions", "spectrum", "xlog2",
]
