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
from .entanglement import (KoashiWinterReport, RankError,
                           RankTwoDecomposition, concurrence,
                           entanglement_of_formation, eof_from_concurrence,
                           koashi_winter, mu_spectrum, mu_spectrum_closed,
                           purification_marginal_ab, rank_two_classify,
                           spin_flip)
from .oracle import (ConditionalEnsemble, MeasurementPoint, OracleResult,
                     conditional_ensemble, conditional_entropy,
                     correlation_objective, oracle_classical_correlation)
from .sampling import (random_bell_diagonal, random_case, random_rank_two,
                       random_states)
from .states import (BlochX, PhysicalityError, XDensityMatrix, XPatternError,
                     binary_entropy, bloch_to_matrix, corner_phases,
                     entropies, matrix_to_bloch, physicality_margins,
                     spectrum, xlog2)

__version__ = "0.1.0"

__all__ = [
    "BlochX", "ConditionalEnsemble", "DiscordResult", "FContext",
    "KoashiWinterReport", "MaxResult", "MeasurementPoint", "NewtonRun",
    "OracleResult", "PhysicalityError", "RankError", "RankTwoDecomposition",
    "Region", "XDensityMatrix", "XPatternError", "analytic_max",
    "binary_entropy", "bloch_to_matrix", "classify_region",
    "concurrence", "conditional_ensemble", "conditional_entropy",
    "corner_phases", "correlation_objective", "discord",
    "entanglement_of_formation", "entropies", "eof_from_concurrence",
    "f_derivative", "f_second_derivative", "f_value", "global_max",
    "koashi_winter", "matrix_to_bloch", "mu_spectrum", "mu_spectrum_closed",
    "newton_critical_point",
    "oracle_classical_correlation", "physicality_margins",
    "purification_marginal_ab", "random_bell_diagonal", "random_case",
    "random_rank_two", "random_states", "region_conditions", "spectrum",
    "spin_flip", "xlog2",
]
