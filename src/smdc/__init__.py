"""Exact-arithmetic toolkit for symmetric multilevel diversity coding rate regions."""

from .entropy import (EntropyVector, JointDistribution, chain_feasibility,
                      entropy_vector, han_check)
from .errors import ResourceLimitError
from .fm import fourier_motzkin_region, systems_equivalent
from .generator import (check_bounds, count_ordered, expand_permutations,
                        generate_ordered, iter_ordered, theta_chain_counts)
from .region import (Inequality, MembershipVerdict, RateQuery,
                     SuperpositionAllocation, check_achievable_inequalities,
                     check_achievable_lp, list_inequalities,
                     redundancy_certificate)
from .resolution import (FVector, LambdaVector, Resolution, beta_star, f_alpha,
                         f_vector, g_value, optimal_resolution,
                         verify_resolution)

__version__ = "0.1.0"

__all__ = [
    "EntropyVector", "FVector", "Inequality", "JointDistribution",
    "LambdaVector", "MembershipVerdict", "RateQuery", "Resolution",
    "ResourceLimitError", "SuperpositionAllocation", "beta_star",
    "chain_feasibility", "check_achievable_inequalities", "check_achievable_lp",
    "check_bounds", "count_ordered", "entropy_vector", "expand_permutations",
    "f_alpha", "f_vector", "fourier_motzkin_region",
    "g_value", "generate_ordered", "han_check", "iter_ordered",
    "list_inequalities", "optimal_resolution", "redundancy_certificate",
    "systems_equivalent", "theta_chain_counts", "verify_resolution",
]
