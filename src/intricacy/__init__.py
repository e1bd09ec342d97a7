"""Averaged sample complexity, intricacy, and pressure for shifts of
finite type and Markov measures."""

from .coeffs import CoefficientSystem, parse_coeffs, validate
from .errors import CapExceeded
from .markov import (
    MarkovMeasure,
    SampledEntropyResult,
    asc_finite,
    asc_lambda,
    asc_series_markov,
    entropy_rate,
    gap_entropies,
    monte_carlo_asc,
    recode_higher_block,
    sampled_joint_entropy,
    stationary,
)
from .pressure import Potential, asp_profile, classical_pressure, weighted_count
from .sft import Sft, SubsetSpec
from .sweep import MarkovFamily, builtin_family, family_from_dict, maximize, scan
from .topo import (
    ComplexityProfile,
    asc_series,
    finite_profile,
    int_series,
    recursion_check,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSystem",
    "parse_coeffs",
    "validate",
    "CapExceeded",
    "MarkovMeasure",
    "SampledEntropyResult",
    "asc_finite",
    "asc_lambda",
    "asc_series_markov",
    "entropy_rate",
    "gap_entropies",
    "monte_carlo_asc",
    "recode_higher_block",
    "sampled_joint_entropy",
    "stationary",
    "Potential",
    "asp_profile",
    "classical_pressure",
    "weighted_count",
    "Sft",
    "SubsetSpec",
    "MarkovFamily",
    "builtin_family",
    "family_from_dict",
    "maximize",
    "scan",
    "ComplexityProfile",
    "asc_series",
    "finite_profile",
    "int_series",
    "recursion_check",
    "__version__",
]
