"""Numerical laboratory for likelihood asymptotics of the one-parameter
linear stochastic delay differential equation
dX(t) = theta * (integral over [-r,0] of X(t+u) a(du)) dt + dW(t)."""

__version__ = "0.1.0"

from .inference import ScorePair, log_likelihood_ratio, mle, score_and_info
from .kernels import Grid, Kernel, fisher_limit, fisher_theta0, residue_expansion_eval, solve_fundamental, y_kernel
from .limit_laws import sample_lamn_many, sample_lan_many, sample_laq_many, sample_plamn_many
from .measures import SignedMeasure, exp_moment, tail_mass, total_variation
from .simulate import InitialPath, SamplePath, derive_seed, simulate, y_process
from .spectrum import (
    CharRoot,
    RegimeReport,
    ScalingLaw,
    build_root_data,
    char_derivative,
    char_value,
    classify,
    count_zeros,
    laurent_coeffs,
    real_gcd,
    roots_in_strip,
)

__all__ = [
    "__version__",
    "SignedMeasure",
    "total_variation",
    "tail_mass",
    "exp_moment",
    "CharRoot",
    "RegimeReport",
    "ScalingLaw",
    "char_value",
    "char_derivative",
    "roots_in_strip",
    "count_zeros",
    "laurent_coeffs",
    "build_root_data",
    "classify",
    "real_gcd",
    "Grid",
    "Kernel",
    "solve_fundamental",
    "y_kernel",
    "residue_expansion_eval",
    "fisher_limit",
    "fisher_theta0",
    "InitialPath",
    "SamplePath",
    "derive_seed",
    "simulate",
    "y_process",
    "ScorePair",
    "log_likelihood_ratio",
    "score_and_info",
    "mle",
    "sample_lan_many",
    "sample_laq_many",
    "sample_lamn_many",
    "sample_plamn_many",
]
