"""Multilevel nonregular fractional factorial designs via level permutation
and the Williams transformation, ranked by sequential minimization of the
beta wordlength pattern."""

from .aberration import (
    BetaPattern,
    beta_k,
    beta_pattern,
    beta_sum_check,
    compare_patterns,
)
from .catalog import TableReport, reproduce
from .designs import (
    Design,
    GeneratorSet,
    add_constant,
    expand,
    is_mirror_symmetric,
    linear_permute,
    load_design,
    same_design,
    save_design,
    strength,
    williams,
    williams_inverse,
    williams_value,
)
from .errors import CapExceededError, InputError
from .fieldmath import check_odd_prime, enumerate_tuples, full_factorial, rank_mod
from .models import (
    InfoSummary,
    ModelMatrix,
    estimate_variances,
    information_matrix,
    model_matrix,
)
from .optimal import (
    FamilyBest,
    Q2Report,
    SearchReport,
    build_design,
    center_preimage,
    enumerate_q2_generators,
    optimal_shift_linear,
    optimal_shift_williams,
    search_q2,
    search_shifts,
    shift_betas,
    shift_grid_beta,
    standard_generators,
    verify_theorem,
)
from .orthopoly import OrthonormalBasis, linear_poly_cosine, orthonormal_basis
from .recursion import RecursiveType, classify, count_recursive

__version__ = "0.1.0"

__all__ = [
    "BetaPattern",
    "CapExceededError",
    "Design",
    "FamilyBest",
    "GeneratorSet",
    "InfoSummary",
    "InputError",
    "ModelMatrix",
    "OrthonormalBasis",
    "Q2Report",
    "RecursiveType",
    "SearchReport",
    "TableReport",
    "add_constant",
    "beta_k",
    "beta_pattern",
    "beta_sum_check",
    "build_design",
    "center_preimage",
    "check_odd_prime",
    "classify",
    "compare_patterns",
    "count_recursive",
    "enumerate_q2_generators",
    "enumerate_tuples",
    "estimate_variances",
    "expand",
    "full_factorial",
    "information_matrix",
    "is_mirror_symmetric",
    "linear_permute",
    "linear_poly_cosine",
    "load_design",
    "model_matrix",
    "optimal_shift_linear",
    "optimal_shift_williams",
    "orthonormal_basis",
    "rank_mod",
    "reproduce",
    "same_design",
    "save_design",
    "search_q2",
    "search_shifts",
    "shift_betas",
    "shift_grid_beta",
    "standard_generators",
    "strength",
    "verify_theorem",
    "williams",
    "williams_inverse",
    "williams_value",
]
