"""Exact harmonic analysis on superspace.

Polynomial algebra with commuting and anticommuting variables, the invariant
Laplace, norm-square and Euler operators, exact rational linear algebra,
spherical and generalized harmonics with their Fischer decompositions,
Cauchy-Kovalevskaya extension, branching of harmonics under restriction of
one bosonic variable, and Gelfand-Tsetlin bases built from the branching.

Everything is computed in exact rational arithmetic; no floating point is
used anywhere.
"""

from .branching import (
    BranchingReport,
    BranchSummand,
    branch_generalized,
    branch_harmonic,
)
from .ck import CKData, ck_data, ck_extend, ck_extend_recursive
from .gtbasis import GTBasisElement, GTLabel, gt_basis, theta_factor, verify_gt_basis
from .harmonics import (
    DecompositionReport,
    FischerSummand,
    branching_index_sets,
    exceptional_indices,
    fischer_decomposition,
    fischer_index_sets,
    generalized_harmonic_space,
    harmonic_space,
    socle_space,
    verify_theorem_A,
)
from .operators import (
    invariance_check,
    laplacian,
    osp_generators,
    rsquare,
    sl2_relations_check,
)
from .superpoly import (
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    format_polynomial,
    extend_signature,
    monomial_basis,
    parse_polynomial,
    space_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "BranchSummand",
    "BranchingReport",
    "CKData",
    "DecompositionReport",
    "FischerSummand",
    "GTBasisElement",
    "GTLabel",
    "SuperMonomial",
    "SuperPolynomial",
    "SuperSignature",
    "branch_generalized",
    "branch_harmonic",
    "branching_index_sets",
    "ck_data",
    "ck_extend",
    "ck_extend_recursive",
    "exceptional_indices",
    "extend_signature",
    "fischer_decomposition",
    "fischer_index_sets",
    "format_polynomial",
    "generalized_harmonic_space",
    "gt_basis",
    "harmonic_space",
    "invariance_check",
    "laplacian",
    "monomial_basis",
    "osp_generators",
    "parse_polynomial",
    "rsquare",
    "sl2_relations_check",
    "socle_space",
    "space_dimension",
    "theta_factor",
    "verify_gt_basis",
    "verify_theorem_A",
    "__version__",
]
