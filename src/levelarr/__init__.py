"""Exact computations on affine hyperplane arrangements.

Characteristic polynomials via the intersection poset, region enumeration
with levels (dimensions of unbounded directions), binomial-basis expansions
relating the two, and independent oracles (finite-field point counts,
deletion-restriction, exhaustive sign vectors).  All geometry is exact
rational arithmetic.
"""

from .arrangement import (
    Arrangement,
    DegenerateDeformationError,
    DirectionClass,
    Hyperplane,
    Kind,
    NondegeneracyReport,
    delete,
    direction_classes,
    is_nondegenerate,
    make_catalan_type,
    make_cox_a,
    make_cox_b,
    make_deformation_a,
    make_deformation_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
    restrict,
)
from .exactmath import (
    AffineSolution,
    Scalar,
    Vector,
    as_scalar,
    as_vector,
    cone_span_dimension,
    feasible_strict,
    solve_affine,
)
from .expansion import (
    BasisKind,
    BinomialExpansion,
    ExpansionRow,
    VerificationReport,
    ZaslavskyResult,
    basis_polynomial,
    to_binomial_basis,
    verify_type_a_expansion,
    verify_type_b_expansion,
    zaslavsky_check,
)
from .ffcount import (
    PrimePlan,
    admissible_primes,
    coefficient_bound,
    count_complement_points,
    ff_oracle_check,
)
from .poset import CharPoly, Flat, IntersectionPoset, build_poset, char_poly, mobius
from .regions import (
    LevelProfile,
    Region,
    enumerate_regions,
    feasible_sign_vectors,
    level_profile,
    mcatalan_level_count,
    region_level,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
