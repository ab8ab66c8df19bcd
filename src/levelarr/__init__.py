"""Exact computations on affine hyperplane arrangements.

Characteristic polynomials via the intersection poset, region enumeration
with levels (dimensions of unbounded directions), binomial-basis expansions
relating the two, and independent oracles (finite-field point counts,
deletion-restriction).  All geometry is exact rational arithmetic.

The package root re-exports the names the README's library example uses;
everything else is imported from its module (``levelarr.arrangement``,
``levelarr.regions``, ...).
"""

from .arrangement import make_deformation_a
from .expansion import verify_type_a_expansion, zaslavsky_check
from .ffcount import ff_oracle_check
from .poset import char_poly
from .regions import level_profile

__all__ = [
    "char_poly",
    "ff_oracle_check",
    "level_profile",
    "make_deformation_a",
    "verify_type_a_expansion",
    "zaslavsky_check",
]
__version__ = "0.1.0"
