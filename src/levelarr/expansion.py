"""Binomial-basis expansions of the characteristic polynomial and validators.

A characteristic polynomial of degree n has a unique expansion over either
falling-binomial basis:

* standard:      C(t, k) = t (t-1) ... (t-k+1) / k!
* shifted half:  C((t-1)/2, k) = (t-1)(t-3)...(t-1-2(k-1)) / (2^k k!)

Both are C(s, k) with s = t or s = (t-1)/2, so by Newton's forward-difference
formula c_k is the k-th forward difference at s = 0 of p(s) or p(2s + 1): an
exact integer, and ``to_binomial_basis`` returns (c_0, ..., c_n) as a plain
tuple.  The validators compare those coefficients against region counts by
level, computed by a completely separate code path (poset Möbius sums on
one side; on the other, ``regions.level_profile``: the closure walk of
signed digraphs for Coxeter forms, the LP walk of the regions otherwise),
one report row per level.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .arrangement import Arrangement, DegenerateDeformationError, Kind, is_nondegenerate
from .poset import CharPoly, char_poly
from .regions import level_profile


class BasisKind(str, Enum):
    STANDARD = "standard"
    SHIFTED_HALF = "shifted_half"


def to_binomial_basis(p: CharPoly, kind: BasisKind) -> tuple[int, ...]:
    """Exact (c_0, ..., c_n) with p(t) = sum_k c_k * basis_k(t), by forward differences."""
    shifted = kind == BasisKind.SHIFTED_HALF
    values = [p.evaluate(2 * s + 1 if shifted else s) for s in range(len(p.coeffs))]
    coeffs = []
    while values:
        coeffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Theorem validators
# ---------------------------------------------------------------------------


class ExpansionRow(NamedTuple):
    """One level's comparison: expansion coefficient vs signed region count."""

    level: int
    coefficient: int
    signed_count: int
    region_count: int

    @property
    def ok(self) -> bool:
        return self.coefficient == self.signed_count


class VerificationReport(NamedTuple):
    """Per-level comparison of the two independently computed sides, one row per level."""

    chi: CharPoly
    rows: tuple[ExpansionRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


def _verify_expansion(arr: Arrangement, kind: Kind, basis: BasisKind) -> VerificationReport:
    report = is_nondegenerate(arr, kind)
    if not report.ok:
        raise DegenerateDeformationError(report.explanation())
    chi = char_poly(arr)
    n = arr.dim
    rows = tuple(
        ExpansionRow(level=k, coefficient=c, signed_count=(-1) ** (n - k) * r, region_count=r)
        for k, (c, r) in enumerate(zip(to_binomial_basis(chi, basis), level_profile(arr), strict=True))
    )
    return VerificationReport(chi, rows)


def verify_type_a_expansion(arr: Arrangement) -> VerificationReport:
    """Check c_k = (-1)^(n-k) r_k in the standard binomial basis.

    Requires a non-degenerate type A deformation; degenerate input is refused
    with a DegenerateDeformationError naming the missing directions.
    """
    return _verify_expansion(arr, Kind.TYPE_A, BasisKind.STANDARD)


def verify_type_b_expansion(arr: Arrangement) -> VerificationReport:
    """Check c_k = (-1)^(n-k) r_k in the shifted-half binomial basis."""
    return _verify_expansion(arr, Kind.TYPE_B, BasisKind.SHIFTED_HALF)


class ZaslavskyResult(NamedTuple):
    chi_at_minus_one_signed: int
    region_count: int

    @property
    def ok(self) -> bool:
        return self.chi_at_minus_one_signed == self.region_count


def zaslavsky_check(arr: Arrangement) -> ZaslavskyResult:
    """Compare (-1)^n chi(-1) with the region count, the sum of the level profile."""
    chi = char_poly(arr)
    signed = (-1) ** arr.dim * chi.evaluate(-1)
    return ZaslavskyResult(int(signed), sum(level_profile(arr)))
