"""Binomial-basis expansions of the characteristic polynomial and validators.

A characteristic polynomial of degree n has a unique expansion over either
falling-binomial basis:

* standard:      C(t, k) = t (t-1) ... (t-k+1) / k!
* shifted half:  C((t-1)/2, k) = (t-1)(t-3)...(t-1-2(k-1)) / (2^k k!)

Both bases are triangular (the degree-k element has degree exactly k), so the
coefficients come out of an exact back-substitution.  The validators compare
those coefficients against region counts by level, computed by a completely
separate code path (poset Möbius sums on one side, incremental region
enumeration plus recession cones on the other).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .arrangement import Arrangement, DegenerateDeformationError, Kind, is_nondegenerate
from .poset import CharPoly, char_poly
from .regions import LevelProfile, enumerate_regions, level_profile


class BasisKind(str, Enum):
    STANDARD = "standard"
    SHIFTED_HALF = "shifted_half"


def basis_polynomial(kind: BasisKind, k: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the degree-k basis polynomial in t."""
    coeffs = [Fraction(1)]
    for j in range(k):
        if kind == BasisKind.STANDARD:
            root, scale = Fraction(j), Fraction(j + 1)
        else:
            root, scale = Fraction(1 + 2 * j), Fraction(2 * (j + 1))
        # multiply by (t - root) / scale
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c / scale
            nxt[i] -= c * root / scale
        coeffs = nxt
    return tuple(coeffs)


@dataclass(frozen=True)
class BinomialExpansion:
    """Coefficients c_0..c_n with p(t) = sum_k c_k * basis_k(t), exactly."""

    basis: BasisKind
    coeffs: tuple[Fraction, ...]


def to_binomial_basis(p: CharPoly, kind: BasisKind) -> BinomialExpansion:
    """Exact change of basis by back-substitution from the top degree down."""
    remaining = [Fraction(c) for c in p.coeffs]
    n = len(remaining) - 1
    out = [Fraction(0)] * (n + 1)
    for k in range(n, -1, -1):
        basis = basis_polynomial(kind, k)
        c = remaining[k] / basis[k]
        out[k] = c
        if c:
            for i, b in enumerate(basis):
                remaining[i] -= c * b
    if any(remaining):
        raise ArithmeticError("basis conversion left a nonzero remainder")
    return BinomialExpansion(kind, tuple(out))


# ---------------------------------------------------------------------------
# Theorem validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionRow:
    """One level's comparison: expansion coefficient vs signed region count."""

    level: int
    coefficient: Fraction
    signed_count: int
    region_count: int

    @property
    def ok(self) -> bool:
        return self.coefficient == self.signed_count


@dataclass(frozen=True)
class VerificationReport:
    """Per-level comparison of the two independently computed sides."""

    kind: Kind
    basis: BasisKind
    chi: CharPoly
    profile: LevelProfile
    expansion: BinomialExpansion
    rows: tuple[ExpansionRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


def _verify_expansion(arr: Arrangement, kind: Kind, basis: BasisKind) -> VerificationReport:
    report = is_nondegenerate(arr, kind)
    if not report.ok:
        raise DegenerateDeformationError(report.explanation(), report.missing)
    chi = char_poly(arr)
    profile = level_profile(arr)
    expansion = to_binomial_basis(chi, basis)
    n = arr.dim
    rows = tuple(
        ExpansionRow(
            level=k,
            coefficient=expansion.coeffs[k],
            signed_count=(-1) ** (n - k) * profile.counts[k],
            region_count=profile.counts[k],
        )
        for k in range(n + 1)
    )
    return VerificationReport(kind, basis, chi, profile, expansion, rows)


def verify_type_a_expansion(arr: Arrangement) -> VerificationReport:
    """Check c_k = (-1)^(n-k) r_k in the standard binomial basis.

    Requires a non-degenerate type A deformation; degenerate input is refused
    with a DegenerateDeformationError naming the missing directions.
    """
    return _verify_expansion(arr, Kind.TYPE_A, BasisKind.STANDARD)


def verify_type_b_expansion(arr: Arrangement) -> VerificationReport:
    """Check c_k = (-1)^(n-k) r_k in the shifted-half binomial basis."""
    return _verify_expansion(arr, Kind.TYPE_B, BasisKind.SHIFTED_HALF)


@dataclass(frozen=True)
class ZaslavskyResult:
    chi_at_minus_one_signed: int
    region_count: int

    @property
    def ok(self) -> bool:
        return self.chi_at_minus_one_signed == self.region_count


def zaslavsky_check(arr: Arrangement) -> ZaslavskyResult:
    """Compare (-1)^n chi(-1) with the enumerated region count."""
    chi = char_poly(arr)
    signed = (-1) ** arr.dim * chi.evaluate(-1)
    return ZaslavskyResult(int(signed), len(enumerate_regions(arr)))
