import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelarr.arrangement import (
    Arrangement,
    DegenerateDeformationError,
    delete,
    make_cox_a,
    make_cox_b,
    make_deformation_b,
    random_deformation_a,
    random_deformation_b,
)
from levelarr.expansion import (
    BasisKind,
    to_binomial_basis,
    verify_type_a_expansion,
    verify_type_b_expansion,
    zaslavsky_check,
)
from levelarr.poset import CharPoly


def basis_polynomial(kind: BasisKind, k: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the degree-k basis polynomial in t.

    The product form of the basis, independent of the forward differences
    that ``to_binomial_basis`` takes.
    """
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


def coefficients(report) -> tuple[int, ...]:
    return tuple(row.coefficient for row in report.rows)


class TestBasisPolynomials:
    def test_standard_low_degrees(self):
        assert basis_polynomial(BasisKind.STANDARD, 0) == (1,)
        assert basis_polynomial(BasisKind.STANDARD, 1) == (0, 1)
        # C(t,2) = (t^2 - t)/2
        assert basis_polynomial(BasisKind.STANDARD, 2) == (0, Fraction(-1, 2), Fraction(1, 2))

    def test_shifted_half_low_degrees(self):
        assert basis_polynomial(BasisKind.SHIFTED_HALF, 0) == (1,)
        # C((t-1)/2, 1) = (t-1)/2
        assert basis_polynomial(BasisKind.SHIFTED_HALF, 1) == (Fraction(-1, 2), Fraction(1, 2))
        # C((t-1)/2, 2) = (t-1)(t-3)/8
        assert basis_polynomial(BasisKind.SHIFTED_HALF, 2) == (
            Fraction(3, 8),
            Fraction(-1, 2),
            Fraction(1, 8),
        )


class TestToBinomialBasis:
    def test_worked_example_a_coefficients(self):
        assert to_binomial_basis(CharPoly((0, 6, -5, 1)), BasisKind.STANDARD) == (0, 2, -4, 6)

    def test_worked_example_b_coefficients(self):
        assert to_binomial_basis(CharPoly((5, -4, 1)), BasisKind.SHIFTED_HALF) == (2, 0, 8)

    def test_linear_monomial(self):
        assert to_binomial_basis(CharPoly((0, 1)), BasisKind.STANDARD) == (0, 1)

    @given(
        st.lists(st.integers(-8, 8), min_size=1, max_size=6),
        st.sampled_from([BasisKind.STANDARD, BasisKind.SHIFTED_HALF]),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, coeffs, kind):
        expansion = to_binomial_basis(CharPoly(tuple(coeffs)), kind)
        assert type(expansion) is tuple and all(type(c) is int for c in expansion)
        expanded = [Fraction(0)] * len(coeffs)
        for k, c in enumerate(expansion):
            for i, b in enumerate(basis_polynomial(kind, k)):
                expanded[i] += c * b
        assert tuple(expanded) == tuple(Fraction(c) for c in coeffs)


class TestVerifyTypeA:
    def test_worked_example_passes(self, example_a):
        report = verify_type_a_expansion(example_a)
        assert report.passed
        assert [r.region_count for r in report.rows] == [0, 2, 4, 6]
        assert [r.coefficient for r in report.rows] == [0, 2, -4, 6]
        assert [r.signed_count for r in report.rows] == [0, 2, -4, 6]

    def test_cox_a3_single_term(self):
        report = verify_type_a_expansion(make_cox_a(3))
        assert report.passed
        assert coefficients(report) == (0, 0, 0, 6)

    def test_random_deformations_pass(self):
        rng = random.Random(5150)
        for _ in range(5):
            report = verify_type_a_expansion(random_deformation_a(3, rng))
            assert report.passed

    def test_degenerate_input_refused(self, example_a):
        broken = delete(delete(example_a, 1), 0)
        with pytest.raises(DegenerateDeformationError, match="missing direction"):
            verify_type_a_expansion(broken)

    def test_integer_coefficients_with_alternating_signs(self):
        rng = random.Random(62)
        report = verify_type_a_expansion(random_deformation_a(3, rng))
        n = 3
        for k, c in enumerate(coefficients(report)):
            assert c.denominator == 1
            assert (-1) ** (n - k) * c >= 0


class TestVerifyTypeB:
    def test_worked_example_passes(self, example_b):
        report = verify_type_b_expansion(example_b)
        assert report.passed
        assert coefficients(report) == (2, 0, 8)

    def test_cox_b2_single_term(self):
        report = verify_type_b_expansion(make_cox_b(2))
        assert report.passed
        assert coefficients(report) == (0, 0, 8)

    def test_line_deformation_base_case(self):
        # x1 = 0, 1, 3/2: chi = t - 3; two rays (level 1) and two bounded
        # segments (level 0); coefficients (1-k, 2) with k = 3 hyperplanes.
        arr = make_deformation_b(1, {1: [0, 1, Fraction(3, 2)]}, {}, {})
        report = verify_type_b_expansion(arr)
        assert report.passed
        assert tuple(r.region_count for r in report.rows) == (2, 2)
        assert coefficients(report) == (-2, 2)

    def test_random_deformations_pass(self):
        rng = random.Random(5151)
        for _ in range(4):
            report = verify_type_b_expansion(random_deformation_b(2, rng))
            assert report.passed

    def test_type_a_input_refused(self, example_a):
        with pytest.raises(DegenerateDeformationError):
            verify_type_b_expansion(example_a)


class TestZaslavsky:
    def test_grid_example(self, grid_example):
        result = zaslavsky_check(grid_example)
        assert (result.chi_at_minus_one_signed, result.region_count) == (9, 9)
        assert result.ok

    def test_empty_line(self):
        result = zaslavsky_check(Arrangement(1, []))
        assert (result.chi_at_minus_one_signed, result.region_count) == (1, 1)

    def test_worked_example_b(self, example_b):
        result = zaslavsky_check(example_b)
        assert (result.chi_at_minus_one_signed, result.region_count) == (10, 10)

    def test_expansion_at_minus_one_matches(self, example_a, example_b):
        # Evaluating either expansion at t = -1 turns every basis element
        # into (-1)^k, so the sum collapses to (-1)^n times the region count.
        for arr, verify in ((example_a, verify_type_a_expansion), (example_b, verify_type_b_expansion)):
            report = verify(arr)
            value = sum(c * (-1) ** k for k, c in enumerate(coefficients(report)))
            z = zaslavsky_check(arr)
            assert value == (-1) ** arr.dim * z.region_count
            assert z.ok
