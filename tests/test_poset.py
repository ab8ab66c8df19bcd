import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelarr import poset as poset_module
from levelarr.arrangement import (
    Arrangement,
    Hyperplane,
    delete,
    make_cox_a,
    make_cox_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
    restrict,
)
from levelarr.exactmath import _EmptyIntersection, _reduce
from levelarr.poset import CharPoly, Flat, build_poset, char_poly


def dot(a, b):
    """Test-local exact dot product of two rational vectors."""
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def hp(normal, offset=0):
    return Hyperplane(normal, offset)


def poly_from_roots(roots) -> tuple[int, ...]:
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [c - r * d for c, d in zip(shifted, coeffs + [0])]
    return tuple(coeffs)


def test_poly_from_roots_helper():
    # (t-1)(t-2) = t^2 - 3t + 2, ascending (2, -3, 1)
    assert poly_from_roots([1, 2]) == (2, -3, 1)


class TestBuildPoset:
    def test_empty_arrangement(self):
        poset = build_poset(Arrangement(2, []))
        (bottom,) = poset
        assert bottom.dim == 2
        assert bottom.mobius == 1

    def test_cox_a3_structure(self):
        # The partition-lattice picture: R^3, three planes, one line.
        poset = build_poset(make_cox_a(3))
        assert len(poset) == 5
        planes = [f for f in poset if f.codim == 1]
        assert len(planes) == 3
        assert all(f.mobius == -1 for f in planes)
        (line,) = [f for f in poset if f.codim == 2]
        assert line.dim == 1
        assert line.mobius == 2
        assert line.containing == frozenset({0, 1, 2})

    def test_flat_geometry_is_consistent(self, example_a, affine_solution, side):
        poset = build_poset(example_a)
        assert len({f.rows for f in poset}) == len(poset)  # pairwise distinct
        for flat in poset:
            point, basis = affine_solution([(r[:-1], r[-1]) for r in flat.rows], example_a.dim)
            assert flat.dim == len(basis)
            for idx in flat.containing:
                h = example_a.hyperplanes[idx]
                assert side(h, point) == 0
                assert all(dot(h.normal, b) == 0 for b in basis)
            # maximality: no other hyperplane contains the flat
            for idx, h in enumerate(example_a.hyperplanes):
                if idx not in flat.containing:
                    assert side(h, point) != 0 or any(
                        dot(h.normal, b) != 0 for b in basis
                    )

    def test_mobius_recursion_sums_to_zero(self, example_a, example_b):
        for arr in (example_a, example_b, make_cox_b(2)):
            poset = build_poset(arr)
            for x in poset:
                total = sum(y.mobius for y in poset if y.containing <= x.containing)
                assert total == (1 if x is poset.flats[0] else 0)

    def test_mobius_alternation(self, example_a, grid_example):
        for arr in (example_a, grid_example, make_cox_b(3)):
            for flat in build_poset(arr):
                assert flat.mobius != 0
                assert (flat.mobius > 0) == (flat.codim % 2 == 0)


def reference_flats(arr: Arrangement) -> tuple[Flat, ...]:
    """The poset as a plain BFS builds it: one ``_reduce`` per (flat, hyperplane)
    pair, containing sets from the hyperplanes that reduce to nothing, and
    Möbius values from a scan of every earlier flat."""
    n = arr.dim
    hrows = [h.row for h in arr.hyperplanes]
    containing_of = {}
    order = []
    level = [()]
    known = {()}
    while level:
        next_level = set()
        for rows in level:
            children = []
            containing = []
            for idx, hrow in enumerate(hrows):
                try:
                    reduced = _reduce(rows, hrow)
                except _EmptyIntersection:
                    continue
                if reduced is None:
                    containing.append(idx)
                else:
                    children.append(reduced)
            containing_of[rows] = frozenset(containing)
            order.append(rows)
            for child in children:
                if child not in known:
                    known.add(child)
                    next_level.add(child)
        level = sorted(next_level)

    mobius_of = {}
    seen = []
    for rows in order:
        containing = containing_of[rows]
        mu = 1 if not rows else -sum(m for c, m in seen if c <= containing)
        mobius_of[rows] = mu
        seen.append((containing, mu))
    return tuple(
        Flat(rows=rows, dim=n - len(rows), containing=containing_of[rows], mobius=mobius_of[rows])
        for rows in order
    )


def _coxeter_normals(n: int) -> list[tuple[int, ...]]:
    """Type A and B forms in R^n: x_i, x_i - x_j and x_i + x_j."""
    normals = []
    for i in range(n):
        normals.append(tuple(int(k == i) for k in range(n)))
        for j in range(i + 1, n):
            for sign in (-1, 1):
                normals.append(tuple(1 if k == i else sign if k == j else 0 for k in range(n)))
    return normals


@st.composite
def _arrangements(draw):
    """Arrangements in R^1..R^4 of Coxeter forms and small general normals.

    Offsets in {-1, 0, 1} (three draws in four) make coincidences likely:
    non-Boolean lower intervals, parallel hyperplanes and empty
    intersections.  Eighths in [-3, 3] make them rare.
    """
    n = draw(st.integers(1, 4))
    general = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    coxeter = st.sampled_from(_coxeter_normals(n))
    normal = st.one_of(coxeter, coxeter, general)
    if draw(st.integers(0, 3)):
        offset = st.integers(-1, 1)
    else:
        offset = st.integers(-24, 24).map(lambda k: Fraction(k, 8))
    count = draw(st.integers(n + 1, 9 if n < 4 else 7))
    planes = st.builds(hp, normal, offset)
    return Arrangement(n, draw(st.lists(planes, min_size=count, max_size=count, unique_by=lambda h: h.row)))


class TestGroupedResiduals:
    """``build_poset`` against the per-pair reference, and its work bound."""

    @given(_arrangements())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pair_reference(self, arr):
        assert build_poset(arr).flats == reference_flats(arr)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_cox_a(5),
            lambda: make_m_catalan(4, 1),
            lambda: make_cox_b(4),
            lambda: random_deformation_a(5, random.Random(7), 2),
        ],
        ids=["cox_a5", "m_catalan_4_1", "cox_b4", "random_a5_seed7"],
    )
    def test_matches_reference_on_fixed_cases(self, make):
        arr = make()
        assert build_poset(arr).flats == reference_flats(arr)

    @pytest.mark.parametrize(
        "arr",
        [make_cox_a(4), make_cox_b(3), make_m_catalan(3, 1), random_deformation_a(4, random.Random(7), 2)],
        ids=["cox_a4", "cox_b3", "m_catalan_3_1", "random_a4_seed7"],
    )
    def test_one_merge_per_new_flat(self, arr, monkeypatch):
        calls = []

        def counting_reduce(rows, row):
            calls.append(row)
            return _reduce(rows, row)

        monkeypatch.setattr(poset_module, "_reduce", counting_reduce)
        poset = build_poset(arr)
        assert len(calls) == len(poset) - 1

    def test_zero_residual_outside_containing_set_raises(self, monkeypatch):
        # A hyperplane that reduces to nothing at a flat must already be in
        # the flat's containing set; anything else is an elimination fault.
        def zero_residual(rows, pivots, row):
            return [0] * len(row) if rows else row

        monkeypatch.setattr(poset_module, "_residual", zero_residual)
        with pytest.raises(ArithmeticError):
            build_poset(make_cox_a(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cox_a_top_is_partition_lattice_top(self, n):
        # The top of the partition lattice of [n] has mu = (-1)^(n-1) (n-1)!.
        (top,) = [f for f in build_poset(make_cox_a(n)) if f.codim == n - 1]
        assert top.dim == 1
        assert top.mobius == (-1) ** (n - 1) * math.factorial(n - 1)

    def test_boolean_lower_intervals(self, example_a):
        arrangements = [example_a, make_cox_b(3), make_m_catalan(3, 1), random_deformation_a(4, random.Random(3), 2)]
        boolean = 0
        for arr in arrangements:
            for flat in build_poset(arr):
                if len(flat.containing) == flat.codim:
                    boolean += 1
                    assert flat.mobius == (-1) ** flat.codim
                else:
                    assert len(flat.containing) > flat.codim
        assert boolean > 0


class TestCharPoly:
    def test_worked_example_a(self, example_a):
        assert char_poly(example_a).coeffs == (0, 6, -5, 1)

    def test_worked_example_b(self, example_b):
        assert char_poly(example_b).coeffs == (5, -4, 1)

    def test_grid_example(self, grid_example):
        assert char_poly(grid_example).coeffs == (4, -4, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cox_a_falling_factorial(self, n):
        assert char_poly(make_cox_a(n)).coeffs == poly_from_roots(range(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cox_b_odd_roots(self, n):
        expected = poly_from_roots([2 * j - 1 for j in range(1, n + 1)])
        assert char_poly(make_cox_b(n)).coeffs == expected

    def test_monic_integer_coefficients(self, example_a):
        cp = char_poly(example_a)
        assert cp.degree == 3
        assert cp.coeffs[-1] == 1
        assert all(isinstance(c, int) for c in cp.coeffs)

    def test_rational_offsets_still_integer_chi(self):
        arr = Arrangement(2, [hp((1, -1), Fraction(1, 2)), hp((1, -1), 0), hp((1, 0), Fraction(3, 2))])
        cp = char_poly(arr)
        assert all(isinstance(c, int) for c in cp.coeffs)
        assert cp.coeffs == (2, -3, 1)

    def test_str_formatting(self):
        assert str(CharPoly((0, 6, -5, 1))) == "t^3 - 5t^2 + 6t"
        assert str(CharPoly((0, 0, 1))) == "t^2"
        assert str(CharPoly((1,))) == "1"
        assert str(CharPoly((5, -4, 1))) == "t^2 - 4t + 5"

    def test_evaluate_exact(self):
        cp = CharPoly((0, 6, -5, 1))
        assert cp.evaluate(7) == 140
        assert cp.evaluate(Fraction(1, 2)) == Fraction(1, 8) - Fraction(5, 4) + 3


def padded(cp: CharPoly, width: int) -> tuple[int, ...]:
    return tuple(cp.coeffs) + (0,) * (width - len(cp.coeffs))


class TestDeletionRestriction:
    def assert_triple_identity(self, arr):
        width = arr.dim + 1
        whole = padded(char_poly(arr), width)
        for h_index in range(len(arr)):
            deleted = padded(char_poly(delete(arr, h_index)), width)
            restricted = padded(char_poly(restrict(arr, h_index)[0]), width)
            assert whole == tuple(d - r for d, r in zip(deleted, restricted))

    def test_on_worked_examples(self, example_a, example_b, grid_example):
        for arr in (example_a, example_b, grid_example):
            self.assert_triple_identity(arr)

    def test_on_random_deformations(self):
        rng = random.Random(2024)
        for _ in range(6):
            self.assert_triple_identity(random_deformation_a(3, rng))
        for _ in range(4):
            self.assert_triple_identity(random_deformation_b(2, rng))

    def test_on_r1_arrangement(self):
        arr = Arrangement(1, [hp((1,), 0), hp((1,), 1), hp((1,), Fraction(5, 2))])
        self.assert_triple_identity(arr)
