from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelarr import exactmath
from levelarr.arrangement import make_cox_b
from levelarr.regions import enumerate_regions, region_level
from levelarr.exactmath import (
    as_scalar,
    as_vector,
    cone_span_dimension,
    dot,
    feasible_strict,
    solve_affine,
)
from levelarr.exactmath import (
    _EmptyIntersection,
    _IntTableau,
    _fm_witness,
    _int_row,
    _pivot,
    _reduce,
    _simplex_witness,
)


def fold(equations):
    """Canonical system of ``a . x = b`` equations, folded in the given order."""
    system = ()
    for a, b in equations:
        system = _reduce(system, _int_row(as_vector(a), as_scalar(b))) or system
    return system


def rank(rows):
    dim = len(rows[0])
    return dim - solve_affine([(row, 0) for row in rows], dim).dim


_equations = st.lists(
    st.tuples(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        st.integers(-4, 4),
    ),
    min_size=1,
    max_size=4,
)


class TestRref:
    """The canonical integer system is the reduced row-echelon form, rows scaled
    to primitive integers with positive pivots."""

    def test_identity(self):
        assert rank([[1, 0], [0, 1]]) == 2
        system = fold([((1, 0), 0), ((0, 1), 0)])
        assert system == ((1, 0, 0), (0, 1, 0))
        assert tuple(_pivot(r) for r in system) == (0, 1)

    def test_proportional_rows(self):
        assert rank([[1, -1], [2, -2]]) == 1

    def test_difference_normals_rank(self):
        # Five difference normals in R^3, all orthogonal to (1,1,1); hand
        # Gaussian elimination leaves the two rows e1-e3 and e2-e3.
        normals = [(1, -1, 0), (1, -1, 0), (0, 1, -1), (1, 0, -1), (1, 0, -1)]
        assert rank(normals) == 2
        system = fold([(a, 0) for a in normals])
        assert system == ((1, 0, -1, 0), (0, 1, -1, 0))
        for row in system:
            assert dot(row[:-1], (1, 1, 1)) == 0

    def test_rational_entries_exact(self):
        rows = [[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 2)]]
        assert rank(rows) == 2

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            solve_affine([((0.5, 1.0), 0)], dim=2)

    @given(_equations)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, equations):
        try:
            system = fold(equations)
        except _EmptyIntersection:
            return
        pivots = [_pivot(r) for r in system]
        assert pivots == sorted(set(pivots))
        for i, row in enumerate(system):
            assert gcd(*row) == 1 and row[pivots[i]] > 0
            assert all(other[pivots[i]] == 0 for other in system if other is not row)
        assert fold([(r[:-1], r[-1]) for r in system]) == system

    @given(_equations)
    @settings(max_examples=60, deadline=None)
    def test_fold_order_invariant(self, equations):
        # Flats are keyed by this tuple, so it must not depend on the order in
        # which the hyperplanes were intersected.
        outcomes = set()
        for order in permutations(equations):
            try:
                outcomes.add(fold(order))
            except _EmptyIntersection:
                outcomes.add("empty")
        assert len(outcomes) == 1


class TestSolveAffine:
    def test_parallel_distinct_is_empty(self):
        assert solve_affine([((1, -1), 0), ((1, -1), 1)], dim=2) is None

    def test_single_point_line(self):
        sol = solve_affine([((1,), 0)], dim=1)
        assert sol.point == (0,)
        assert sol.basis == ()

    def test_diagonal_line(self):
        sol = solve_affine([((1, -1, 0), 0), ((0, 1, -1), 0)], dim=3)
        assert sol.dim == 1
        (direction,) = sol.basis
        assert direction[0] == direction[1] == direction[2] != 0

    def test_empty_system_full_space(self):
        sol = solve_affine([], dim=3)
        assert sol.dim == 3
        assert sol.point == (0, 0, 0)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                st.integers(-3, 3),
            ),
            min_size=0,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_solution_satisfies_all_equalities(self, eqs):
        sol = solve_affine(eqs, dim=3)
        if sol is None:
            return
        for normal, offset in eqs:
            assert dot(normal, sol.point) == as_scalar(offset)
            for b in sol.basis:
                assert dot(normal, b) == 0


class TestFeasibleStrict:
    def test_open_unit_interval(self):
        witness = feasible_strict([((1,), 0, 1), ((1,), 1, -1)], dim=1)
        assert witness is not None
        assert 0 < witness[0] < 1

    def test_contradictory_halves(self):
        assert feasible_strict([((1,), 0, 1), ((1,), 0, -1)], dim=1) is None

    def test_all_positive_side_of_example(self, example_a):
        constraints = [(h.normal, h.offset, 1) for h in example_a.hyperplanes]
        witness = feasible_strict(constraints, dim=3)
        assert witness is not None
        for h in example_a.hyperplanes:
            assert h.evaluate(witness) > 0

    def test_with_equalities(self):
        witness = feasible_strict(
            [((1, 0), 0, 1)], [((0, 1), Fraction(1, 2))], dim=2
        )
        assert witness is not None
        assert witness[1] == Fraction(1, 2)
        assert witness[0] > 0

    def test_inconsistent_equalities(self):
        assert feasible_strict([], [((1,), 0), ((1,), 1)], dim=1) is None

    def test_constraint_vacuous_after_substitution(self):
        # On the line x1 = x2 the constraint x1 - x2 > -1 holds identically,
        # while x1 - x2 > 0 is impossible.
        eq = [((1, -1), 0)]
        assert feasible_strict([((1, -1), -1, 1)], eq, dim=2) is not None
        assert feasible_strict([((1, -1), 0, 1)], eq, dim=2) is None


@st.composite
def _mixed_system(draw):
    d = draw(st.integers(1, 5))
    def row():
        coeffs = draw(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
        )
        return tuple(coeffs) + (draw(st.integers(-3, 3)),)
    strict = [row() for _ in range(draw(st.integers(1, 6)))]
    weak = [row() for _ in range(draw(st.integers(0, 3)))]
    return d, strict, weak


class TestEngineAgreement:
    """Elimination and simplex are independent deciders; they must agree."""

    @given(_mixed_system())
    @settings(max_examples=120, deadline=None)
    def test_fm_matches_simplex(self, system):
        d, strict, weak = system
        by_fm = _fm_witness(list(strict), list(weak), d)
        by_simplex = _simplex_witness(list(strict), list(weak), d)
        assert (by_fm is None) == (by_simplex is None)
        for witness in (by_fm, by_simplex):
            if witness is None:
                continue
            for row in strict:
                assert sum(c * x for c, x in zip(row[:d], witness)) > row[d]
            for row in weak:
                assert sum(c * x for c, x in zip(row[:d], witness)) >= row[d]


@st.composite
def _cone(draw):
    """A random cone with some forced opposite pairs and rescaled duplicates."""
    dim = draw(st.integers(1, 5))
    normal = st.tuples(*[st.integers(-2, 2)] * dim)
    sign = st.sampled_from((1, -1))
    constraints = draw(st.lists(st.tuples(normal, sign), max_size=8))
    extra = []
    for a, s in constraints:
        if draw(st.booleans()):
            extra.append((a, -s))
        if draw(st.booleans()):
            k = draw(st.integers(2, 3))
            extra.append((tuple(k * c for c in a), s))
    return dim, draw(st.permutations(constraints + extra))


class TestConeSpanDimension:
    def test_pinched_axis(self):
        assert cone_span_dimension([((1, 0), 1), ((1, 0), -1)], dim=2) == 1

    def test_unconstrained(self):
        assert cone_span_dimension([], dim=2) == 2

    def test_strip_recession_cone(self, grid_example):
        # Region right of x=0, above y=0 and x+y=1, below y=1: its recession
        # cone is the ray y = 0, x >= 0, so the span has dimension 1.
        signs = [1, 1, 1, -1]
        cone = [(h.normal, s) for h, s in zip(grid_example.hyperplanes, signs)]
        assert cone_span_dimension(cone, dim=2) == 1

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_each_pinned_pair_drops_dimension_by_one(self, dim):
        cone = []
        assert cone_span_dimension(cone, dim=dim) == dim
        for j in range(dim):
            axis = tuple(1 if i == j else 0 for i in range(dim))
            cone += [(axis, 1), (axis, -1)]
            assert cone_span_dimension(cone, dim=dim) == dim - 1 - j

    def test_dependent_pair_changes_nothing(self):
        cone = [((1, 0), 1), ((1, 0), -1)]
        assert cone_span_dimension(cone + [((2, 0), 1), ((2, 0), -1)], dim=2) == 1

    def test_only_opposite_pairs_runs_no_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("opposite pairs need no LP")

        monkeypatch.setattr(_IntTableau, "minimize", no_lp)
        cone = [((1, 0, 0), 1), ((1, 0, 0), -1), ((0, 1, -1), 1), ((0, -2, 2), 1)]
        assert cone_span_dimension(cone, dim=3) == 1

    def test_pointed_cone_without_opposite_pairs(self):
        # d1 >= 0, d2 >= 0, d1 + d2 <= 0 leaves only the origin; no row is
        # the negation of another, so only the LP can find the equalities.
        cone = [((1, 0), 1), ((0, 1), 1), ((1, 1), -1)]
        assert cone_span_dimension(cone, dim=2) == 0

    def test_zero_normal_is_ignored(self):
        assert cone_span_dimension([((0, 0), 1)], dim=2) == 2
        assert cone_span_dimension([((0, 0), -1), ((1, 0), 1), ((1, 0), -1)], dim=2) == 1

    def test_rescaled_duplicates_count_once(self):
        half = Fraction(1, 2)
        assert cone_span_dimension([((1, 1), 1), ((2, 2), 1), ((half, half), 1)], dim=2) == 2
        cone = [((1, 0), 1), ((3, 0), 1), ((-2, 0), 1), ((-half, 0), 1)]
        assert cone_span_dimension(cone, dim=2) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cone_span_dimension([((1, 0, 0), 1)], dim=2)
        with pytest.raises(ValueError):
            cone_span_dimension([((1, 0), 0)], dim=2)

    @given(_cone())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_row_feasibility(self, cone):
        # Reference: row r is implicit iff r . d > 0 has no solution on the
        # cone, decided one row at a time by Fourier-Motzkin or the two-phase
        # simplex.  Fourier-Motzkin stops at R^3 here: with opposite pairs in
        # R^4 its last elimination can build a million rows.
        dim, constraints = cone
        rows = [
            tuple(s * c for c in a) + (0,) for a, s in constraints if any(a)
        ]
        engine = _fm_witness if dim <= 3 else _simplex_witness
        implicit = [r for r in rows if engine([r], rows, dim) is None]
        expected = dim - len(fold([(r[:-1], 0) for r in implicit]))
        assert cone_span_dimension(constraints, dim=dim) == expected

    def test_one_lp_per_call(self, monkeypatch):
        arr = make_cox_b(3)
        regions = enumerate_regions(arr)

        def no_feasibility_test(*args):
            raise AssertionError("cone_span_dimension ran a per-row feasibility test")

        calls = []
        minimize = _IntTableau.minimize

        def counted(self, *args):
            calls.append(1)
            return minimize(self, *args)

        monkeypatch.setattr(exactmath, "_feasible_system", no_feasibility_test)
        monkeypatch.setattr(_IntTableau, "minimize", counted)
        for region in regions:
            calls.clear()
            assert region_level(arr, region) == region.level
            assert len(calls) <= 1
