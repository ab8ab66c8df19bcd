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
    _feasible_system,
    _int_row,
    _pivot,
    _reduce,
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


# --- test-local reference: Fourier-Motzkin elimination ----------------------
#
# An independent decider: it shares no code with the package's simplex.  A
# row (c_1, ..., c_d, r) reads c . y > r (strict) or c . y >= r (weak).  Its
# row count can grow doubly exponentially with the dimension, so the tests
# keep it to small systems.


def _primitive_lhs(row):
    *lhs, rhs = row
    g = 0
    for c in lhs:
        g = gcd(g, c)
    if g == 0:
        return tuple(lhs), Fraction(rhs)
    return tuple(c // g for c in lhs), Fraction(rhs, g)


class _Infeasible(Exception):
    pass


def _dedup(rows):
    """Keep, per lhs direction, only the tightest rhs; flag constant rows."""
    best = {}
    for lhs, rhs in rows:
        if not any(lhs):
            if rhs > 0:
                raise _Infeasible
            continue
        cur = best.get(lhs)
        if cur is None or rhs > cur:
            best[lhs] = rhs
    return list(best.items())


def _fm_witness(strict_rows, weak_rows, dim):
    """Maximize a slack eps (capped at 1) by eliminating y_0..y_{dim-1} in order;
    the strict system is feasible iff eps can be positive.  Returns the exact
    interval-center witness, or None."""
    rows = [_primitive_lhs(row[:dim] + (-1, row[dim])) for row in strict_rows]
    rows += [_primitive_lhs(row[:dim] + (0, row[dim])) for row in weak_rows]
    rows.append(((0,) * dim + (-1,), Fraction(-1)))  # eps <= 1 cap

    steps = []
    try:
        live = _dedup(rows)
        for k in range(dim):
            involved = [r for r in live if r[0][k] != 0]
            steps.append(involved)
            carried = [r for r in live if r[0][k] == 0]
            pos = [r for r in involved if r[0][k] > 0]
            neg = [r for r in involved if r[0][k] < 0]
            combos = []
            for plhs, prhs in pos:
                for nlhs, nrhs in neg:
                    lp, ln = -nlhs[k], plhs[k]
                    lhs = tuple(lp * a + ln * b for a, b in zip(plhs, nlhs))
                    combos.append((lhs, lp * prhs + ln * nrhs))
            live = _dedup(carried + combos)
    except _Infeasible:
        return None

    sup = Fraction(1)
    for lhs, rhs in live:
        sup = min(sup, Fraction(rhs, lhs[dim]))
    if sup <= 0:
        return None

    values = [Fraction(0)] * (dim + 1)
    values[dim] = sup / 2
    for k in range(dim - 1, -1, -1):
        lo = hi = None
        for lhs, rhs in steps[k]:
            rest = sum((lhs[j] * values[j] for j in range(k + 1, dim + 1)), Fraction(0))
            bound = (rhs - rest) / lhs[k]
            if lhs[k] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            values[k] = (lo + hi) / 2
        elif lo is not None:
            values[k] = lo + 1
        elif hi is not None:
            values[k] = hi - 1
    return tuple(values[:dim])


def _strictly_inside(rows, point):
    return all(sum(c * x for c, x in zip(row, point)) > row[-1] for row in rows)


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
    """Elimination and the simplex are independent deciders; they must agree."""

    @given(_mixed_system())
    @settings(max_examples=120, deadline=None)
    def test_fm_matches_simplex(self, system):
        # The simplex decides strict systems only.  Weak rows would send the
        # reference's elimination past 20,000 rows on some draws in R^5.
        d, strict, _ = system
        by_fm = _fm_witness(list(strict), [], d)
        by_simplex = feasible_strict([(row[:d], row[d], 1) for row in strict], dim=d)
        assert (by_fm is None) == (by_simplex is None)
        for witness in (by_fm, by_simplex):
            if witness is not None:
                assert _strictly_inside(strict, witness)


class TestIntTableau:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_pivot_matches_rational_dictionary(self, data):
        # Fraction-free pivots, skipped rows and negative pivots included, must
        # give exactly the rational dictionary x_B = b + A x_N over den.
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        entry = st.integers(-4, 4)
        rows = [[data.draw(entry) for _ in range(n + 1)] for _ in range(m)]
        tab = _IntTableau([row[:] for row in rows], 0)
        exact = [[Fraction(v) for v in row] for row in rows]
        for _ in range(data.draw(st.integers(1, 6))):
            nonzero = [(i, j) for i in range(m) for j in range(n) if exact[i][j]]
            if not nonzero:
                break
            r, c = data.draw(st.sampled_from(nonzero))
            a = exact[r][c]
            solved = [-v / a for v in exact[r]]
            solved[c] = 1 / a
            for i in range(m):
                if i != r:
                    f = exact[i][c]
                    exact[i] = [v + f * w for v, w in zip(exact[i], solved)]
                    exact[i][c] = f / a
            exact[r] = solved
            tab.pivot(r, c)
            assert tab.den > 0
            assert [[Fraction(v, tab.den) for v in row] for row in tab.rows] == exact


@st.composite
def _split_case(draw):
    """Old rows around a witness that lies strictly inside them by construction,
    and a new row that the witness does not satisfy strictly.

    ``above`` puts the witness strictly on the wrong side of the new row
    (h > 0) and ``on`` puts it on the new hyperplane (h = 0).  ``ray`` also
    turns every old normal c so that c . g >= 0 for the new normal g, so the
    new form grows without bound along g and the system is feasible.
    """
    dim = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    positive = st.builds(Fraction, st.integers(1, 8), st.integers(1, 4))
    witness = tuple(draw(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))) for _ in range(dim))
    case = draw(st.sampled_from(("above", "on", "ray")))
    g = draw(normal)
    rows = []
    for c in draw(st.lists(normal, max_size=6)):
        if case == "ray" and dot(c, g) < 0:
            c = tuple(-x for x in c)
        rows.append(_int_row(as_vector(c), dot(c, witness) - draw(positive)))
    gap = 0 if case == "on" else draw(positive)
    return case, witness, rows, _int_row(as_vector(g), dot(g, witness) + gap)


class TestSplitTest:
    """The warm-started split test against the test-local elimination."""

    @given(_split_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_elimination(self, split):
        case, witness, rows, row = split
        assert _strictly_inside(rows, witness)
        result = _feasible_system(rows, witness, row)
        assert (result is None) == (_fm_witness(rows + [row], [], len(witness)) is None)
        if case == "ray":
            assert result is not None
        if result is not None:
            assert _strictly_inside(rows + [row], result)

    def test_unbounded_ray(self, monkeypatch):
        rays = []
        minimize = _IntTableau.minimize

        def spy(self, *args):
            rays.append(minimize(self, *args))
            return rays[-1]

        monkeypatch.setattr(_IntTableau, "minimize", spy)
        origin = (Fraction(0), Fraction(0))
        # The root region has no rows: every split test there is a ray.
        assert _strictly_inside([(1, -1, 5)], _feasible_system([], origin, (1, -1, 5)))
        # From (1, 1) in the open quadrant, x + y > 10 lies along a ray.
        rows = [(1, 0, 0), (0, 1, 0)]
        witness = _feasible_system(rows, (Fraction(1), Fraction(1)), (1, 1, 10))
        assert _strictly_inside(rows + [(1, 1, 10)], witness)
        assert len(rays) == 2 and None not in rays

    def test_witness_on_the_new_hyperplane(self):
        # 0 < x < 2 from x = 1: both sides of x = 1 split off.
        rows = [(1, 0), (-1, -2)]
        for row in [(1, 1), (-1, -1)]:
            assert _strictly_inside(rows + [row], _feasible_system(rows, (Fraction(1),), row))
        assert _feasible_system(rows, (Fraction(1),), (1, 2)) is None

    def test_witness_already_inside_is_returned(self):
        witness = (Fraction(1, 3),)
        assert _feasible_system([(1, 0)], witness, (1, -1)) is witness


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
        # cone, decided one row at a time: by Fourier-Motzkin up to R^3 and
        # above by maximizing r . d over the cone on the simplex dictionary
        # (bounded, at 0, exactly when r is implicit).  Fourier-Motzkin stops
        # at R^3 here: with opposite pairs in R^4 its last elimination can
        # build a million rows.
        dim, constraints = cone
        rows = [
            tuple(s * c for c in a) + (0,) for a, s in constraints if any(a)
        ]

        def implicit_row(r):
            if dim <= 3:
                return _fm_witness([r], rows, dim) is None
            tab = _IntTableau([list(q) for q in rows] + [[-c for c in r[:-1]] + [0]], dim)
            return tab.minimize(len(rows)) is None

        implicit = [r for r in rows if implicit_row(r)]
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
