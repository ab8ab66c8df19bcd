from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelarr import exactmath
from levelarr.arrangement import Hyperplane, make_cox_b
from levelarr.regions import enumerate_regions
from levelarr.exactmath import (
    as_scalar,
    as_vector,
    cone_span_dimension,
)
from levelarr.exactmath import (
    _IntTableau,
    _feasible_system,
    _int_row,
    _normalize,
    _rank,
    _step,
)

from conftest import _EmptyIntersection, _pivot, _reduce, _strict_row, dot


def fold(equations):
    """Canonical system of ``a . x = b`` equations, folded in the given order
    by the tests' reference ``_reduce``."""
    system = ()
    for a, b in equations:
        system = _reduce(system, _int_row(as_vector(a), as_scalar(b))) or system
    return system


def rank(rows):
    """The package's ``_rank`` of rational rows, each scaled to integers first."""
    return _rank(_int_row(as_vector(row), Fraction(0))[:-1] for row in rows)


_equations = st.lists(
    st.tuples(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        st.integers(-4, 4),
    ),
    min_size=1,
    max_size=4,
)


class TestRref:
    """``rank`` is the package's ``_rank``.  ``fold`` is the tests' reference:
    the canonical integer system is the reduced row-echelon form, rows scaled
    to primitive integers with positive pivots, and ``reference_flats`` keys
    flats by it."""

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
        # A float never reaches a canonical row: Hyperplane.row is built
        # through as_scalar, which refuses it.
        with pytest.raises(TypeError):
            Hyperplane((0.5, 1.0), 0)
        with pytest.raises(TypeError):
            as_scalar(0.5)

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


def _vectors(n: int):
    return st.lists(st.integers(-6, 6), min_size=n, max_size=n)


class TestElimination:
    """``_step`` is ``_normalize`` of ``g * r[p] - r * g[p]``, and ``_rank``
    folds vectors through it."""

    def test_normalize(self):
        assert _normalize((0, -2, 4, -6)) == (-2, (0, 1, -2, 3))
        assert _normalize((0, 0, 3, 0)) == (3, (0, 0, 1, 0))
        assert _normalize((1, -1)) == (1, (1, -1))
        assert _normalize((0, 0)) is None

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_step(self, data):
        n = data.draw(st.integers(1, 5))
        g = data.draw(_vectors(n))
        # A rescaled copy of g steps to zero in every column.
        r = data.draw(st.one_of(_vectors(n), st.integers(-3, 3).map(lambda k: [k * x for x in g])))
        p = data.draw(st.integers(0, n - 1))
        v = [a * r[p] - c * g[p] for a, c in zip(g, r)]
        out = _step(g, r, p)
        if not any(v):
            assert out is None
            return
        c, nu = out
        assert isinstance(nu, tuple)
        assert [c * x for x in nu] == v
        assert gcd(*nu) == 1
        assert next(x for x in nu if x) > 0
        assert nu[p] == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rank_matches_reference_fold(self, data):
        n = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(_vectors(n), max_size=7))
        if rows:
            # Rescaled duplicates, zero rows among them (k == 0).
            picks = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(-3, 3)), max_size=3))
            rows += [[k * x for x in rows[i]] for i, k in picks]
        rows = data.draw(st.permutations(rows))
        assert _rank(tuple(r) for r in rows) == len(fold([(r, 0) for r in rows]))


class TestSolveAffine:
    """The canonical rows describe exactly the solution set of the equations
    folded into them, read back by the test-local back-substitution."""

    def test_parallel_distinct_is_empty(self, affine_solution):
        assert affine_solution([((1, -1), 0), ((1, -1), 1)], dim=2) is None

    def test_single_point_line(self, affine_solution):
        point, basis = affine_solution([((1,), 0)], dim=1)
        assert point == (0,)
        assert basis == ()

    def test_diagonal_line(self, affine_solution):
        _, basis = affine_solution([((1, -1, 0), 0), ((0, 1, -1), 0)], dim=3)
        (direction,) = basis
        assert direction[0] == direction[1] == direction[2] != 0

    def test_empty_system_full_space(self, affine_solution):
        point, basis = affine_solution([], dim=3)
        assert len(basis) == 3
        assert point == (0, 0, 0)

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
    def test_solution_satisfies_all_equalities(self, affine_solution, eqs):
        sol = affine_solution(eqs, dim=3)
        if sol is None:
            return
        point, basis = sol
        for normal, offset in eqs:
            assert dot(normal, point) == as_scalar(offset)
            for b in basis:
                assert dot(normal, b) == 0


class TestFeasibleStrict:
    """Strict systems decided by folding their rows into the split test."""

    def test_open_unit_interval(self, strict_witness):
        point = strict_witness([(1, 0), (-1, -1)], dim=1)  # x > 0, -x > -1
        assert point is not None
        assert 0 < _affine(point)[0] < 1

    def test_contradictory_halves(self, strict_witness):
        assert strict_witness([(1, 0), (-1, 0)], dim=1) is None

    def test_all_positive_side_of_example(self, example_a, strict_witness, side):
        point = strict_witness([h.row for h in example_a.hyperplanes], dim=3)
        assert point is not None
        for h in example_a.hyperplanes:
            assert side(h, _affine(point)) > 0


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


def _affine(point):
    """The rational point ``X / L`` of an integer point ``(X, L)``."""
    return tuple(Fraction(x, point[-1]) for x in point[:-1])


def _homogeneous(witness):
    """The integer point ``(X, L)`` of a rational point, L the common denominator."""
    scale = lcm(*(x.denominator for x in witness))
    return tuple(int(x * scale) for x in witness) + (scale,)


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
    def test_fm_matches_simplex(self, strict_witness, system):
        # The simplex decides strict systems only.  Weak rows would send the
        # reference's elimination past 20,000 rows on some draws in R^5.
        d, strict, _ = system
        by_fm = _fm_witness(list(strict), [], d)
        by_simplex = strict_witness(strict, dim=d)
        assert (by_fm is None) == (by_simplex is None)
        if by_simplex is not None:
            assert _strictly_inside(strict, by_fm)
            assert _strictly_inside(strict, _affine(by_simplex))


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
    and a new row that the witness does not satisfy strictly.  The witness is
    drawn as rational coordinates and returned as its integer point.

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
    return case, _homogeneous(witness), rows, _int_row(as_vector(g), dot(g, witness) + gap)


class TestSplitTest:
    """The warm-started split test against the test-local elimination."""

    @given(_split_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_elimination(self, split):
        case, point, rows, row = split
        assert _strictly_inside(rows, _affine(point))
        result = _feasible_system(rows, point, row)
        assert (result is None) == (_fm_witness(rows + [row], [], len(point) - 1) is None)
        if case == "ray":
            assert result is not None
        if result is not None:
            assert _strictly_inside(rows + [row], _affine(result))

    @given(_split_case())
    @settings(max_examples=150, deadline=None)
    def test_point_in_lowest_terms(self, split):
        _, point, rows, row = split
        result = _feasible_system(rows, point, row)
        if result is not None:
            assert all(type(v) is int for v in result)
            assert result[-1] > 0
            assert gcd(*result) == 1

    def test_unbounded_ray(self, monkeypatch):
        rays = []
        minimize = _IntTableau.minimize

        def spy(self, *args):
            rays.append(minimize(self, *args))
            return rays[-1]

        monkeypatch.setattr(_IntTableau, "minimize", spy)
        origin = (0, 0, 1)
        # The root region has no rows: every split test there is a ray.
        assert _strictly_inside([(1, -1, 5)], _affine(_feasible_system([], origin, (1, -1, 5))))
        # From (1, 1) in the open quadrant, x + y > 10 lies along a ray.
        rows = [(1, 0, 0), (0, 1, 0)]
        point = _feasible_system(rows, (1, 1, 1), (1, 1, 10))
        assert _strictly_inside(rows + [(1, 1, 10)], _affine(point))
        assert len(rays) == 2 and None not in rays

    def test_witness_on_the_new_hyperplane(self):
        # 0 < x < 2 from x = 1: both sides of x = 1 split off.
        rows = [(1, 0), (-1, -2)]
        for row in [(1, 1), (-1, -1)]:
            assert _strictly_inside(rows + [row], _affine(_feasible_system(rows, (1, 1), row)))
        assert _feasible_system(rows, (1, 1), (1, 2)) is None

    def test_witness_already_inside_is_returned(self):
        point = (1, 3)  # x = 1/3
        assert _feasible_system([(1, 0)], point, (1, -1)) is point


@st.composite
def _cone(draw):
    """A random cone of signed normal rows with some forced opposite pairs and
    rescaled duplicates."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=8))
    extra = []
    for r in rows:
        if draw(st.booleans()):
            extra.append(tuple(-c for c in r))
        if draw(st.booleans()):
            k = draw(st.integers(2, 3))
            extra.append(tuple(k * c for c in r))
    return dim, draw(st.permutations(rows + extra))


class TestConeSpanDimension:
    def test_pinched_axis(self):
        assert cone_span_dimension([(1, 0), (-1, 0)], dim=2) == 1

    def test_unconstrained(self):
        assert cone_span_dimension([], dim=2) == 2

    def test_strip_recession_cone(self, grid_example):
        # Region right of x=0, above y=0 and x+y=1, below y=1: its recession
        # cone is the ray y = 0, x >= 0, so the span has dimension 1.
        signs = [1, 1, 1, -1]
        cone = [_strict_row(h.normal, s) for h, s in zip(grid_example.hyperplanes, signs)]
        assert cone_span_dimension(cone, dim=2) == 1

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_each_pinned_pair_drops_dimension_by_one(self, dim):
        cone = []
        assert cone_span_dimension(cone, dim=dim) == dim
        for j in range(dim):
            axis = tuple(1 if i == j else 0 for i in range(dim))
            cone += [axis, tuple(-c for c in axis)]
            assert cone_span_dimension(cone, dim=dim) == dim - 1 - j

    def test_dependent_pair_changes_nothing(self):
        cone = [(1, 0), (-1, 0)]
        assert cone_span_dimension(cone + [(2, 0), (-2, 0)], dim=2) == 1

    def test_only_opposite_pairs_runs_no_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("opposite pairs need no LP")

        monkeypatch.setattr(_IntTableau, "minimize", no_lp)
        cone = [(1, 0, 0), (-1, 0, 0), (0, 1, -1), (0, -1, 1)]
        assert cone_span_dimension(cone, dim=3) == 1

    def test_pointed_cone_without_opposite_pairs(self):
        # d1 >= 0, d2 >= 0, d1 + d2 <= 0 leaves only the origin; no row is
        # the negation of another, so only the LP can find the equalities.
        cone = [(1, 0), (0, 1), (-1, -1)]
        assert cone_span_dimension(cone, dim=2) == 0

    def test_zero_normal_is_ignored(self):
        assert cone_span_dimension([(0, 0)], dim=2) == 2
        assert cone_span_dimension([(0, 0), (1, 0), (-1, 0)], dim=2) == 1

    def test_rescaled_duplicates_count_once(self):
        # A rescaled row is not deduplicated or paired with its opposite
        # outright; the LP classifies it like the row it rescales.
        assert cone_span_dimension([(1, 1), (2, 2), (3, 3)], dim=2) == 2
        cone = [(1, 0), (3, 0), (-2, 0), (-4, 0)]
        assert cone_span_dimension(cone, dim=2) == 1
        cone = [(2, -4), (3, -6), (-1, 2)]
        assert cone_span_dimension(cone, dim=2) == 1
        cone = [(1, 0, 0), (-1, 0, 0), (0, 1, -1), (0, -2, 2)]
        assert cone_span_dimension(cone, dim=3) == 1

    @given(_cone())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_row_feasibility(self, cone):
        # Reference: row r is implicit iff r . d > 0 has no solution on the
        # cone, decided one row at a time: by Fourier-Motzkin up to R^3 and
        # above by maximizing r . d over the cone on the simplex dictionary
        # (bounded, at 0, exactly when r is implicit).  Fourier-Motzkin stops
        # at R^3 here: with opposite pairs in R^4 its last elimination can
        # build a million rows.
        dim, cone = cone
        rows = [r + (0,) for r in cone if any(r)]

        def implicit_row(r):
            if dim <= 3:
                return _fm_witness([r], rows, dim) is None
            tab = _IntTableau([list(q) for q in rows] + [[-c for c in r[:-1]] + [0]], dim)
            return tab.minimize(len(rows)) is None

        implicit = [r for r in rows if implicit_row(r)]
        expected = dim - len(fold([(r[:-1], 0) for r in implicit]))
        assert cone_span_dimension(cone, dim=dim) == expected

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
            cone = [_strict_row(h.normal, s) for h, s in zip(arr.hyperplanes, region.sign_vector)]
            assert cone_span_dimension(cone, dim=arr.dim) == region.level
            assert len(calls) <= 1


class TestAsScalar:
    """Strings take the document scalar grammar: a sign, digits and an optional ``/q``."""

    @pytest.mark.parametrize("text, value", [("-3/2", Fraction(-3, 2)), (" 3 ", Fraction(3))])
    def test_string_scalars(self, text, value):
        assert as_scalar(text) == value

    def test_refuses_strings_outside_the_document_grammar(self):
        # Strings follow the document scalar grammar: an exponent would make
        # Fraction expand "1e4000000" digit by digit.
        for text in ("1e5", "1.5", "1_000", "1e4000000"):
            with pytest.raises(ValueError, match="p/q"):
                as_scalar(text)

    def test_long_values_are_clipped(self):
        # A refusal echoes at most _SHOWN characters of the value.
        with pytest.raises(ValueError) as exc:
            as_scalar("1" * 4999 + "x")
        assert str(exc.value) == f'expected an integer or "p/q" string, got \'{"1" * 39}… (5002 characters)'

    def test_digits_past_the_int_limit_are_a_value_error(self):
        # Fraction refuses more digits than Python converts to an int.
        with pytest.raises(ValueError, match=r"^not a rational: '9{39}… \(5002 characters\) \(Exceeds the limit"):
            as_scalar("9" * 5000)

    @pytest.mark.parametrize("text", ["1/0", "-3/00", " 0/0 "])
    def test_zero_denominator_is_a_value_error(self, text):
        # A zero denominator is a bad value like any other, not a ZeroDivisionError.
        with pytest.raises(ValueError, match="zero denominator"):
            as_scalar(text)
        with pytest.raises(ValueError, match="zero denominator"):
            Hyperplane([1, 0], text)
