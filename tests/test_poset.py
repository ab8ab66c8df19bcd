import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelarr import poset as poset_module
from levelarr.arrangement import (
    Arrangement,
    delete,
    make_cox_a,
    make_cox_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
    restrict,
)
from levelarr.exactmath import _rank, _step
from levelarr.poset import CharPoly, _bits, char_poly

from conftest import _EmptyIntersection, _reduce, build_poset, canonical_rows, dot, eighths_a5, eighths_b4, hp, skew_r3


def poly_from_roots(roots) -> tuple[int, ...]:
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [c - r * d for c, d in zip(shifted, coeffs + [0])]
    return tuple(coeffs)


def containing(flat) -> frozenset[int]:
    """The indices of the hyperplanes that contain the flat."""
    return frozenset(_bits(flat.mask))


def keyed(arr: Arrangement, flats) -> list:
    """Sorted (rows, dim, containing, mobius) of each flat, rows from the fold."""
    return sorted((canonical_rows(arr, containing(f)), f.dim, tuple(sorted(containing(f))), f.mobius) for f in flats)


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
        assert containing(line) == frozenset({0, 1, 2})

    def test_flat_geometry_is_consistent(self, example_a, affine_solution, side):
        poset = build_poset(example_a)
        systems = [canonical_rows(example_a, containing(f)) for f in poset]
        assert len(set(systems)) == len({f.mask for f in poset}) == len(poset)  # pairwise distinct
        for flat, rows in zip(poset, systems):
            assert flat.codim == len(rows)
            point, basis = affine_solution([(r[:-1], r[-1]) for r in rows], example_a.dim)
            assert flat.dim == len(basis)
            for idx in containing(flat):
                h = example_a.hyperplanes[idx]
                assert side(h, point) == 0
                assert all(dot(h.normal, b) == 0 for b in basis)
            # maximality: no other hyperplane contains the flat
            for idx, h in enumerate(example_a.hyperplanes):
                if idx not in containing(flat):
                    assert side(h, point) != 0 or any(
                        dot(h.normal, b) != 0 for b in basis
                    )

    def test_mobius_recursion_sums_to_zero(self, example_a, example_b):
        # The last three have non-Boolean lower intervals with many covers.
        for arr in (example_a, example_b, make_cox_b(2), make_m_catalan(3, 1), make_cox_a(4), make_cox_b(3)):
            poset = build_poset(arr)
            for x in poset:
                total = sum(y.mobius for y in poset if containing(y) <= containing(x))
                assert total == (1 if x is poset[0] else 0)

    def test_mobius_alternation(self, example_a, grid_example):
        for arr in (example_a, grid_example, make_cox_b(3)):
            for flat in build_poset(arr):
                assert flat.mobius != 0
                assert (flat.mobius > 0) == (flat.codim % 2 == 0)

    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: make_cox_b(3), "8a30c897ee4371de3a35c6f884721760be238615237a13c79682ca0d5086d683"),
            (lambda: make_m_catalan(3, 1), "51b1176b37dce6560965d90519e9d130ea45fbec44c474e2adf168e383c212c0"),
            (
                lambda: random_deformation_a(4, random.Random(7), 2),
                "52093d106444884476d3d2c5bd5ed0226fb4968c7b82281856d8c50a527c45b6",
            ),
        ],
        ids=["cox_b3", "m_catalan_3_1", "random_a4_seed7"],
    )
    def test_repr_digest(self, make, digest):
        # sha256 of repr(build_poset(...)): pins flat order, masks, Möbius
        # values and the Flat(dim=…, codim=…, mask=…, mobius=…) form at once.
        assert hashlib.sha256(repr(build_poset(make())).encode()).hexdigest() == digest


def reference_flats(arr: Arrangement) -> list:
    """The poset as a plain BFS builds it: one reference ``_reduce`` per (flat, hyperplane)
    pair, containing sets from the hyperplanes that reduce to nothing, and
    Möbius values from a scan of every earlier flat.  Sorted (rows, dim,
    containing, mobius), flats keyed by their canonical rows."""
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
    return sorted((rows, n - len(rows), tuple(sorted(containing_of[rows])), mobius_of[rows]) for rows in order)


def reference_chi(flats) -> tuple[int, ...]:
    """Ascending chi coefficients: the sum of mu per dimension over
    ``reference_flats``, top-rank flats included."""
    coeffs = [0] * (max(dim for _, dim, _, _ in flats) + 1)
    for _, dim, _, mobius in flats:
        coeffs[dim] += mobius
    return tuple(coeffs)


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


STEP_COUNTS = [(lambda: make_cox_b(4), 325), (lambda: make_m_catalan(4, 1), 381), (eighths_b4, 3133)]
STEP_COUNT_IDS = ["cox_b4", "m_catalan_4_1", "eighths_b4"]


class TestGroupedResiduals:
    """``build_poset`` and ``char_poly`` against the per-pair reference, and
    the work of the walk they both read."""

    @given(_arrangements())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pair_reference(self, arr):
        flats = build_poset(arr)
        reference = reference_flats(arr)
        assert keyed(arr, flats) == reference
        # char_poly names no top-rank flat: its t^(n - top) coefficient is a
        # count of Weisner covers.
        assert char_poly(arr).coeffs == reference_chi(reference)
        # Codimension-major, ascending mask within a codimension.
        order = [(f.codim, f.mask) for f in flats]
        assert order == sorted(order) and flats[0].mask == 0

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_hyperplane_order(self, data):
        # Which parents visit a child depends on the hyperplane order, the
        # poset does not.
        arr = data.draw(_arrangements())
        shuffled = Arrangement(arr.dim, data.draw(st.permutations(arr.hyperplanes)))
        assert char_poly(shuffled) == char_poly(arr)
        assert keyed(shuffled, build_poset(shuffled)) == reference_flats(shuffled)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_cox_a(5),
            lambda: make_m_catalan(4, 1),
            lambda: make_cox_b(4),
            lambda: random_deformation_a(5, random.Random(7), 2),
            lambda: make_m_catalan(3, 2),
            eighths_a5,
            eighths_b4,
            skew_r3,
            # Rank 1 in R^3: every plane is parallel, so the root is the flat
            # of codim top - 1 whose groups are checked.
            lambda: Arrangement(3, [hp((1, 1, -1), c) for c in (0, 1, Fraction(-1, 2), Fraction(3, 2))]),
            # Rank 3 in R^4 (x4 is free): Coxeter forms without a full class.
            lambda: Arrangement(4, [hp(a, c) for a in ((1, -1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 1, -1, 0)) for c in (0, 1)]),
            # x4 = 0 first, then the type B forms of R^3: each flat of the B3
            # part is found once off x4 = 0 and once on it, so half the flats
            # hold hyperplane 0 and expand no further once listed.
            lambda: Arrangement(4, [hp((0, 0, 0, 1))] + [hp(a + (0,)) for a in _coxeter_normals(3)]),
            # y = 0, y = 1, x = 0, chi = t^2 - 3t + 2: the only hyperplane
            # below the line y = 1 is y = 0, parallel to it, so y = 1 steps
            # nothing and reports no point; x = 0 reports both.
            lambda: Arrangement(2, [hp((0, 1), 0), hp((0, 1), 1), hp((1, 0), 0)]),
            # No hyperplane: the walk lists nothing, and the ambient space is
            # the one top-rank flat.
            lambda: Arrangement(3, []),
            lambda: Arrangement(0, []),
        ],
        ids=[
            "cox_a5", "m_catalan_4_1", "cox_b4", "random_a5_seed7", "m_catalan_3_2", "eighths_a5", "eighths_b4", "skew_r3",
            "parallel_r3_top_1", "degenerate_r4_top_3", "b3_times_r_hyperplane_0_on_half", "parallel_first_r2",
            "empty_r3", "empty_r0",
        ],
    )
    def test_matches_reference_on_fixed_cases(self, make):
        arr = make()
        reference = reference_flats(arr)
        assert keyed(arr, build_poset(arr)) == reference
        assert char_poly(arr).coeffs == reference_chi(reference)

    @given(_arrangements())
    @settings(max_examples=100, deadline=None)
    def test_walk_yields_only_weisner_covers_at_top_minus_one(self, arr):
        # A flat of codim top - 1 that misses hyperplane 0 yields one group
        # per top-rank point on it whose lowest hyperplane it misses, each
        # through a hyperplane below its own lowest (at the root, any);
        # every other flat yields None.
        reference = reference_flats(arr)
        top = arr.dim - min(dim for _, dim, _, _ in reference)
        points = [frozenset(c) for _, dim, c, _ in reference if dim == arr.dim - top]
        for codim, mask, mu, groups in poset_module._walk(arr):
            assert (groups is None) == (codim < top - 1 or bool(mask & 1))
            if groups is None:
                continue
            below = (mask & -mask) - 1
            assert all(g & -g & below for g in groups)
            flat = frozenset(_bits(mask))
            assert len(groups) == sum(flat <= z and min(z) not in flat for z in points)

    @pytest.mark.parametrize("i", range(len(random_deformation_a(5, random.Random(7), 2))), ids="restrict_{}".format)
    def test_matches_reference_on_restrictions_of_random_a5_seed7(self, i):
        arr = restrict(random_deformation_a(5, random.Random(7), 2), i)
        assert keyed(arr, build_poset(arr)) == reference_flats(arr)

    @pytest.mark.parametrize(
        "arr",
        [make_cox_a(4), make_cox_b(3), make_m_catalan(3, 1), random_deformation_a(4, random.Random(7), 2)],
        ids=["cox_a4", "cox_b3", "m_catalan_3_1", "random_a4_seed7"],
    )
    def test_work_bound(self, arr, monkeypatch):
        # One ``_rank`` call over the len(arr) normals, and at most one
        # elimination step per (flat, hyperplane outside it) pair at the
        # flats that expand: below top rank and without hyperplane 0.  At
        # codim top - 1 only the hyperplanes below the flat's lowest are
        # stepped.  A step's offset half is a two-argument ``gcd`` (every
        # case here has n > 2); the only other one checks a key at an
        # expanding flat of codim top - 1, once per Weisner cover of a
        # top-rank flat: a cover that misses the flat's lowest hyperplane.
        # A step's normal half is computed once per pair of normals: the
        # memo misses.
        assert arr.dim > 2
        ranks, gcds, misses = [], [], []

        def counting_rank(vectors):
            vectors = list(vectors)
            ranks.append(vectors)
            return _rank(vectors)

        def counting_gcd(*args):
            gcds.append(args)
            return math.gcd(*args)

        def counting_step(g, r, p):
            misses.append((g, r))
            return _step(g, r, p)

        monkeypatch.setattr(poset_module, "_rank", counting_rank)
        monkeypatch.setattr(poset_module, "gcd", counting_gcd)
        monkeypatch.setattr(poset_module, "_step", counting_step)
        poset = build_poset(arr)
        top = max(f.codim for f in poset)
        expanding = [f for f in poset if f.codim < top and not f.mask & 1]
        coatoms = [y for y in expanding if y.codim == top - 1]
        points = [z for z in poset if z.codim == top]
        covers = sum(y.mask & ~z.mask == 0 and not y.mask & z.mask & -z.mask for y in coatoms for z in points)
        steps = sum(len(args) == 2 for args in gcds) - covers
        below_lowest = sum((y.mask & -y.mask).bit_length() - 1 for y in coatoms)
        outside = sum(len(arr) - len(containing(f)) for f in expanding if f.codim < top - 1)
        assert ranks == [[h.normal for h in arr.hyperplanes]]
        assert 0 < steps <= outside + below_lowest
        # No pair of normals misses twice, so misses <= distinct pairs.
        assert len(misses) == len(set(misses))
        assert len(misses) < steps

    @staticmethod
    def two_argument_gcds(read, arr, monkeypatch) -> int:
        gcds = []

        def counting_gcd(*args):
            gcds.append(args)
            return math.gcd(*args)

        monkeypatch.setattr(poset_module, "gcd", counting_gcd)
        read(arr)
        return sum(len(args) == 2 for args in gcds)

    @pytest.mark.parametrize("make, count", STEP_COUNTS, ids=STEP_COUNT_IDS)
    def test_exact_step_counts(self, make, count, monkeypatch):
        # The walk's work, pinned: one two-argument ``gcd`` per offset half
        # of an elimination step and per top-rank key check.  A flat through
        # hyperplane 0 that stepped its groups before stopping would add
        # 42, 6 and 106 calls.
        assert self.two_argument_gcds(build_poset, make(), monkeypatch) == count

    @pytest.mark.parametrize("make, count", STEP_COUNTS, ids=STEP_COUNT_IDS)
    def test_char_poly_step_counts(self, make, count, monkeypatch):
        # char_poly reads the same walk, and counting its covers takes no gcd.
        assert self.two_argument_gcds(char_poly, make(), monkeypatch) == count

    def test_zero_residual_outside_containing_set_raises(self, monkeypatch):
        # A hyperplane whose residual vanishes at a flat must already be in
        # the flat's containing set; anything else is an elimination fault.
        # Every offset of cox_a3 is 0, so a zero normal half is a zero row.
        calls = []

        def zero_normal(g, r, p):
            calls.append((g, r))
            return None  # what ``_step`` returns for a zero normal

        monkeypatch.setattr(poset_module, "_step", zero_normal)
        with pytest.raises(ArithmeticError, match="not in its containing set"):
            build_poset(make_cox_a(3))
        assert calls

    def test_containing_hyperplane_left_out_of_top_rank_flat_raises(self, monkeypatch):
        # With every normal half's sign flipped (-sd, -nu: the same vector,
        # but not the canonical nu), x1 = x3 and x2 = x3 reduce at x1 = x2 to
        # residuals whose normals intern apart and no longer group, so the
        # line x1 = x2 = x3 (a top-rank flat of this rank-2 arrangement) is
        # found twice, each time with one containing hyperplane outside its
        # mask.
        seen = []

        def flipped(g, r, p):
            half = _step(g, r, p)
            seen.append(half)
            return half and (-half[0], tuple(-c for c in half[1]))

        monkeypatch.setattr(poset_module, "_step", flipped)
        with pytest.raises(ArithmeticError, match="not in its containing set"):
            build_poset(make_cox_a(3))
        # The top-rank check caught it without eliminating to a zero normal.
        assert seen and all(half is not None for half in seen)

    @pytest.mark.parametrize("fault", [lambda e: -e, lambda e: 1], ids=["negated_scale", "content_left_in"])
    def test_non_canonical_key_below_top_rank_raises(self, monkeypatch, fault):
        # x2 = 1, x1 + 2x2 = 2 and x1 = 0 meet in one point, the top of this
        # rank-2 arrangement.  The line x2 = 1 holds hyperplane 0, so it
        # steps nothing.  The line x1 + 2x2 = 2 carries x2 = 1 unchanged
        # and checks its key: gcd(1, 1).  The line x1 = 0 steps both
        # hyperplanes below it: x2 = 1 is carried, and x1 + 2x2 = 2 gives
        # the row (0, 2, 2), keyed (x2, 1, 1) like x2 = 1 by its step gcd,
        # (2, 2).  A faulty step gcd leaves the key at (x2, -1, -1) or
        # (x2, 2, 2): the point would be counted twice at x1 = 0, and the
        # key check catches it.
        calls = []

        def faulty_step(a, b):
            calls.append((a, b))
            e = math.gcd(a, b)
            return fault(e) if calls == [(1, 1), (2, 2)] else e

        monkeypatch.setattr(poset_module, "gcd", faulty_step)
        arr = Arrangement(2, [hp((0, 1), 1), hp((1, 2), 2), hp((1, 0), 0)])
        with pytest.raises(ArithmeticError, match="not in its containing set"):
            build_poset(arr)
        assert calls[:2] == [(1, 1), (2, 2)]

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
                if len(containing(flat)) == flat.codim:
                    boolean += 1
                    assert flat.mobius == (-1) ** flat.codim
                else:
                    assert len(containing(flat)) > flat.codim
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
        assert len(cp.coeffs) - 1 == 3
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
        # Not a characteristic polynomial, but the formatter's other branches:
        # a negative leading term, a coefficient -1 and an empty sum.
        assert str(CharPoly((3, -1, -2))) == "-2t^2 - t + 3"
        assert str(CharPoly((0, 0))) == "0"

    def test_evaluate_exact(self):
        cp = CharPoly((0, 6, -5, 1))
        assert cp.evaluate(7) == 140
        assert cp.evaluate(Fraction(1, 2)) == Fraction(1, 8) - Fraction(5, 4) + 3


def _pairs(n: int, offsets, signs=(-1,)) -> list:
    """x_i + s x_j = a for i < j, each sign s and offset a, built by hand."""
    planes = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in signs:
                normal = tuple(1 if k == i else sign if k == j else 0 for k in range(n))
                planes += [hp(normal, a) for a in offsets]
    return planes


def _linial_chi(n: int) -> tuple[int, ...]:
    """(t / 2^n) sum_k C(n, k) (t - k)^(n-1), ascending coefficients."""
    total = [0] * n
    for k in range(n + 1):
        total = [c + math.comb(n, k) * d for c, d in zip(total, poly_from_roots([k] * (n - 1)))]
    assert all(c % 2**n == 0 for c in total)
    return (0,) + tuple(c // 2**n for c in total)


class TestClosedForms:
    """chi against closed forms that share no code with the poset
    (Stanley 2007, Lecture 5; Athanasiadis 1996)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_catalan(self, n):
        # x_i - x_j in {-1, 0, 1}: t (t - n - 1) (t - n - 2) ... (t - 2n + 1).
        arr = Arrangement(n, _pairs(n, (-1, 0, 1)))
        assert char_poly(arr).coeffs == poly_from_roots([0] + list(range(n + 1, 2 * n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_shi(self, n):
        # x_i - x_j in {0, 1}: t (t - n)^(n-1).
        arr = Arrangement(n, _pairs(n, (0, 1)))
        assert char_poly(arr).coeffs == poly_from_roots([0] + [n] * (n - 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_linial(self, n):
        # x_i - x_j = 1.
        arr = Arrangement(n, _pairs(n, (1,)))
        assert char_poly(arr).coeffs == _linial_chi(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_type_b_shi(self, n):
        # x_i = 0, 1 and x_i +- x_j = 0, 1: (t - 2n)^n.
        coordinates = [hp(tuple(int(k == i) for k in range(n)), a) for i in range(n) for a in (0, 1)]
        arr = Arrangement(n, coordinates + _pairs(n, (0, 1), signs=(-1, 1)))
        assert char_poly(arr).coeffs == poly_from_roots([2 * n] * n)


def padded(cp: CharPoly, width: int) -> tuple[int, ...]:
    return tuple(cp.coeffs) + (0,) * (width - len(cp.coeffs))


class TestDeletionRestriction:
    def assert_triple_identity(self, arr):
        width = arr.dim + 1
        whole = padded(char_poly(arr), width)
        for h_index in range(len(arr)):
            deleted = padded(char_poly(delete(arr, h_index)), width)
            restricted = padded(char_poly(restrict(arr, h_index)), width)
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
