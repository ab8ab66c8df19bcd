import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelarr import regions as regions_module
from levelarr.arrangement import (
    Arrangement,
    Hyperplane,
    Kind,
    _coxeter_forms,
    _form_normal,
    delete,
    make_cox_a,
    make_cox_b,
    make_deformation_a,
    make_deformation_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
    restrict,
)
from levelarr.exactmath import _feasible_system, _slack, cone_span_dimension
from levelarr.poset import char_poly
from levelarr.regions import _closure_walk, _lp_walk, enumerate_regions, level_profile

from conftest import _strict_row, hp, skew_r3


def general_r4() -> Arrangement:
    # A seeded general arrangement in R^4, 12 distinct hyperplanes with
    # normals in [-2, 2]^4 and offsets k/8 in [-3, 3].  R^4 is where a
    # Fourier-Motzkin split test can build a million rows; the simplex
    # split test has no such cliff.
    rng = random.Random(5)
    planes = {}
    while len(planes) < 12:
        normal = tuple(rng.randint(-2, 2) for _ in range(4))
        if any(normal):
            h = hp(normal, Fraction(rng.randint(-24, 24), 8))
            planes.setdefault(h.row, h)
    return Arrangement(4, list(planes.values()))


# Normals with no Coxeter form, the general R^3 arrangements of the benchmark.
GENERAL_R3_NORMALS = [
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    (1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 0, 2),
]


def self_mirror_bands() -> Arrangement:
    """x1 +- x2 = 0, 1 and x3 +- x4 = 0, 1: components that are their own mirror."""
    return Arrangement(4, [
        hp(normal, offset)
        for normal in ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))
        for offset in (0, 1)
    ])


def coprime_b3() -> Arrangement:
    """A type B deformation in R^3 whose offsets' denominators have lcm 840, not a power of two."""
    F = Fraction
    return make_deformation_b(
        3,
        {1: [F(1, 3)], 2: [F(-2, 5)], 3: [F(3, 7)]},
        {(1, 2): [F(1, 8)], (1, 3): [F(-1, 3)], (2, 3): [F(2, 5), F(-1, 7)]},
        {(1, 2): [F(-3, 8)], (1, 3): [F(1, 5)], (2, 3): [F(1, 3)]},
    )


class TestEnumerateRegions:
    def test_empty_arrangement(self):
        regions = enumerate_regions(Arrangement(2, []))
        assert len(regions) == 1
        assert regions[0].sign_vector == ()
        assert regions[0].level == 2

    def test_grid_example_count(self, grid_example):
        assert len(enumerate_regions(grid_example)) == 9

    def test_worked_example_count(self, example_a):
        assert len(enumerate_regions(example_a)) == 12

    def test_witnesses_strictly_inside(self, example_a, example_b, grid_example, side):
        for arr in (example_a, example_b, grid_example, make_cox_b(2)):
            for region in enumerate_regions(arr):
                for h, s in zip(arr.hyperplanes, region.sign_vector):
                    assert s * side(h, region.witness) > 0

    def test_output_sorted_and_unique(self, example_a):
        # The walk emits regions in sign order; nothing sorts them.
        # make_cox_a(3) is central: the root's witness, the origin, lies on
        # the first hyperplane, so both of its sides take a split test.
        for arr in (
            example_a,
            make_cox_a(3),
            make_cox_b(3),
            general_r4(),
            random_deformation_a(4, random.Random(7), 2),
            random_deformation_b(3, random.Random(3), 2),
        ):
            regions = enumerate_regions(arr)
            keys = [tuple(0 if s > 0 else 1 for s in r.sign_vector) for r in regions]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_matches_exhaustive_enumeration(self, example_a, example_b, grid_example, feasible_sign_vectors):
        for arr in (example_a, example_b, grid_example, make_cox_b(2)):
            incremental = tuple(r.sign_vector for r in enumerate_regions(arr))
            assert incremental == feasible_sign_vectors(arr)

    def test_zaslavsky_count(self, example_a, example_b, grid_example):
        for arr in (example_a, example_b, grid_example, make_cox_b(3)):
            chi = char_poly(arr)
            expected = (-1) ** arr.dim * chi.evaluate(-1)
            assert len(enumerate_regions(arr)) == expected


class TestGeneralR4:
    def test_twelve_planes(self, side):
        arr = general_r4()
        regions = enumerate_regions(arr)
        assert len(regions) == (-1) ** arr.dim * char_poly(arr).evaluate(-1) == 722
        for region in regions:
            for h, s in zip(arr.hyperplanes, region.sign_vector):
                assert s * side(h, region.witness) > 0


class TestRegionLevel:
    def test_grid_example_labels(self, grid_example):
        # x = 0, y = 0, x+y = 1, y = 1.  The bounded triangle has level 0,
        # the two strips level 1, everything else level 2.
        by_signs = {r.sign_string(): r for r in enumerate_regions(grid_example)}
        assert by_signs["++--"].level == 0  # triangle: 0<x, 0<y, x+y<1, y<1
        assert by_signs["+++-"].level == 1  # strip between y=0..1 right of the slant
        assert by_signs["-+--"].level == 1  # strip between y=0 and y=1, x<0
        assert by_signs["++++"].level == 2
        assert sum(1 for r in by_signs.values() if r.level == 2) == 6

    def test_stored_level_matches_recompute(self, example_b):
        # The recession cone of {x : s_i (a_i . x - b_i) > 0} is
        # {d : s_i (a_i . d) >= 0}; the level is the dimension of its span.
        for region in enumerate_regions(example_b):
            cone = [_strict_row(h.normal, s) for h, s in zip(example_b.hyperplanes, region.sign_vector)]
            assert cone_span_dimension(cone, dim=example_b.dim) == region.level

    def test_cox_a3_all_top_level(self):
        regions = enumerate_regions(make_cox_a(3))
        assert len(regions) == 6
        assert all(r.level == 3 for r in regions)


def _lp_level(arr, signs):
    return cone_span_dimension([_strict_row(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=arr.dim)


class TestTypeALevelOracle:
    """In a type A deformation the recession cone is cut out by d_i >= d_j
    relations; its span has one dimension per strongly connected component of
    that digraph (the braid cone of a preposet).  The closure walk's level
    reads it off: every type A form is a difference (i, j) with j > 0, so no
    edge meets node 0, which is its own excluded component, and every
    component C of the nodes +i has its own mirror -C.  ``enumerate_regions``
    takes type A levels from the LP; ``_walks`` compares the walk with it."""

    def test_levels_match_strong_components(self):
        rng = random.Random(2024)
        arrangements = [random_deformation_a(3, rng) for _ in range(6)]
        arrangements += [random_deformation_a(4, rng) for _ in range(4)]
        arrangements.append(make_cox_a(4))
        for arr in arrangements:
            assert arr.kind is Kind.TYPE_A
            got, ref = _walks(arr)
            assert got == ref


class TestTypeBLevelOracle:
    """Type B levels come from the closure walk; the LP is the cross-check."""

    def test_closure_level_matches_lp(self, example_b):
        rng = random.Random(2025)
        arrangements = [random_deformation_b(2 + k % 2, rng) for k in range(26)]
        arrangements += [make_cox_b(3), make_cox_b(4), example_b]
        checked = 0
        for arr in arrangements:
            assert arr.kind is Kind.TYPE_B
            for region in enumerate_regions(arr):
                assert region.level == _lp_level(arr, region.sign_vector)
                checked += 1
        assert checked > 3000

    def test_self_mirror_components(self):
        # Bands on x1 +- x2 and x3 +- x4 with no coordinate hyperplanes: a
        # region inside all four bands has the components {+-1, +-2} and
        # {+-3, +-4}, each its own mirror, and they add no dimension.  The
        # arrangement is not type B, so ``enumerate_regions`` takes LP levels.
        arr = self_mirror_bands()
        regions = enumerate_regions(arr)
        levels = [level for _, _, level in _closure_walk(arr, False)]
        assert levels == [r.level for r in regions]
        assert levels.count(0) == 1

    def test_level_routing(self, monkeypatch, example_a, example_b, grid_example):
        # enumerate_regions: type B takes one closure walk and no LP walk,
        # split test or cone-span LP; type A, general arrangements and
        # degenerate ones with type B normals only take the LP walk and one
        # LP per region.  level_profile: the closure walk iff every
        # hyperplane's form() is a signed root, with no split test and no LP;
        # otherwise the LP walk and one LP per region, with no Region built.
        calls = dict.fromkeys(("lp", "split", "closure", "lp_walk", "enumerate"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr("levelarr.regions.cone_span_dimension", counted("lp", cone_span_dimension))
        monkeypatch.setattr("levelarr.regions._feasible_system", counted("split", _feasible_system))
        monkeypatch.setattr("levelarr.regions._closure_walk", counted("closure", _closure_walk))
        monkeypatch.setattr("levelarr.regions._lp_walk", counted("lp_walk", _lp_walk))
        monkeypatch.setattr("levelarr.regions.enumerate_regions", counted("enumerate", enumerate_regions))
        degenerate = delete(make_cox_b(3), 0)
        assert degenerate.kind is Kind.GENERAL
        skew = Arrangement(2, [hp((1, 0)), hp((0, 1)), hp((1, 2), 1)])
        for arr in (example_a, make_cox_a(3), grid_example, degenerate, example_b, make_cox_b(3), skew):
            calls.update(dict.fromkeys(calls, 0))
            count = len(enumerate_regions(arr))
            if arr.kind is Kind.TYPE_B:
                assert calls == {"lp": 0, "split": 0, "closure": 1, "lp_walk": 0, "enumerate": 0}
            else:
                assert (calls["lp"], calls["closure"], calls["lp_walk"]) == (count, 0, 1)

            calls.update(dict.fromkeys(calls, 0))
            assert sum(level_profile(arr)) == count
            if all(h.form() is not None for h in arr.hyperplanes):
                assert calls == {"lp": 0, "split": 0, "closure": 1, "lp_walk": 0, "enumerate": 0}
            else:
                assert arr is skew
                assert (calls["closure"], calls["lp_walk"], calls["enumerate"]) == (0, 1, 0)
                assert calls["lp"] == count and calls["split"] > 0


def _onto_hyperplane(row, witness, j):
    """``witness`` with coordinate j moved so that it lies on the hyperplane of ``row``."""
    a = row[j]
    point = [v * a for v in witness]
    point[j] -= _slack(row, witness)
    return tuple(v if a > 0 else -v for v in point)


def _nudged(arr, leaves):
    """The listing with one witness moved onto one of its region's walls and inside every other side.

    The first region from the middle on with such a move is taken, so only
    the strictness of the certificate's witness test can catch it.
    """
    rows = [h.row for h in arr.hyperplanes]
    for k in range(len(leaves) // 2, len(leaves)):
        signs, witness, level = leaves[k]
        for i, j in product(range(len(rows)), range(arr.dim)):
            if rows[i][j]:
                point = _onto_hyperplane(rows[i], witness, j)
                slacks = [s * _slack(row, point) for row, s in zip(rows, signs)]
                if slacks[i] == 0 and sum(v > 0 for v in slacks) == len(rows) - 1:
                    return leaves[:k] + [(signs, point, level)] + leaves[k + 1:]
    raise AssertionError("no witness can be moved onto a single wall")


class TestListingCertificate:
    """Every region listing is certified before any ``Region`` is built,
    whichever engine made it: a dropped, repeated or misplaced region, or a
    witness off its region, is an error, not a different answer."""

    LISTINGS = [
        pytest.param(lambda: random_deformation_b(3, random.Random(11)), id="closure_type_b"),
        pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), id="lp_type_a"),
        pytest.param(skew_r3, id="lp_general"),
    ]

    FAULTS = [
        pytest.param(lambda arr, leaves: leaves[:10] + leaves[11:], "chi", id="dropped"),
        pytest.param(lambda arr, leaves: leaves[:11] + leaves[10:], "sign order", id="duplicated"),
        pytest.param(lambda arr, leaves: leaves[:10] + [leaves[11], leaves[10]] + leaves[12:], "sign order", id="swapped"),
        pytest.param(_nudged, "strictly inside", id="nudged_witness"),
    ]

    @staticmethod
    def faulty(monkeypatch, fault):
        real = regions_module._leaves

        def leaves(arr, listing):
            return fault(arr, list(real(arr, listing)))

        monkeypatch.setattr(regions_module, "_leaves", leaves)

    @pytest.mark.parametrize("fault, fact", FAULTS)
    @pytest.mark.parametrize("make", LISTINGS)
    def test_fault_raises(self, monkeypatch, make, fault, fact):
        arr = make()
        self.faulty(monkeypatch, fault)
        with pytest.raises(ArithmeticError, match=fact):
            enumerate_regions(arr)

    @pytest.mark.parametrize("make", LISTINGS)
    def test_chi_off_by_one_raises(self, monkeypatch, make):
        real = regions_module.char_poly

        class OffByOne:
            def __init__(self, arr):
                self.chi = real(arr)

            def evaluate(self, t):
                return self.chi.evaluate(t) + 1

        monkeypatch.setattr(regions_module, "char_poly", OffByOne)
        with pytest.raises(ArithmeticError, match="chi"):
            enumerate_regions(make())

    def test_lp_walk_dropping_a_region_raises(self, monkeypatch):
        # A split test that wrongly finds a side empty drops every region
        # below it: the listing is short of chi's count.
        arr = random_deformation_a(4, random.Random(7), 2)
        found = []

        def drops_first_split(rows, witness, row):
            point = _feasible_system(rows, witness, row)
            if point is not None and not found:
                found.append(point)
                return None
            return point

        monkeypatch.setattr(regions_module, "_feasible_system", drops_first_split)
        with pytest.raises(ArithmeticError, match="chi"):
            enumerate_regions(arr)
        assert found

    @pytest.mark.parametrize("fault, fact", FAULTS)
    def test_no_region_built_before_the_check(self, monkeypatch, fault, fact):
        # A fault past the tenth region raises before any Region is built,
        # though the regions ahead of it are sound.
        arr = random_deformation_b(3, random.Random(11))
        self.faulty(monkeypatch, fault)
        built = []
        real = regions_module.Region

        def region(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(regions_module, "Region", region)
        with pytest.raises(ArithmeticError, match=fact):
            enumerate_regions(arr)
        assert built == []


def _strictly_inside(arr, signs, witness) -> bool:
    return all(_slack(_strict_row(h.row, s), witness) > 0 for h, s in zip(arr.hyperplanes, signs, strict=True))


def _walks(arr):
    """The closure walk's listing beside the LP walk's, as ``(signs, level)``.

    The LP walk's levels come from one cone-span LP per region.  Every
    witness the closure walk lists must lie strictly inside its region.
    """
    got = []
    for signs, witness, level in _closure_walk(arr, True):
        assert len(witness) == arr.dim + 1 and witness[-1] > 0
        assert _strictly_inside(arr, signs, witness)
        got.append((signs, level))
    return got, [(signs, _lp_level(arr, signs)) for signs, _ in _lp_walk(arr)]


_EIGHTHS = st.lists(st.integers(-24, 24), min_size=1, max_size=2, unique=True).map(
    lambda ks: [Fraction(k, 8) for k in sorted(ks)]
)


@st.composite
def _deformations(draw):
    """Type A deformations in R^2..R^4 and type B in R^1..R^3, one or two eighths per direction."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        pairs = list(combinations(range(1, n + 1), 2))
        return make_deformation_a(n, {p: draw(_EIGHTHS) for p in pairs})
    return draw(_deformations_b())


@st.composite
def _deformations_b(draw):
    """Type B deformations in R^1..R^3, one or two eighths per direction."""
    n = draw(st.integers(1, 3))
    pairs = list(combinations(range(1, n + 1), 2))
    return make_deformation_b(
        n,
        {i: draw(_EIGHTHS) for i in range(1, n + 1)},
        {p: draw(_EIGHTHS) for p in pairs},
        {p: draw(_EIGHTHS) for p in pairs},
    )


@st.composite
def _coxeter_subsets(draw):
    """Hyperplanes of Coxeter form in R^1..R^4 with offsets in {-1, 0, 1}.

    Most draws miss some direction class (``Kind.GENERAL``), and the small
    offsets make regions that touch along many hyperplanes at once.
    """
    n = draw(st.integers(1, 4))
    normals = [_form_normal(n, f) for f in _coxeter_forms(Kind.TYPE_B, n)]
    planes = st.builds(hp, st.sampled_from(normals), st.integers(-1, 1))
    count = draw(st.integers(1, 8))
    return Arrangement(n, draw(st.lists(planes, min_size=count, max_size=count, unique_by=lambda h: h.row)))


class TestClosureWalk:
    """The closure walk against the LP walk: same sign vectors, same order,
    same levels (each from a cone-span LP), on arrangements whose normals
    all have Coxeter forms, and every closure witness strictly inside its
    region.  Type B listings come from the closure walk alone, so these
    witnesses are the ones ``enumerate_regions`` lists; on other input they
    are tested ahead of the listing gate."""

    @given(_deformations())
    @settings(max_examples=60, deadline=None)
    def test_eighths_deformations(self, arr):
        assert arr.kind in (Kind.TYPE_A, Kind.TYPE_B)
        got, ref = _walks(arr)
        assert got == ref

    @pytest.mark.parametrize(
        "make",
        [lambda: make_cox_a(2), lambda: make_cox_a(3), lambda: make_cox_a(4),
         lambda: make_cox_b(1), lambda: make_cox_b(2), lambda: make_cox_b(3),
         lambda: make_m_catalan(3, 1)],
        ids=["cox_a2", "cox_a3", "cox_a4", "cox_b1", "cox_b2", "cox_b3", "m_catalan_3_1"],
    )
    def test_zero_offsets(self, make):
        # Every hyperplane of a Coxeter arrangement passes through the
        # origin, so every region is a cone and the walk meets cycles of
        # total offset 0, which only the strictness term rules out.
        got, ref = _walks(make())
        assert got == ref

    @given(_coxeter_subsets())
    @settings(max_examples=100, deadline=None)
    def test_degenerate_subsets(self, arr):
        got, ref = _walks(arr)
        assert got == ref

    @given(st.integers(0, 10**6), st.integers(3, 4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_restrictions(self, seed, n, data):
        arr = random_deformation_a(n, random.Random(seed), 2)
        restricted = restrict(arr, data.draw(st.integers(0, len(arr) - 1)))
        got, ref = _walks(restricted)
        assert got == ref

    def test_mirror_cycle(self):
        # x1 - x2 < -1 and x1 + x2 < -1 add up to x1 < -1: the side x1 > -1
        # is empty, but only the new edge and its mirror together close the
        # cycle 0 -> -1 -> 2 -> 1 -> 0 of total offset 0.
        arr = Arrangement(2, [hp((1, -1), -1), hp((1, 1), -1), hp((1, 0), -1)])
        got, ref = _walks(arr)
        assert got == ref
        assert (-1, -1, 1) not in [signs for signs, _ in got]

    def test_self_mirror_bands(self):
        got, ref = _walks(self_mirror_bands())
        assert got == ref
        assert [level for _, level in got].count(0) == 1

    def test_forms_that_skip_coordinates(self):
        # x2 - x5, x5 + x6, x2 + x6 and x2 = 1 in R^6 name only x2, x5 and x6:
        # the walk relabels them 1..3, and x1, x3 and x4 add a level to every
        # region; the box 1 < x2 < 2, 0 < x2 - x5 < 1, -1 < x5 + x6 < 0 has 3.
        e = lambda *pairs: tuple(dict(pairs).get(k, 0) for k in range(1, 7))  # noqa: E731
        arr = Arrangement(6, [
            hp(e((2, 1), (5, -1)), 0), hp(e((2, 1), (5, -1)), 1), hp(e((5, 1), (6, 1)), 0),
            hp(e((2, 1)), 1), hp(e((5, 1), (6, 1)), -1), hp(e((2, 1), (6, 1)), 0), hp(e((2, 1)), 2),
        ])
        got, ref = _walks(arr)
        assert got == ref
        assert min(level for _, level in got) == 3
        assert level_profile(arr) == tuple(
            sum(r.level == k for r in enumerate_regions(arr)) for k in range(7)
        )

    def test_coprime_denominators(self):
        # Thirds, fifths, sevenths and eighths: the offsets share the scale
        # 840, which no single denominator reaches.
        arr = coprime_b3()
        assert arr.kind is Kind.TYPE_B
        assert lcm(*(h.offset.denominator for h in arr.hyperplanes)) == 840
        got, ref = _walks(arr)
        assert got == ref
        assert len(got) == 146

    def test_empty_and_zero_dimensional(self):
        # The one region's witness is the origin, (0, 0, 0) / 1 in R^3.
        assert list(_closure_walk(Arrangement(3, []), True)) == [((), (0, 0, 0, 1), 3)]
        assert list(_closure_walk(Arrangement(0, []), True)) == [((), (1,), 0)]
        assert list(_closure_walk(Arrangement(3, []), False)) == [((), None, 3)]
        assert level_profile(Arrangement(0, [])) == (1,)
        assert [r.witness for r in enumerate_regions(Arrangement(0, []))] == [()]


class TestClosureWalkLevels:
    """The closure walk's levels against the cone-span LP.  Type B levels
    in ``enumerate_regions`` come from the walk too, so comparing the two
    cannot catch a fault in ``_reach_level``; the LP can."""

    @given(_deformations_b())
    @settings(max_examples=30, deadline=None)
    def test_type_b_deformations(self, arr):
        for signs, _, level in _closure_walk(arr, False):
            assert level == _lp_level(arr, signs)

    def test_self_mirror_bands(self):
        # Inside all four bands +1 is linked to -1: its component is its own mirror.
        arr = self_mirror_bands()
        for signs, _, level in _closure_walk(arr, False):
            assert level == _lp_level(arr, signs)

    def test_coprime_denominators(self):
        arr = coprime_b3()
        for signs, _, level in _closure_walk(arr, False):
            assert level == _lp_level(arr, signs)

    def test_pair_joined_through_a_mirror_node(self):
        # The band 0 < x1 + x2 < 1 has the components {1, -2} and {-1, 2}:
        # node 2 shares no component with node 1, only with its mirror -1,
        # so 2 belongs to 1's pair through the test of 1 against -2.
        arr = Arrangement(2, [hp((1, 1), 0), hp((1, 1), 1)])
        walk = [(signs, level) for signs, _, level in _closure_walk(arr, False)]
        assert walk == [((1, 1), 2), ((1, -1), 1), ((-1, -1), 2)]
        assert [level for _, level in walk] == [_lp_level(arr, signs) for signs, _ in walk]


def _level_counts(arr):
    levels = [r.level for r in enumerate_regions(arr)]
    return tuple(levels.count(k) for k in range(arr.dim + 1))


@st.composite
def _general_arrangements(draw):
    """Seeded arrangements in R^2..R^3 with normals in [-2, 2]^n, one of them without a Coxeter form."""
    n = draw(st.integers(2, 3))
    normals = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    skew = normals.filter(lambda a: hp(a).form() is None)
    offsets = st.integers(-16, 16).map(lambda k: Fraction(k, 8))
    planes = draw(st.lists(st.builds(hp, normals, offsets), max_size=6))
    first = draw(st.builds(hp, skew, offsets))
    return Arrangement(n, list({h.row: h for h in [first, *planes]}.values()))


class TestLevelProfile:
    def test_worked_example_a(self, example_a):
        assert level_profile(example_a) == (0, 2, 4, 6)

    def test_unnamed_coordinates_cost_nothing(self):
        # {x1 = 0, x2 - x3 = 1} in R^400: the walk's closures span the three
        # named coordinates, not all 801 signed nodes.
        n = 400
        tracemalloc.start()
        try:
            arr = Arrangement(n, [hp((1,) + (0,) * (n - 1), 0), hp((0, 1, -1) + (0,) * (n - 3), 1)])
            profile = level_profile(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile == (0,) * n + (4,)
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "make, closure",
        [(lambda: random_deformation_b(3, random.Random(11)), True), (skew_r3, False)],
        ids=["closure", "lp"],
    )
    def test_builds_no_witness_and_no_chi(self, monkeypatch, make, closure):
        # Only a listing is certified: the profile finds no closure witness
        # and computes no chi, on either engine.
        walk = regions_module._closure_walk
        witnesses = []

        def recorded(arr, want):
            for leaf in walk(arr, want):
                witnesses.append(leaf[1])
                yield leaf

        def no_chi(arr):
            raise AssertionError("level_profile computed chi")

        monkeypatch.setattr(regions_module, "_closure_walk", recorded)
        monkeypatch.setattr(regions_module, "char_poly", no_chi)
        profile = level_profile(make())
        assert witnesses == ([None] * sum(profile) if closure else [])

    def test_walk_holds_no_region_list(self):
        # The depth-first walk keeps one closure per depth, not one per live
        # region: a breadth-first walk peaks near 14 MB here.
        arr = make_m_catalan(5, 1)
        tracemalloc.start()
        try:
            profile = level_profile(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(profile) == 5040
        assert peak < 2 << 20

    def test_more_hyperplanes_than_the_recursion_limit(self):
        # x1 = 0, ..., 1049 in R^1: the walk is 1,050 deep, past Python's
        # default recursion limit, so its stack must be explicit.
        arr = Arrangement(1, [hp((1,), k) for k in range(1050)])
        assert level_profile(arr) == (1049, 2)

    @given(_general_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_general_input_matches_enumeration(self, arr):
        # Without Coxeter forms the levels stream off the LP walk; they must
        # count what ``enumerate_regions`` lists.
        assert any(h.form() is None for h in arr.hyperplanes)
        assert level_profile(arr) == _level_counts(arr)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_general_r3_matches_enumeration(self, seed):
        rng = random.Random(seed)
        arr = Arrangement(3, [hp(normal, Fraction(rng.randint(-24, 24), 8)) for normal in GENERAL_R3_NORMALS])
        assert level_profile(arr) == _level_counts(arr)

    def test_skew_matches_enumeration(self):
        arr = Arrangement(2, [hp((1, 0)), hp((0, 1)), hp((1, 2), 1)])
        # three lines in general position: one bounded triangle, six unbounded regions of level 2
        assert level_profile(arr) == _level_counts(arr) == (1, 0, 6)

    def test_worked_example_b(self, example_b):
        profile = level_profile(example_b)
        assert profile == (2, 0, 8)
        assert sum(profile) == 10

    def test_grid_example(self, grid_example):
        assert level_profile(grid_example) == (1, 2, 6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cox_a_all_regions_top_level(self, n):
        profile = level_profile(make_cox_a(n))
        expected = [0] * (n + 1)
        expected[n] = 1
        for k in range(2, n + 1):
            expected[n] *= k
        assert list(profile) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cox_b_all_regions_top_level(self, n):
        profile = level_profile(make_cox_b(n))
        count = 2**n
        for k in range(2, n + 1):
            count *= k
        assert profile[n] == count
        assert sum(profile) == count

    def test_parallel_addition_splits_levels(self):
        # Adding one parallel hyperplane H0: the new region count at each
        # level k < n grows by the level-k count of the restriction onto H0,
        # and the top level is unchanged.
        from levelarr.arrangement import restrict

        rng = random.Random(77)
        for _ in range(5):
            base = random_deformation_a(3, rng)
            direction = base.hyperplanes[0].normal
            used = {h.offset for h in base.hyperplanes if h.normal == direction}
            new_offset = next(
                Fraction(c) for c in range(-9, 9) if Fraction(c) not in used
            )
            extended = Arrangement(
                3, base.hyperplanes + (Hyperplane(direction, new_offset),)
            )
            restricted = restrict(extended, len(extended) - 1)

            before = level_profile(base)
            after = level_profile(extended)
            cut = level_profile(restricted)
            assert after[3] == before[3]
            for k in range(3):
                assert after[k] == before[k] + cut[k]


def _central(arr):
    """A_0: the central arrangement of the distinct normals of ``arr``."""
    return Arrangement(arr.dim, list({h.row: h for h in (hp(h.normal) for h in arr.hyperplanes)}.values()))


class TestLevelProfileEnds:
    """Both ends of the level profile against ``char_poly``, with no walk.

    A region is bounded iff its level is 0, so r_0 = |chi(1)| when the
    normals have rank n and 0 otherwise (Zaslavsky, Mem. AMS 154, 1975).  A
    region has level n iff its recession cone is the closure of a chamber of
    A_0, and each chamber has exactly one such region, so
    r_n = |chi_{A_0}(-1)|.  The normals have rank n iff chi_{A_0}(0) != 0:
    the lowest term of chi_{A_0} is t^(n - rank).
    """

    @staticmethod
    def assert_ends(arr):
        profile = level_profile(arr)
        central = char_poly(_central(arr))
        bounded = abs(char_poly(arr).evaluate(1)) if central.evaluate(0) else 0
        assert (profile[0], profile[-1]) == (bounded, abs(central.evaluate(-1)))

    @given(_general_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_general_input(self, arr):
        self.assert_ends(arr)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_general_r3(self, seed):
        rng = random.Random(seed)
        self.assert_ends(Arrangement(3, [hp(normal, Fraction(rng.randint(-24, 24), 8)) for normal in GENERAL_R3_NORMALS]))

    @pytest.mark.parametrize(
        "make",
        [general_r4, lambda: make_m_catalan(4, 1), lambda: random_deformation_b(3, random.Random(5), 2),
         lambda: Arrangement(3, [])],
        ids=["general_r4", "m_catalan_4_1", "random_b3_seed5", "empty_r3"],
    )
    def test_fixed_cases(self, make):
        self.assert_ends(make())


class TestExhaustiveOracle:
    def test_matches_on_random_small_arrangements(self, feasible_sign_vectors):
        rng = random.Random(31)
        for _ in range(4):
            arr = random_deformation_a(2, rng)
            assert tuple(r.sign_vector for r in enumerate_regions(arr)) == (
                feasible_sign_vectors(arr)
            )
        for _ in range(2):
            arr = random_deformation_b(2, rng, max_per_direction=1)
            assert tuple(r.sign_vector for r in enumerate_regions(arr)) == (
                feasible_sign_vectors(arr)
            )

    def test_pruned_walk_equals_flat_enumeration(self, example_b, grid_example, strict_witness, feasible_sign_vectors):
        # The prefix-pruned walk must coincide with testing all 2^m sign
        # vectors one by one, each as a fresh strict system.
        for arr in (example_b, grid_example):
            flat = set()
            for signs in product((1, -1), repeat=len(arr)):
                rows = [tuple(s * c for c in h.row) for h, s in zip(arr.hyperplanes, signs)]
                if strict_witness(rows, dim=arr.dim) is not None:
                    flat.add(signs)
            assert flat == set(feasible_sign_vectors(arr))


class TestWitnessPins:
    """Witness coordinates move only on purpose: a change here must be deliberate."""

    def test_example_a_witnesses(self, example_a):
        pinned = [
            ("+++++", ("5/4", "1/8", "0")),
            ("++-++", ("5/4", "-1/8", "0")),
            ("++--+", ("31/32", "-1/8", "0")),
            ("++---", ("-1/64", "-17/16", "0")),
            ("+-+++", ("17/16", "1/4", "0")),
            ("+-+-+", ("1/2", "1/4", "0")),
            ("+---+", ("1/2", "-1/4", "0")),
            ("+----", ("-1/16", "-1/4", "0")),
            ("--+++", ("9/8", "3/2", "0")),
            ("--+-+", ("1/16", "1/4", "0")),
            ("--+--", ("-1/2", "1/4", "0")),
            ("-----", ("-1/2", "-1/4", "0")),
        ]
        regions = enumerate_regions(example_a)
        assert [(r.sign_string(), r.witness) for r in regions] == [
            (signs, tuple(Fraction(x) for x in witness)) for signs, witness in pinned
        ]

    @pytest.mark.parametrize(
        "make, digest, masked",
        [
            # Type B witnesses come from the closure walk's potentials.
            (
                lambda: make_cox_b(3),
                "598bbd010c157c396ab32ee74649ea72d1c4074088472fca3e47cd1ec1b4980c",
                "a7a8bd722f62a31ff807176f1b52b9df61dda1ee43db8cc54f5107f9bfd179be",
            ),
            (
                lambda: random_deformation_a(4, random.Random(7), 2),
                "0d837f3ba01df52f55ae12dcd530b42a10fcba6731b81835cfd4602179d3826c",
                "6ff96f3157e23da55518b494eefd9b614da3d4f26769e509d50a354f4fb7f32e",
            ),
        ],
        ids=["cox_b3", "random_a4_seed7"],
    )
    def test_digest(self, make, digest, masked):
        # sha256 of repr([(sign_vector, witness as strings, level), ...]), and
        # ``masked`` of the same list without witnesses: sign vectors, levels
        # and order pinned apart from the witnesses.
        regions = enumerate_regions(make())
        data = repr([(r.sign_vector, tuple(str(x) for x in r.witness), r.level) for r in regions])
        assert hashlib.sha256(data.encode()).hexdigest() == digest
        data = repr([(r.sign_vector, r.level) for r in regions])
        assert hashlib.sha256(data.encode()).hexdigest() == masked


class TestMCatalanFormula:
    def test_small_values(self, mcatalan_level_count):
        assert mcatalan_level_count(2, 1, 1) == 2
        assert mcatalan_level_count(2, 1, 2) == 2

    def test_formula_matches_enumeration(self, mcatalan_level_count):
        for n, m in [(2, 1), (2, 2)]:
            profile = level_profile(make_m_catalan(n, m))
            for k in range(1, n + 1):
                assert profile[k] == mcatalan_level_count(n, m, k)
            assert profile[0] == 0

    def test_classical_catalan_top_level(self, mcatalan_level_count):
        # n! * Catalan(n) regions in total for m = 1; level n count is n! * C(2n-... )
        assert mcatalan_level_count(3, 1, 3) == 6
        assert mcatalan_level_count(3, 1, 2) == 12
        assert mcatalan_level_count(3, 1, 1) == 12

    def test_domain_checks(self, mcatalan_level_count):
        with pytest.raises(ValueError):
            mcatalan_level_count(2, 1, 0)
        with pytest.raises(ValueError):
            mcatalan_level_count(2, 1, 3)
        with pytest.raises(ValueError):
            mcatalan_level_count(0, 1, 1)
