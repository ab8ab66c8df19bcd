import hashlib
import random
from fractions import Fraction

import pytest

from levelarr.arrangement import (
    Arrangement,
    Hyperplane,
    Kind,
    delete,
    make_cox_a,
    make_cox_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
)
from levelarr.exactmath import cone_span_dimension
from levelarr.poset import char_poly
from levelarr.regions import (
    _digraph_level,
    _signed_edges,
    enumerate_regions,
    feasible_sign_vectors,
    level_profile,
    mcatalan_level_count,
)


def hp(normal, offset=0):
    return Hyperplane(normal, offset)


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
        regions = enumerate_regions(example_a)
        keys = [tuple(0 if s > 0 else 1 for s in r.sign_vector) for r in regions]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_matches_exhaustive_enumeration(self, example_a, example_b, grid_example):
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
        arr = Arrangement(4, list(planes.values()))
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
            cone = [(h.normal, s) for h, s in zip(example_b.hyperplanes, region.sign_vector)]
            assert cone_span_dimension(cone, dim=example_b.dim) == region.level

    def test_cox_a3_all_top_level(self):
        regions = enumerate_regions(make_cox_a(3))
        assert len(regions) == 6
        assert all(r.level == 3 for r in regions)


def _lp_level(arr, signs):
    return cone_span_dimension([(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=arr.dim)


class TestTypeALevelOracle:
    """In a type A deformation the recession cone is cut out by d_i >= d_j
    relations; its span has one dimension per strongly connected component of
    that digraph (the braid cone of a preposet).  The signed digraph level
    reads it off: type A normals are ``diff`` forms only, so node 0 is its own
    excluded component and every component C of the nodes +i has its own
    mirror -C."""

    def test_levels_match_strong_components(self):
        rng = random.Random(2024)
        arrangements = [random_deformation_a(3, rng) for _ in range(6)]
        arrangements += [random_deformation_a(4, rng) for _ in range(4)]
        arrangements.append(make_cox_a(4))
        for arr in arrangements:
            edges = _signed_edges(arr)
            for region in enumerate_regions(arr):
                assert region.level == _digraph_level(edges, region.sign_vector, arr.dim)


class TestTypeBLevelOracle:
    """Type B levels come from the signed digraph; the LP is the cross-check."""

    def test_digraph_level_matches_lp(self, example_b):
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
        # {+-3, +-4}, each its own mirror, and they add no dimension.
        planes = [
            hp(normal, offset)
            for normal in ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))
            for offset in (0, 1)
        ]
        arr = Arrangement(4, planes)
        edges = _signed_edges(arr)
        regions = enumerate_regions(arr)
        levels = [_digraph_level(edges, r.sign_vector, 4) for r in regions]
        assert levels == [r.level for r in regions]
        assert levels.count(0) == 1

    def test_level_routing(self, monkeypatch, example_a, example_b, grid_example):
        # Type B takes the digraph; type A, general arrangements and
        # degenerate ones with type B normals only take one LP per region.
        calls = {"lp": 0, "digraph": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr("levelarr.regions.cone_span_dimension", counted("lp", cone_span_dimension))
        monkeypatch.setattr("levelarr.regions._digraph_level", counted("digraph", _digraph_level))
        degenerate = delete(make_cox_b(3), 0)
        assert degenerate.kind is Kind.GENERAL
        for arr in (example_a, make_cox_a(3), grid_example, degenerate, example_b, make_cox_b(3)):
            calls.update(lp=0, digraph=0)
            count = len(enumerate_regions(arr))
            if arr.kind is Kind.TYPE_B:
                assert calls == {"lp": 0, "digraph": count}
            else:
                assert calls == {"lp": count, "digraph": 0}


class TestLevelProfile:
    def test_worked_example_a(self, example_a):
        assert level_profile(example_a).counts == (0, 2, 4, 6)

    def test_worked_example_b(self, example_b):
        profile = level_profile(example_b)
        assert profile.counts == (2, 0, 8)
        assert profile.total == 10
        assert profile.nonzero() == ((0, 2), (2, 8))

    def test_grid_example(self, grid_example):
        assert level_profile(grid_example).counts == (1, 2, 6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cox_a_all_regions_top_level(self, n):
        profile = level_profile(make_cox_a(n))
        expected = [0] * (n + 1)
        expected[n] = 1
        for k in range(2, n + 1):
            expected[n] *= k
        assert list(profile.counts) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cox_b_all_regions_top_level(self, n):
        profile = level_profile(make_cox_b(n))
        count = 2**n
        for k in range(2, n + 1):
            count *= k
        assert profile.counts[n] == count
        assert profile.total == count

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
            restricted, _ = restrict(extended, len(extended) - 1)

            before = level_profile(base).counts
            after = level_profile(extended).counts
            cut = level_profile(restricted).counts
            assert after[3] == before[3]
            for k in range(3):
                assert after[k] == before[k] + cut[k]


class TestExhaustiveOracle:
    def test_matches_on_random_small_arrangements(self):
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

    def test_pruned_walk_equals_flat_enumeration(self, example_b, grid_example, strict_witness):
        # The prefix-pruned walk must coincide with testing all 2^m sign
        # vectors one by one, each as a fresh strict system.
        from itertools import product

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
        "make, digest",
        [
            (lambda: make_cox_b(3), "a21aad34e0fb79ef06bcd678c6a33fdf4d2b426acec15feef74173ca7e8e1100"),
            (
                lambda: random_deformation_a(4, random.Random(7), 2),
                "0d837f3ba01df52f55ae12dcd530b42a10fcba6731b81835cfd4602179d3826c",
            ),
        ],
        ids=["cox_b3", "random_a4_seed7"],
    )
    def test_digest(self, make, digest):
        # sha256 of repr([(sign_vector, witness as strings, level), ...]).
        regions = enumerate_regions(make())
        data = repr([(r.sign_vector, tuple(str(x) for x in r.witness), r.level) for r in regions])
        assert hashlib.sha256(data.encode()).hexdigest() == digest


class TestMCatalanFormula:
    def test_small_values(self):
        assert mcatalan_level_count(2, 1, 1) == 2
        assert mcatalan_level_count(2, 1, 2) == 2

    def test_formula_matches_enumeration(self):
        for n, m in [(2, 1), (2, 2)]:
            profile = level_profile(make_m_catalan(n, m))
            for k in range(1, n + 1):
                assert profile.counts[k] == mcatalan_level_count(n, m, k)
            assert profile.counts[0] == 0

    def test_classical_catalan_top_level(self):
        # n! * Catalan(n) regions in total for m = 1; level n count is n! * C(2n-... )
        assert mcatalan_level_count(3, 1, 3) == 6
        assert mcatalan_level_count(3, 1, 2) == 12
        assert mcatalan_level_count(3, 1, 1) == 12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            mcatalan_level_count(2, 1, 0)
        with pytest.raises(ValueError):
            mcatalan_level_count(2, 1, 3)
        with pytest.raises(ValueError):
            mcatalan_level_count(0, 1, 1)
