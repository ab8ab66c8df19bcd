import random
import re
import tracemalloc
from fractions import Fraction
from math import comb, gcd

import pytest

from levelarr.arrangement import (
    Arrangement,
    DegenerateDeformationError,
    Hyperplane,
    Kind,
    _coxeter_forms,
    _form_normal,
    delete,
    is_nondegenerate,
    make_catalan_type,
    make_cox_a,
    make_cox_b,
    make_deformation_a,
    make_deformation_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
    restrict,
)
from levelarr.exactmath import as_scalar

from conftest import dot, eighths_b4, fraction_restrict, hp, skew_r3


def same_set(a, b):
    """Set equality of two arrangements, ignoring hyperplane order."""
    return a.dim == b.dim and set(a.hyperplanes) == set(b.hyperplanes)


def _random_normals(dim: int, m: int, rng: random.Random) -> Arrangement:
    """m distinct hyperplanes with normals in [-3, 3]^dim and offsets
    in halves in [-3, 3], mostly of no Coxeter form."""
    planes = []
    while len(planes) < m:
        normal = [rng.randint(-3, 3) for _ in range(dim)]
        if any(normal):
            h = hp(normal, Fraction(rng.randint(-6, 6), 2))
            if h not in planes:
                planes.append(h)
    return Arrangement(dim, planes)


class TestHyperplane:
    def test_canonical_scaling(self, example_a, example_b, grid_example):
        assert hp((2, -2), 1) == hp((1, -1), Fraction(1, 2))
        assert hp((Fraction(1, 2), Fraction(-1, 2)), 1) == hp((1, -1), 2)
        base = hp((3, 0, -6), Fraction(-5, 4))
        assert base.row == (12, 0, -24, -5)
        for k in (Fraction(-3, 2), Fraction(2, 5), -1, 7):
            scaled = hp(tuple(k * c for c in (3, 0, -6)), k * Fraction(-5, 4))
            assert scaled.row == base.row
            assert scaled.normal == base.normal
            assert scaled.offset == base.offset
        # The row is primitive, leads with a positive entry, and equals the
        # normal scaled by the offset's denominator.
        for h in (*example_a, *example_b, *grid_example, base, hp((2, -2), 1)):
            assert gcd(*h.row) == 1
            assert next(c for c in h.row if c) > 0
            den = h.offset.denominator
            assert h.row == tuple(c * den for c in h.normal) + (h.offset.numerator,)

    @pytest.mark.parametrize("normal, offset", [((2, -4, 6), 8), ((-3, 0, 1), -5), ((0, 0, 7), 0), ((1, 1), 3)])
    def test_int_row_matches_fraction_row(self, normal, offset):
        # Integer entries skip the Fraction round trip; nothing else moves.
        ints = hp(normal, offset)
        fracs = hp(tuple(Fraction(c) for c in normal), Fraction(offset))
        assert (ints.row, ints.normal, ints.offset) == (fracs.row, fracs.normal, fracs.offset)
        assert type(ints.offset) is Fraction
        assert type(as_scalar(offset)) is int
        with pytest.raises(TypeError):
            as_scalar(True)

    def test_sign_normalization(self):
        # x2 - x1 = 3 and x1 - x2 = -3 are the same locus
        assert hp((-1, 1), 3) == hp((1, -1), -3)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            hp((0, 0), 1)

    def test_parallel_same_normal_tuple(self):
        assert hp((3, -3), 0).normal == hp((1, -1), 5).normal

    def test_forms(self):
        assert hp((0, 1, 0), 2).form() == (2, 0)
        assert hp((1, 0, -1), 0).form() == (1, 3)
        assert hp((0, 1, 1), 0).form() == (2, -3)
        assert hp((1, 2), 0).form() is None

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("kind", [Kind.TYPE_A, Kind.TYPE_B])
    def test_form_round_trip(self, kind, n):
        # Every multiple of a root's normal, negated or not, names the same root.
        forms = tuple(_coxeter_forms(kind, n))
        assert len(set(forms)) == (comb(n, 2) if kind is Kind.TYPE_A else n * n)
        for f in forms:
            normal = _form_normal(n, f)
            for scale in (1, 2, -1, -3):
                assert hp(tuple(scale * c for c in normal), 1).form() == f

    def test_non_roots_have_no_form(self):
        assert hp((-2, 2), 0).form() == (1, 2)
        assert hp((0, -1, -1), 0).form() == (2, -3)
        for normal in ((1, 1, 1), (1, 2), (1, -1, 1), (2, 1), (0, 1, -3)):
            assert hp(normal, 0).form() is None


class TestGenerators:
    def test_cox_a_counts(self):
        assert len(make_cox_a(2)) == 1
        assert len(make_cox_a(3)) == 3
        assert len(make_cox_a(4)) == 6
        with pytest.raises(ValueError):
            make_cox_a(1)

    def test_cox_b_counts(self):
        assert [h for h in make_cox_b(1)] == [hp((1,), 0)]
        assert len(make_cox_b(2)) == 4
        assert len(make_cox_b(3)) == 9
        with pytest.raises(ValueError):
            make_cox_b(0)

    def test_cox_kinds(self):
        assert make_cox_a(3).kind == Kind.TYPE_A
        assert make_cox_b(2).kind == Kind.TYPE_B

    def test_deformation_a_worked_example(self, example_a):
        arr = make_deformation_a(3, {(1, 2): [0, 1], (2, 3): [0], (1, 3): [0, 1]})
        assert same_set(arr, example_a)
        assert arr.kind == Kind.TYPE_A

    def test_deformation_a_trivial_cases(self):
        assert same_set(make_deformation_a(2, {(1, 2): [0]}), make_cox_a(2))
        catalan = make_deformation_a(2, {(1, 2): [-1, 0, 1]})
        assert same_set(catalan, make_catalan_type(2, [1], with_zero=True))

    def test_deformation_a_missing_pair(self):
        with pytest.raises(DegenerateDeformationError, match=r"offsets missing entries \[\(1, 3\)\]"):
            make_deformation_a(3, {(1, 2): [0], (2, 3): [0]})

    def test_deformation_a_duplicate_offset(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_deformation_a(2, {(1, 2): [1, 1]})

    def test_deformation_a_empty_list_degenerate(self):
        with pytest.raises(DegenerateDeformationError):
            make_deformation_a(2, {(1, 2): []})

    def test_deformation_b_worked_example(self, example_b):
        arr = make_deformation_b(2, {1: [0], 2: [0]}, {(1, 2): [0]}, {(1, 2): [1]})
        assert same_set(arr, example_b)
        assert arr.kind == Kind.TYPE_B

    def test_deformation_b_trivial_cases(self):
        assert same_set(make_deformation_b(1, {1: [0]}, {}, {}), make_cox_b(1))
        all_zero = make_deformation_b(2, {1: [0], 2: [0]}, {(1, 2): [0]}, {(1, 2): [0]})
        assert same_set(all_zero, make_cox_b(2))

    def test_deformation_b_missing_family(self):
        with pytest.raises(DegenerateDeformationError):
            make_deformation_b(2, {1: [0], 2: [0]}, {(1, 2): [0]}, {})

    def test_catalan_type(self):
        c = make_catalan_type(2, [1], with_zero=True)
        assert {h.offset for h in c} == {-1, 0, 1}
        assert len(make_catalan_type(3, [1], with_zero=True)) == 9
        semi = make_catalan_type(2, [2, 1], with_zero=False)
        assert {h.offset for h in semi} == {-2, -1, 1, 2}
        assert len(make_m_catalan(2, 2)) == 5

    def test_catalan_validation(self):
        with pytest.raises(ValueError):
            make_catalan_type(2, [1, 2], with_zero=True)  # increasing
        with pytest.raises(ValueError):
            make_catalan_type(2, [0], with_zero=True)  # not positive
        with pytest.raises(ValueError):
            make_catalan_type(2, [2, 2], with_zero=True)  # not strictly decreasing

    def test_duplicate_hyperplane_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Arrangement(2, [hp((1, -1), 0), hp((2, -2), 0)])


class TestDirectionClasses:
    def test_partition(self, example_a):
        # Parallel hyperplanes share one normal tuple, so the normals
        # partition the hyperplanes into direction classes.
        classes = {}
        for idx, h in enumerate(example_a):
            classes.setdefault(h.normal, []).append(idx)
        assert sorted(classes.values()) == [[0, 1], [2], [3, 4]]


class TestNondegeneracy:
    def test_worked_example_is_nondegenerate(self, example_a):
        assert is_nondegenerate(example_a, Kind.TYPE_A).ok

    def test_missing_direction_reported(self):
        arr = Arrangement(3, [hp((0, 1, -1), 0), hp((1, 0, -1), 0)])
        report = is_nondegenerate(arr, Kind.TYPE_A)
        assert not report.ok
        assert report.missing == ((1, 2),)
        assert "missing direction" in report.explanation()

    def test_semiorder_is_nondegenerate(self):
        semi = make_catalan_type(2, [1], with_zero=False)
        assert is_nondegenerate(semi, Kind.TYPE_A).ok

    def test_foreign_hyperplane_reported(self):
        arr = Arrangement(2, [hp((1, -1), 0), hp((1, 2), 0)])
        report = is_nondegenerate(arr, Kind.TYPE_A)
        assert not report.ok
        assert report.foreign == (1,)
        assert report.explanation() == "degenerate: hyperplanes of foreign direction at indices [1]"

    def test_long_lists_name_the_first_eight(self):
        # x1 - x2 = 0 and twelve planes 2x1 + x2 = k: type B misses x1, x2
        # and x1+x2, and the twelve foreign indices are cut after eight.
        arr = Arrangement(2, [hp((1, -1), 0)] + [hp((2, 1), k) for k in range(12)])
        report = is_nondegenerate(arr, Kind.TYPE_B)
        assert report.foreign == tuple(range(1, 13))
        assert report.explanation() == (
            "degenerate: missing direction x1, x2, x1+x2; "
            "hyperplanes of foreign direction at indices [1, 2, 3, 4, 5, 6, 7, 8, … and 4 more]"
        )

    def test_type_b_families(self):
        report = is_nondegenerate(make_cox_b(2), Kind.TYPE_B)
        assert report.ok
        arr = delete(make_cox_b(2), 0)  # drop x1 = 0
        report = is_nondegenerate(arr, Kind.TYPE_B)
        assert not report.ok
        assert (1, 0) in report.missing

    def test_type_b_report_names_directions_in_table_order(self):
        # cox_b(3) lists x1, x2, x3, x1-x2, x1+x2, x1-x3, x1+x3, x2-x3, x2+x3.
        b3 = make_cox_b(3)
        arr = Arrangement(3, [h for i, h in enumerate(b3) if i not in (1, 4, 5)])
        report = is_nondegenerate(arr, Kind.TYPE_B)
        assert report.missing == ((2, 0), (1, -2), (1, 3))
        assert is_nondegenerate(arr, Kind.TYPE_A).foreign == (0, 1, 3, 5)

    def test_general_kind_is_refused(self, example_a):
        with pytest.raises(ValueError, match="typeA or typeB"):
            is_nondegenerate(example_a, Kind.GENERAL)


class TestKindTag:
    def test_tag_agrees_with_the_reports(self):
        # Random sets of Coxeter forms, some with a foreign plane, in R^0..R^4.
        rng = random.Random(25)
        seen = set()
        for _ in range(400):
            n = rng.randint(0, 4)
            forms = _coxeter_forms(Kind.TYPE_B if rng.random() < 0.5 else Kind.TYPE_A, n)
            chosen = [f for f in forms if rng.random() < 0.9]
            planes = [hp(_form_normal(n, f), a) for f in chosen for a in range(rng.randint(1, 2))]
            if n > 1 and rng.random() < 0.2:
                planes.append(hp((1, 2) + (0,) * (n - 2), 0))
            arr = Arrangement(n, planes)
            a_ok, b_ok = (is_nondegenerate(arr, kind).ok for kind in (Kind.TYPE_A, Kind.TYPE_B))
            assert arr.kind is (Kind.TYPE_A if a_ok else Kind.TYPE_B if b_ok else Kind.GENERAL)
            seen.add(arr.kind)
        assert seen == set(Kind)

    def test_tag_costs_nothing_per_dimension(self):
        # Building reads no form, and the kind reads the forms present, not
        # the n^2 table of R^n.
        tracemalloc.start()
        try:
            arr = Arrangement(400, [hp((1,) + (0,) * 399, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.kind is Kind.GENERAL
        assert peak < 1 << 20


class TestKindOnDemand:
    def test_building_reads_no_form(self, monkeypatch, example_a):
        # Only ``kind`` reads the forms; building, deleting and restricting
        # an arrangement checks its input and classifies nothing.
        calls = []
        form = Hyperplane.form
        monkeypatch.setattr(Hyperplane, "form", lambda h: calls.append(h) or form(h))
        arr = Arrangement(3, example_a.hyperplanes)
        delete(arr, 0)
        restrict(arr, 0)
        assert calls == []
        assert arr.kind is Kind.TYPE_A
        assert calls

    def test_kind_read_costs_nothing_per_dimension(self):
        arr = Arrangement(400, [hp((1,) + (0,) * 399, 0)])
        tracemalloc.start()
        try:
            kind = arr.kind
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kind is Kind.GENERAL
        assert peak < 1 << 20


class TestInputChecks:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Arrangement(-1), ValueError, "ambient dimension must be nonnegative"),
            (lambda: Arrangement(2, [(1, 0)]), TypeError, "expected Hyperplane, got tuple"),
            (lambda: Arrangement(3, [hp((1, 0))]), ValueError, "hyperplane dimension differs from ambient dimension"),
            (lambda: make_deformation_a(2, {(1, 2): [0], (1, 3): [0]}), ValueError, "offsets keys out of range: [(1, 3)]"),
            (lambda: make_deformation_b(1, {1: [0], 2: [1]}, {}, {}), ValueError, "x_offsets keys out of range: [2]"),
            (lambda: make_deformation_a(1, {}), ValueError, "type A deformation needs n >= 2"),
            (lambda: make_deformation_b(0, {}, {}, {}), ValueError, "type B deformation needs n >= 1"),
            (lambda: make_catalan_type(1, [1]), ValueError, "needs n >= 2"),
            (lambda: make_catalan_type(2, []), ValueError, "offset value list must be nonempty"),
            (lambda: make_m_catalan(3, 0), ValueError, "needs m >= 1"),
        ],
        ids=[
            "negative_dim", "not_a_hyperplane", "dim_mismatch", "a_keys_out_of_range", "b_keys_out_of_range",
            "deformation_a_n1", "deformation_b_n0", "catalan_n1", "catalan_no_values", "m_catalan_m0",
        ],
    )
    def test_refused_with_message(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


class TestDelete:
    def test_delete_only_hyperplane(self):
        arr = delete(make_cox_a(2), 0)
        assert len(arr) == 0
        assert arr.dim == 2
        assert arr.kind == Kind.GENERAL

    def test_delete_keeps_tag_when_direction_survives(self, example_a):
        assert delete(example_a, 1).kind == Kind.TYPE_A

    def test_delete_downgrades_tag(self, example_a):
        assert delete(delete(example_a, 1), 0).kind == Kind.GENERAL

    def test_bad_index(self, example_a):
        with pytest.raises(IndexError):
            delete(example_a, 5)

    def test_delete_then_readd_is_set_equal(self, example_a):
        h = example_a.hyperplanes[2]
        rebuilt = Arrangement(3, delete(example_a, 2).hyperplanes + (h,))
        assert same_set(rebuilt, example_a)


class TestRestrict:
    def test_worked_example_onto_first(self, example_a):
        # Restricting onto x1-x2 = 0 and dropping x2: the parallel hyperplane
        # x1-x2 = 1 disappears; x2-x3 = 0 and x1-x3 = 0 both map to y1-y2 = 0
        # (computed by substituting x2 = x1 by hand); x1-x3 = 1 maps to
        # y1-y2 = 1.
        res = restrict(example_a, 0)
        assert res.dim == 2
        assert set(res.hyperplanes) == {hp((1, -1), 0), hp((1, -1), 1)}
        assert res.kind == Kind.TYPE_A

    def test_cox_a3_single_image_class(self):
        arr = make_cox_a(3)
        idx = arr.hyperplanes.index(hp((1, -1, 0), 0))
        res = restrict(arr, idx)
        assert len(res) == 1
        assert len({h.normal for h in res}) == 1

    def test_cox_b2_onto_coordinate(self):
        arr = make_cox_b(2)
        idx = arr.hyperplanes.index(hp((1, 0), 0))
        res = restrict(arr, idx)
        assert list(res.hyperplanes) == [hp((1,), 0)]
        assert res.kind == Kind.TYPE_B

    def test_bad_index(self, example_a):
        with pytest.raises(IndexError):
            restrict(example_a, -1)

    def test_images_match_bruteforce_intersections(self, example_a, example_b, affine_solution):
        for arr in (example_a, example_b):
            for h_index in range(len(arr)):
                self._check_against_bruteforce(arr, h_index, affine_solution)

    @staticmethod
    def _check_against_bruteforce(arr, h_index, solve):
        h0 = arr.hyperplanes[h_index]
        res = restrict(arr, h_index)
        # restrict drops the coordinate of H0's last nonzero normal entry
        drop = max(i for i, c in enumerate(h0.normal) if c)
        kept = [i for i in range(arr.dim) if i != drop]
        expected = set()
        for idx, h in enumerate(arr.hyperplanes):
            if idx == h_index:
                continue
            flat = solve([(h0.normal, h0.offset), (h.normal, h.offset)], dim=arr.dim)
            if flat is None or len(flat[1]) == arr.dim - 1:
                continue  # empty, or h == h0
            point, basis = flat
            point = tuple(point[i] for i in kept)
            basis = [tuple(v[i] for i in kept) for v in basis]
            # normal of the projected flat: a nonzero vector orthogonal to the
            # projected directions, found from the null space of the basis.
            null = solve([(b, 0) for b in basis], dim=arr.dim - 1)
            assert null is not None
            (normal,) = null[1]
            expected.add(Hyperplane(normal, dot(normal, point)))
        assert set(res.hyperplanes) == expected

    def test_restriction_closure_type_a(self):
        rng = random.Random(97)
        for _ in range(12):
            arr = random_deformation_a(3, rng)
            for h_index in range(len(arr)):
                res = restrict(arr, h_index)
                assert is_nondegenerate(res, Kind.TYPE_A).ok

    def test_restriction_closure_type_b(self):
        rng = random.Random(98)
        for _ in range(12):
            arr = random_deformation_b(2, rng)
            for h_index in range(len(arr)):
                res = restrict(arr, h_index)
                assert is_nondegenerate(res, Kind.TYPE_B).ok

    @pytest.mark.parametrize(
        "make",
        [
            *(lambda s=s: random_deformation_a(4, random.Random(s), 2) for s in range(3)),
            *(lambda s=s: random_deformation_b(3, random.Random(s), 2) for s in range(3)),
            *(lambda d=d: _random_normals(d, 7, random.Random(d)) for d in range(1, 6)),
            skew_r3,
            eighths_b4,
        ],
        ids=[*(f"random_a4_seed{s}" for s in range(3)), *(f"random_b3_seed{s}" for s in range(3)),
             *(f"random_normals_r{d}" for d in range(1, 6)), "skew_r3", "eighths_b4"],
    )
    def test_matches_fraction_formula(self, make):
        # The integer elimination step gives the same images, in the same
        # order, as the Fraction formula on normals and offsets.
        arr = make()
        for h_index in range(len(arr)):
            res = restrict(arr, h_index)
            ref = fraction_restrict(arr, h_index)
            assert res.dim == ref.dim
            assert res.hyperplanes == ref.hyperplanes

    def test_restriction_from_r1_gives_r0(self):
        arr = make_deformation_b(1, {1: [0, 1]}, {}, {})
        res = restrict(arr, 0)
        assert res.dim == 0
        assert len(res) == 0


class TestRandomGenerators:
    def test_reproducible(self):
        a1 = random_deformation_a(3, random.Random(5))
        a2 = random_deformation_a(3, random.Random(5))
        assert a1 == a2

    def test_offsets_within_pool(self):
        arr = random_deformation_a(4, random.Random(11), max_per_direction=2)
        for h in arr:
            assert abs(h.offset) <= 3
            assert h.offset.denominator in (1, 2)
        assert is_nondegenerate(arr, Kind.TYPE_A).ok

    def test_type_b_reproducible_and_valid(self):
        b1 = random_deformation_b(3, random.Random(9))
        b2 = random_deformation_b(3, random.Random(9))
        assert b1 == b2
        assert is_nondegenerate(b1, Kind.TYPE_B).ok
