import random
from fractions import Fraction

import numpy as np
import pytest

from levelarr import ffcount
from levelarr.arrangement import Arrangement, Hyperplane, make_cox_a, make_cox_b
from levelarr.ffcount import (
    POINT_LIMIT,
    admissible_primes,
    coefficient_bound,
    count_complement_points,
    ff_oracle_check,
    is_prime,
)
from levelarr.cli import main
from levelarr.document import document_of, dumps_document
from levelarr.poset import char_poly


def hp(normal, offset=0):
    return Hyperplane(normal, offset)


def direct_count(arr, q):
    """Reference count: every point of F_q^n tested against every row."""
    n = arr.dim
    idx = np.arange(q**n, dtype=np.int64)
    coords = [(idx // q**j) % q for j in range(n)]
    ok = np.ones(idx.shape, dtype=bool)
    for h in arr:
        row = [c % q for c in h.row]
        acc = np.zeros(idx.shape, dtype=np.int64)
        for a, coord in zip(row[:n], coords):
            acc += a * coord
        ok &= (acc - row[n]) % q != 0
    return int(ok.sum())


def sweep_arrangement(rng, n):
    """Rows through one integer point, a row with a_n = 0, and rational offsets.

    The first three rows meet at the point, so above its prefix they forbid
    the same x_n; the first row has a_n = 0 when n > 1.
    """
    point = [rng.randint(-4, 4) for _ in range(n)]
    planes = {}
    for k in range(rng.randint(3, 7)):
        normal = [rng.randint(-3, 3) for _ in range(n)]
        if k == 0 and n > 1:
            normal[-1] = 0
        if not any(normal):
            normal[0] = 1
        if k < 3:
            offset = sum(a * x for a, x in zip(normal, point))
        else:
            offset = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))
        h = hp(normal, offset)
        planes[h.row] = h
    return Arrangement(n, planes.values())


class TestPrimes:
    def test_is_prime(self):
        primes = [q for q in range(60) if is_prime(q)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_admissible_respects_bound_and_guard(self, example_a):
        assert coefficient_bound(example_a) == 1
        assert admissible_primes(example_a, 3) == [3, 5, 7]
        wide = Arrangement(1, [hp((1,), 10)])
        assert admissible_primes(wide, 2) == [23, 29]

    def test_guard_comes_before_primality(self, monkeypatch, tmp_path, capsys, example_a):
        # x1 - x2 = 10^20 puts every candidate's q^2 past the guard, so the
        # check fails at once with the note and tests no candidate for primality.
        calls = []

        def counted(q):
            calls.append(q)
            return is_prime(q)

        monkeypatch.setattr(ffcount, "is_prime", counted)
        path = tmp_path / "far.json"
        path.write_text(dumps_document(document_of(Arrangement(2, [hp((1, -1), 10**20), hp((1, 0), 0)]))))
        assert main(["verify", str(path), "--theorem=ff"]) == 1
        assert capsys.readouterr().out == (
            "finite-field count check\n"
            "  note: only 0 admissible prime(s) under the enumeration guard (requested 2)\n"
            "FAIL\n"
        )
        assert calls == []
        assert admissible_primes(example_a, 3) == [3, 5, 7]
        assert calls == [3, 4, 5, 6, 7]


    def test_no_poset_without_a_prime(self, monkeypatch, tmp_path, capsys, example_a):
        # The 10^20 document leaves no prime to count, so chi is never built;
        # a countable arrangement builds it once.
        builds = []

        def counted(arr):
            builds.append(arr)
            return char_poly(arr)

        monkeypatch.setattr(ffcount, "char_poly", counted)
        far = Arrangement(2, [hp((1, -1), 10**20), hp((1, 0), 0)])
        plan = ff_oracle_check(far, 2)
        assert (plan.complete, plan.primes, builds) == (False, (), [])
        path = tmp_path / "far.json"
        path.write_text(dumps_document(document_of(far)))
        assert main(["verify", str(path), "--theorem=ff"]) == 1
        assert capsys.readouterr().out == (
            "finite-field count check\n"
            "  note: only 0 admissible prime(s) under the enumeration guard (requested 2)\n"
            "FAIL\n"
        )
        assert builds == []
        assert ff_oracle_check(example_a, 2).agree
        assert builds == [example_a]


class TestInputChecks:
    @pytest.mark.parametrize("num_primes", [0, -3])
    def test_refused_with_message(self, example_a, num_primes):
        with pytest.raises(ValueError, match="^need at least one prime$"):
            ff_oracle_check(example_a, num_primes)


class TestCountComplementPoints:
    def test_empty_line(self):
        assert count_complement_points(Arrangement(1, []), 5) == 5

    def test_cox_a2_by_hand(self):
        # Points (x1, x2) with x1 != x2: q(q-1).
        assert count_complement_points(make_cox_a(2), 5) == 20

    def test_worked_example_a(self, example_a):
        assert count_complement_points(example_a, 7) == 140

    def test_rational_offsets_cleared(self):
        arr = Arrangement(1, [hp((1,), Fraction(1, 2))])
        # 2x = 1 (mod q) has exactly one solution for odd q
        assert count_complement_points(arr, 5) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_direct_count_on_seeded_sweep(self, n):
        # 17 and 19 are the primes the benchmark's type B4 documents count most.
        primes = (2, 3, 5, 7, 11, 13) + ((17, 19) if n <= 3 else ())
        rng = random.Random(n)
        for _ in range(25):
            arr = sweep_arrangement(rng, n)
            for q in primes:
                assert count_complement_points(arr, q) == direct_count(arr, q)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_prefix_chunks_split_inside_a_coordinate(self, monkeypatch, n):
        # _CHUNK = 5 cuts the prefixes into chunks of at most 5, fewer than
        # q, so most chunks start at an index whose low base-q digit is not 0.
        monkeypatch.setattr(ffcount, "_CHUNK", 5)
        rng = random.Random(100 + n)
        for _ in range(10):
            arr = sweep_arrangement(rng, n)
            for q in (7, 11):
                assert count_complement_points(arr, q) == direct_count(arr, q)

    def test_dim_zero_is_one_point(self):
        # restrict() produces R^0 arrangements, which hold no hyperplane.
        assert count_complement_points(Arrangement(0, []), 7) == 1

    def test_int64_headroom_line_at_guard(self):
        q = 9999991  # the largest prime <= POINT_LIMIT
        assert is_prime(q) and q <= POINT_LIMIT
        # x = 1 twice modulo q, -x = -2, and q x = 1 (a_n = 0, never holds).
        arr = Arrangement(1, [hp((1,), 1), hp((1,), 1 + q), hp((q - 1,), q - 2), hp((q,), 1)])
        assert count_complement_points(arr, q) == q - 2

    def test_int64_headroom_plane_at_guard(self):
        q = 3137  # the largest prime with q^2 <= POINT_LIMIT
        assert is_prime(q) and q**2 <= POINT_LIMIT
        # x1 = 0, x2 = 0 and x2 = x1 + 1 (normal (q - 1, 1)): above x1 != 0
        # two values of x2 are forbidden, except above x1 = -1, where one is.
        arr = Arrangement(2, [hp((1, 0), 0), hp((0, 1), 0), hp((q - 1, 1), 1)])
        assert count_complement_points(arr, q) == (q - 2) ** 2 + (q - 1)

    def test_rejects_composite(self, example_a):
        with pytest.raises(ValueError, match="not prime"):
            count_complement_points(example_a, 9)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            count_complement_points(Arrangement(5, []), 101)

    def test_multiplicative_over_disjoint_coordinates(self):
        left = Arrangement(2, [hp((1, -1), 0), hp((1, -1), 1)])
        right = Arrangement(1, [hp((1,), 0)])
        product = Arrangement(
            3, [hp((1, -1, 0), 0), hp((1, -1, 0), 1), hp((0, 0, 1), 0)]
        )
        for q in (5, 7, 11):
            assert count_complement_points(product, q) == count_complement_points(
                left, q
            ) * count_complement_points(right, q)


class TestOracleCheck:
    def test_worked_example_three_primes(self, example_a):
        plan = ff_oracle_check(example_a, 3)
        assert plan.complete
        assert plan.agree
        assert plan.primes == (3, 5, 7)

    def test_grid_example(self, grid_example):
        plan = ff_oracle_check(grid_example, 2)
        assert plan.complete and plan.agree

    def test_cox_b2_counts_match_formula(self):
        plan = ff_oracle_check(make_cox_b(2), 2)
        assert plan.agree
        for q, count in zip(plan.primes, plan.counts):
            assert count == (q - 1) * (q - 3)

    def test_counts_equal_chi_for_every_admissible_prime(self, example_b):
        chi = char_poly(example_b)
        for q in admissible_primes(example_b, 4):
            assert count_complement_points(example_b, q) == chi.evaluate(q)

    def test_partial_plan_when_guard_blocks(self):
        # n = 5 with a large coefficient: already 150^5 >> the guard.
        arr = Arrangement(5, [hp((1, 0, 0, 0, 0), 75)])
        plan = ff_oracle_check(arr, 2)
        assert not plan.complete
        assert plan.primes == ()
