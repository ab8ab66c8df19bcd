from fractions import Fraction
from math import comb, factorial

import pytest

from levelarr.arrangement import Arrangement, Hyperplane
from levelarr.exactmath import _EmptyIntersection, _feasible_system, _int_row, _pivot, _reduce, as_scalar, as_vector


def hp(normal, offset=0) -> Hyperplane:
    return Hyperplane(normal, offset)


def _strict_row(h_row: tuple[int, ...], sign: int) -> tuple[int, ...]:
    return h_row if sign > 0 else tuple(-c for c in h_row)


def _sign_key(signs) -> tuple[int, ...]:
    # lexicographic with + before -
    return tuple(0 if s > 0 else 1 for s in signs)


@pytest.fixture(scope="session")
def example_a() -> Arrangement:
    """Worked 5-hyperplane difference arrangement in R^3.

    x1-x2 = 0, x1-x2 = 1, x2-x3 = 0, x1-x3 = 1, x1-x3 = 0.
    Known by hand: chi = t^3 - 5t^2 + 6t, 12 regions with levels (2, 4, 6)
    at levels (1, 2, 3).
    """
    return Arrangement(
        3,
        [
            hp((1, -1, 0), 0),
            hp((1, -1, 0), 1),
            hp((0, 1, -1), 0),
            hp((1, 0, -1), 1),
            hp((1, 0, -1), 0),
        ],
    )


@pytest.fixture(scope="session")
def example_b() -> Arrangement:
    """Worked 4-hyperplane type B deformation in R^2.

    x1 = 0, x1-x2 = 0, x2 = 0, x1+x2 = 1.  chi = t^2 - 4t + 5; 10 regions,
    2 bounded (level 0) and 8 of level 2.
    """
    return Arrangement(
        2,
        [
            hp((1, 0), 0),
            hp((1, -1), 0),
            hp((0, 1), 0),
            hp((1, 1), 1),
        ],
    )


@pytest.fixture(scope="session")
def grid_example() -> Arrangement:
    """Four lines in R^2: x = 0, y = 0, x+y = 1, y = 1.

    chi = t^2 - 4t + 4; 9 regions with level profile (1, 2, 6).
    """
    return Arrangement(
        2,
        [
            hp((1, 0), 0),
            hp((0, 1), 0),
            hp((1, 1), 1),
            hp((0, 1), 1),
        ],
    )


@pytest.fixture(scope="session")
def affine_solution():
    """Solve ``a . x = b`` equations exactly: a point and a direction basis, or None.

    Test-local back-substitution over the canonical rows that
    ``exactmath._reduce`` folds the equations into.
    """

    def solve(equations, dim):
        rows = ()
        try:
            for a, b in equations:
                rows = _reduce(rows, _int_row(as_vector(a), as_scalar(b))) or rows
        except _EmptyIntersection:
            return None
        pivots = [_pivot(r) for r in rows]
        point = [Fraction(0)] * dim
        for r, p in zip(rows, pivots):
            point[p] = Fraction(r[dim], r[p])
        basis = []
        for f in (c for c in range(dim) if c not in pivots):
            v = [Fraction(0)] * dim
            v[f] = Fraction(1)
            for r, p in zip(rows, pivots):
                v[p] = Fraction(-r[f], r[p])
            basis.append(tuple(v))
        return tuple(point), tuple(basis)

    return solve


@pytest.fixture(scope="session")
def strict_witness():
    """An integer point ``(X, L)`` strictly inside every row ``c . y > r``, or None.

    The point stands for ``X / L``.  Test-local fold: the rows enter the
    split test one at a time, each from the point of the rows before it, the
    first from the origin ``(0, ..., 0, 1)``.
    """

    def fold(rows, dim):
        point = (0,) * dim + (1,)
        for i, row in enumerate(rows):
            point = _feasible_system(rows[:i], point, row)
            if point is None:
                return None
        return point

    return fold


@pytest.fixture(scope="session")
def side():
    """Signed value ``normal . point - offset`` of a hyperplane at a rational point.

    Test-local and in ``Fraction``s, so witness checks share no code with the
    package's integer slack.
    """

    def value(h, point):
        return sum((c * Fraction(x) for c, x in zip(h.normal, point)), Fraction(0)) - h.offset

    return value


@pytest.fixture(scope="session")
def feasible_sign_vectors():
    """Exhaustive enumeration of feasible sign vectors, independent of insertion.

    Walks the full {+1,-1}^m tree depth-first, testing both sides of every
    prefix with the exact split test, which starts from the witness the
    prefix carries down the walk; an infeasible prefix rules out all of its
    extensions, which keeps the walk exhaustive while skipping dead subtrees.
    An oracle for ``enumerate_regions`` at small m.
    """

    def enumerate_all(arr: Arrangement) -> tuple[tuple[int, ...], ...]:
        hrows = [h.row for h in arr.hyperplanes]
        out: list[tuple[int, ...]] = []

        def walk(prefix, rows, witness):
            if len(prefix) == len(hrows):
                out.append(tuple(prefix))
                return
            hrow = hrows[len(prefix)]
            for s in (1, -1):
                srow = _strict_row(hrow, s)
                w = _feasible_system(rows, witness, srow)
                if w is not None:
                    walk(prefix + [s], rows + [srow], w)

        walk([], [], (0,) * arr.dim + (1,))
        out.sort(key=_sign_key)
        return tuple(out)

    return enumerate_all


@pytest.fixture(scope="session")
def mcatalan_level_count():
    """Closed-form number of level-k regions of the m-Catalan arrangement.

    Evaluates n! m k / ((m+1)n - k) * C((m+1)n - k, mn) exactly; the division
    is checked to be exact.
    """

    def count(n: int, m: int, k: int) -> int:
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if not 1 <= k <= n:
            raise ValueError("level k must satisfy 1 <= k <= n")
        numerator = factorial(n) * m * k * comb((m + 1) * n - k, m * n)
        denominator = (m + 1) * n - k
        if numerator % denominator:
            raise ArithmeticError("level-count formula did not divide exactly")
        return numerator // denominator

    return count
