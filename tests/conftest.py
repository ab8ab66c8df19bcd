from fractions import Fraction

import pytest

from levelarr.arrangement import Arrangement, Hyperplane
from levelarr.exactmath import _EmptyIntersection, _feasible_system, _int_row, _pivot, _reduce, as_scalar, as_vector


def hp(normal, offset=0) -> Hyperplane:
    return Hyperplane(normal, offset)


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
