import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd
from typing import NamedTuple, Optional, Sequence

import pytest

from levelarr import poset
from levelarr.arrangement import Arrangement, Hyperplane
from levelarr.exactmath import IntRow, _feasible_system, _int_row, as_scalar, as_vector


# ---------------------------------------------------------------------------
# Canonical affine equation systems: the tests' reference fold
#
# An equation a . x = b is the integer row (a_1, ..., a_n, b).  A canonical
# system is the reduced row-echelon form of its rows, each row rescaled to a
# primitive integer vector with a positive pivot, ordered by pivot column.
# Rational row spaces and canonical systems are in bijection, so two systems
# describe the same affine subspace exactly when they are equal tuples.  The
# package only asks for ranks (``exactmath._rank``); the references below key
# flats by these systems and share no elimination code with it.
# ---------------------------------------------------------------------------


def _normalize(row: Sequence[int]) -> Optional[IntRow]:
    """Primitive form with positive leading variable entry; None for the zero row."""
    g = gcd(*row)
    if g == 0:
        return None
    row = tuple(c // g for c in row) if g > 1 else tuple(row)
    for c in row[:-1]:
        if c:
            return row if c > 0 else tuple(-c for c in row)
    return row


def _pivot(row: IntRow) -> int:
    return next(i for i, c in enumerate(row[:-1]) if c)


class _EmptyIntersection(Exception):
    pass


def _reduce(rows: tuple[IntRow, ...], row: Sequence[int]) -> Optional[tuple[IntRow, ...]]:
    """Add one equation to a canonical system.

    Returns the new canonical system, or None when the equation already holds
    on the flat.  Raises _EmptyIntersection when it contradicts the system:
    a row whose normal reduces to zero but whose offset does not, which
    would otherwise reach ``_pivot`` and escape as a bare ``StopIteration``.
    """
    for r in rows:
        p = _pivot(r)
        f = row[p]
        if f:
            rp = r[p]
            row = [w * rp - rv * f for w, rv in zip(row, r)]
    new = _normalize(row)
    if new is None:
        return None
    if not any(new[:-1]):
        raise _EmptyIntersection
    # Clear the new pivot column from the other rows (their pivots stay put)
    # and insert the new row in pivot order.
    p = _pivot(new)
    cleared = [_normalize([a * new[p] - b * r[p] for a, b in zip(r, new)]) if r[p] else r for r in rows]
    return tuple(sorted(cleared + [new], key=_pivot))


def fold(equations) -> tuple[IntRow, ...]:
    """Canonical system of ``a . x = b`` equations, folded by ``_reduce`` in
    the given order; an empty intersection raises ``_EmptyIntersection``."""
    system = ()
    for a, b in equations:
        system = _reduce(system, _int_row(as_vector(a), as_scalar(b))) or system
    return system


class Flat(NamedTuple):
    """An element of the intersection poset: an affine subspace.

    ``mask`` has bit i set when hyperplane i contains the subspace; that
    maximal set of hyperplanes determines the flat, so it keys and orders
    flats, and a flat carries no equation system of its own.
    """

    dim: int
    codim: int
    mask: int
    mobius: int


def canonical_rows(arr: Arrangement, indices) -> tuple[IntRow, ...]:
    """A flat's canonical row system: the ``_reduce`` fold of the rows of the
    hyperplanes (``indices``) that contain it."""
    rows = ()
    for idx in sorted(indices):
        rows = _reduce(rows, arr.hyperplanes[idx].row) or rows
    return rows


def _holds(rows: tuple[IntRow, ...], row: IntRow) -> bool:
    """Whether the equation ``row`` holds on the flat of the canonical system."""
    try:
        return _reduce(rows, row) is None
    except _EmptyIntersection:
        return False


def build_poset(arr: Arrangement) -> tuple[Flat, ...]:
    """All flats of the arrangement with their Möbius values, read off
    ``poset._walk``: the tests' listing of the walk that ``char_poly`` sums.

    The ambient space, the unique minimal element, is ``flats[0]``; flats
    come in codimension-major order, by ascending mask within each
    codimension.  The walk lists every flat below top rank.  A flat Y of
    codim top - 1 yields one group per top-rank point on it whose lowest
    hyperplane Y misses, and the group's lowest hyperplane is one that Y
    misses.  Each point is named here with ``_reduce``, independently of
    the walk: Y's canonical system plus that hyperplane's row.  Its mask is
    every hyperplane that system holds, its Weisner sum adds mu(Y), and the
    points are appended once, by ascending mask.
    """
    n = arr.dim
    rows = [h.row for h in arr.hyperplanes]
    flats: list[Flat] = []
    points: dict[tuple, int] = {}  # top-rank canonical system -> Weisner sum
    for codim, mask, mu, groups in poset._walk(arr):
        flats.append(Flat(n - codim, codim, mask, mu))
        if groups is not None:
            system = canonical_rows(arr, poset._bits(mask))
            for g in groups:
                point = _reduce(system, rows[(g & -g).bit_length() - 1])
                points[point] = points.get(point, 0) + mu
    if not flats:
        return (Flat(n, 0, 0, 1),)  # no hyperplane: the ambient space is the top
    top = flats[-1].codim + 1
    masks = {sum(1 << i for i, row in enumerate(rows) if _holds(point, row)): total for point, total in points.items()}
    flats.extend(Flat(n - top, top, z, -total) for z, total in sorted(masks.items()))
    return tuple(flats)


def fraction_restrict(arr: Arrangement, h_index: int) -> Arrangement:
    """``arrangement.restrict`` as a ``Fraction`` formula on the normals and
    offsets, the reference its integer elimination step is pinned against.

    H0 is identified with R^(n-1) by dropping the coordinate of the largest
    index with a nonzero normal entry; each other hyperplane H maps to
    ``(H.normal * c0 - a_p * H0.normal, H.offset * c0 - a_p * H0.offset)``
    without that coordinate, c0 and a_p the dropped entries of H0 and H.
    """
    h0 = arr.hyperplanes[h_index]
    drop = max(i for i, c in enumerate(h0.normal) if c)
    keep = tuple(i for i in range(arr.dim) if i != drop)
    c0 = h0.normal[drop]

    images: list[Hyperplane] = []
    seen: set[Hyperplane] = set()
    for idx, h in enumerate(arr.hyperplanes):
        if idx == h_index:
            continue
        ap = h.normal[drop]
        normal = tuple(h.normal[i] * c0 - ap * h0.normal[i] for i in keep)
        if not any(normal):
            continue  # parallel to H0 and distinct: empty intersection
        image = Hyperplane(normal, h.offset * c0 - ap * h0.offset)
        if image not in seen:
            seen.add(image)
            images.append(image)
    return Arrangement(arr.dim - 1, images)


def padded(cp: poset.CharPoly, width: int) -> tuple[int, ...]:
    """A ``CharPoly``'s coefficients, constant term first, padded with zeros to ``width``."""
    return tuple(cp.coeffs) + (0,) * (width - len(cp.coeffs))


def poly_from_roots(roots) -> tuple[int, ...]:
    """Ascending coefficients of the product of (t - r) over the roots."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [c - r * d for c, d in zip(shifted, coeffs + [0])]
    return tuple(coeffs)


def hp(normal, offset=0) -> Hyperplane:
    return Hyperplane(normal, offset)


def dot(a, b) -> Fraction:
    """Exact dot product of two rational vectors, sharing no code with the package."""
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def eighths_arrangement(dim: int, normals, extra: int, seed: int) -> Arrangement:
    """Hyperplanes ``normal . x = c`` with offsets c in eighths in [-3, 3],
    drawn by ``random.Random(seed)``: two offsets on each of the first
    ``extra`` normals and one on every other, the shape of the benchmark's
    documents.  With eighths, most rows are (k * nu, b) with k > 1 times the
    primitive normal nu, so eliminations take the scaled branch."""
    rng = random.Random(seed)
    offsets = [Fraction(k, 8) for k in range(-24, 25)]
    return Arrangement(dim, [
        hp(normal, c) for i, normal in enumerate(normals) for c in sorted(rng.sample(offsets, 2 if i < extra else 1))
    ])


def _unit(dim: int, i: int, j: int = -1, sign: int = 0) -> tuple[int, ...]:
    return tuple(1 if k == i else sign if k == j else 0 for k in range(dim))


def eighths_a5() -> Arrangement:
    """A type A deformation in R^5: x_i - x_j = c, 13 hyperplanes."""
    return eighths_arrangement(5, [_unit(5, i, j, -1) for i, j in combinations(range(5), 2)], extra=3, seed=14)


def eighths_b4() -> Arrangement:
    """A type B deformation in R^4: x_i = c, x_i - x_j = c and x_i + x_j = c, 18 hyperplanes."""
    normals = [_unit(4, i) for i in range(4)]
    normals += [_unit(4, i, j, s) for i, j in combinations(range(4), 2) for s in (-1, 1)]
    return eighths_arrangement(4, normals, extra=2, seed=14)


def unit_offsets_b4() -> Arrangement:
    """A type B deformation in R^4 with one offset in {-1, 0, 1} per direction,
    drawn by ``random.Random(1)``: the shape of the benchmark's finite-field
    documents.  The coefficient bound is 1, so the prime scan starts at 3, and
    q = 3, 5 and 7 merge flats and disagree with chi."""
    rng = random.Random(1)
    normals = [_unit(4, i) for i in range(4)]
    normals += [_unit(4, i, j, s) for i, j in combinations(range(4), 2) for s in (-1, 1)]
    return Arrangement(4, [hp(normal, rng.choice((-1, 0, 1))) for normal in normals])


def skew_r3() -> Arrangement:
    """Eleven planes in R^3 over normals of no Coxeter form, whose residuals
    pick up scales other than 1 from the normal half alone."""
    normals = [(1, 2, 0), (2, 0, 1), (0, 1, 2), (1, 1, -1), (1, -1, 1), (1, 0, -2), (3, 1, 0)]
    return eighths_arrangement(3, normals, extra=4, seed=14)


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

    Test-local back-substitution over the canonical rows that ``_reduce``
    folds the equations into.
    """

    def solve(equations, dim):
        try:
            rows = fold(equations)
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
