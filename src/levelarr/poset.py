"""Intersection poset, Möbius function and the characteristic polynomial.

Flats (nonempty intersections of hyperplanes) are found by breadth-first
search over codimension levels: every flat is intersected with every
hyperplane, and the results are deduplicated by a canonical integer form of
their defining equation system.  This keys flats by geometry, not by which
subset of hyperplanes generated them, and avoids enumerating 2^m subsets.

The key is the canonical integer row system of ``exactmath`` (the reduced
row-echelon form of [A | b], rescaled row-wise to primitive integer vectors
with positive pivots), grown one ``Hyperplane.row`` at a time by
``exactmath._reduce``.  Rational row spaces and canonical systems are in
bijection, so two flats are equal exactly when their keys are equal, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arrangement import Arrangement
from .exactmath import IntRow, Vector, _EmptyIntersection, _reduce, _solve_rows


@dataclass(frozen=True)
class Flat:
    """An element of the intersection poset: an affine subspace.

    ``containing`` is the maximal set of hyperplane indices whose hyperplanes
    contain the subspace; ``rows`` is the canonical defining equation system
    that keys the flat.
    """

    rows: tuple[IntRow, ...]
    dim: int
    containing: frozenset[int]
    mobius: int

    @property
    def codim(self) -> int:
        return len(self.rows)

    @property
    def point(self) -> Vector:
        """A point of the flat, computed on access."""
        return _solve_rows(self.rows, self.dim + self.codim)[0]

    @property
    def basis(self) -> tuple[Vector, ...]:
        """A basis of the flat's direction space, computed on access."""
        return _solve_rows(self.rows, self.dim + self.codim)[1]


class IntersectionPoset:
    """All flats of an arrangement, ordered by reverse inclusion.

    The ambient space is the unique minimal element; flats are stored in
    codimension-major order, deterministically within each codimension.
    """

    def __init__(self, arrangement: Arrangement, flats: tuple[Flat, ...]):
        self.arrangement = arrangement
        self.flats = flats
        self._by_rows = {f.rows: f for f in flats}

    def __len__(self) -> int:
        return len(self.flats)

    def __iter__(self):
        return iter(self.flats)

    @property
    def bottom(self) -> Flat:
        return self.flats[0]

    def __contains__(self, flat: Flat) -> bool:
        return isinstance(flat, Flat) and self._by_rows.get(flat.rows) is flat

    def leq(self, x: Flat, y: Flat) -> bool:
        """x <= y in the reverse-inclusion order, i.e. x contains y."""
        return x.containing <= y.containing

    def flats_of_codim(self, codim: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.codim == codim)


def build_poset(arr: Arrangement) -> IntersectionPoset:
    """Construct the intersection poset with Möbius values.

    BFS over codimension levels; at each flat all hyperplanes are tried, which
    yields both the children and (via the hyperplanes that reduce to the zero
    row) the flat's maximal containing set.
    """
    n = arr.dim
    hrows = [h.row for h in arr.hyperplanes]

    containing_of: dict[tuple[IntRow, ...], frozenset[int]] = {}
    order: list[tuple[IntRow, ...]] = []
    level: list[tuple[IntRow, ...]] = [()]
    known: set[tuple[IntRow, ...]] = {()}
    while level:
        next_level: set[tuple[IntRow, ...]] = set()
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

    # Möbius recursion in codimension-major order: mu(bottom) = 1 and the
    # values on every proper lower interval sum to zero.
    mobius: dict[tuple[IntRow, ...], int] = {}
    seen: list[tuple[frozenset[int], int]] = []
    for rows in order:
        containing = containing_of[rows]
        if not rows:
            mu = 1
        else:
            mu = -sum(m for c, m in seen if c <= containing)
        mobius[rows] = mu
        seen.append((containing, mu))

    flats = tuple(
        Flat(rows=rows, dim=n - len(rows), containing=containing_of[rows], mobius=mobius[rows])
        for rows in order
    )
    return IntersectionPoset(arr, flats)


def mobius(poset: IntersectionPoset, flat: Flat) -> int:
    """Möbius value mu(bottom, flat); the flat must belong to the poset."""
    if flat.rows not in poset._by_rows:
        raise KeyError("flat does not belong to this poset")
    return poset._by_rows[flat.rows].mobius


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial with integer coefficients, ascending order.

    ``coeffs[k]`` is the coefficient of t^k; the length is ambient dimension
    plus one and the polynomial is monic of that degree.
    """

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t: Union[int, Fraction]):
        acc: Union[int, Fraction] = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def char_poly(arr: Arrangement) -> CharPoly:
    """Exact characteristic polynomial via Möbius summation over the poset."""
    coeffs = [0] * (arr.dim + 1)
    for flat in build_poset(arr):
        coeffs[flat.dim] += flat.mobius
    return CharPoly(tuple(coeffs))
