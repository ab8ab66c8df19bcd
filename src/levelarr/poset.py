"""Intersection poset, Möbius function and the characteristic polynomial.

Flats (nonempty intersections of hyperplanes) are found by breadth-first
search over codimension levels, which avoids enumerating 2^m subsets.  At
each flat, every hyperplane that does not contain it is reduced against the
flat's equations once; hyperplanes with equal residuals cut out the same
child, so each group of equal residuals is one child and its containing set
is known without further elimination.  Children are keyed by that containing
set (a flat is the intersection of the hyperplanes that contain it), and
Möbius values are read off the cover relations the search finds: (-1)^codim
on a Boolean lower interval, and otherwise minus the sum over the ancestor
set that the covers accumulate.

A flat's equations are the canonical integer row system of ``exactmath``
(the reduced row-echelon form of [A | b], rescaled row-wise to primitive
integer vectors with positive pivots), built once per flat by
``exactmath._reduce``; the residuals come from the same elimination step,
``exactmath._residual``.  Rational row spaces and canonical systems are in
bijection, so flats are ordered by these rows, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arrangement import Arrangement
from .exactmath import IntRow, _normalize, _pivot, _reduce, _residual


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


class IntersectionPoset:
    """All flats of an arrangement, ordered by reverse inclusion.

    The ambient space, the unique minimal element, is ``flats[0]``; flats
    are stored in codimension-major order, deterministically within each
    codimension, and x <= y exactly when ``x.containing <= y.containing``.
    """

    def __init__(self, flats: tuple[Flat, ...]):
        self.flats = flats

    def __len__(self) -> int:
        return len(self.flats)

    def __iter__(self):
        return iter(self.flats)


def build_poset(arr: Arrangement) -> IntersectionPoset:
    """Construct the intersection poset with Möbius values.

    BFS over codimension levels.  At a flat Y every hyperplane H outside
    cont(Y) costs one elimination: its residual, H's row reduced against Y's
    canonical rows.  Those rows are in RREF, so every residual is 0 on Y's
    pivot columns, and H' contains Y ∩ H exactly when its residual equals
    H's.  Each group of equal residuals is therefore one child Z, with
    cont(Z) = cont(Y) plus the group; a residual with a zero normal and a
    nonzero constant is an empty intersection.  A flat is the intersection of
    the hyperplanes that contain it, so children are keyed by that containing
    bitmask, and a new child's canonical rows are built once, by ``_reduce``.

    Möbius values come from the cover relations the BFS finds.  When exactly
    codim(Z) hyperplanes contain Z, its lower interval is Boolean and
    mu(Z) = (-1)^codim; otherwise mu(Z) is minus the sum over its ancestors,
    a bitset over flat indices that is the union, over Z's cover parents, of
    each parent's ancestors and the parent itself.
    """
    n = arr.dim
    hrows = [h.row for h in arr.hyperplanes]

    flats: list[Flat] = []
    # One entry per flat of the current codimension: (rows, containing mask,
    # ancestor bitset over flat indices), sorted by rows in descending order
    # and popped, so that a bitset is freed once its children have taken it.
    level: list[tuple[tuple[IntRow, ...], int, int]] = [((), 0, 0)]
    for codim in range(n + 1):
        children: dict[int, list] = {}  # containing mask -> [rows, ancestors]
        while level:
            rows, mask, ancestors = level.pop()
            index = len(flats)
            if mask.bit_count() == codim:
                mu = -1 if codim % 2 else 1
            else:
                mu = -sum(flats[i].mobius for i in _bits(ancestors))
            flats.append(Flat(rows=rows, dim=n - codim, containing=frozenset(_bits(mask)), mobius=mu))

            pivots = [_pivot(r) for r in rows]
            groups: dict[IntRow, int] = {}
            for idx, hrow in enumerate(hrows):
                if mask >> idx & 1:
                    continue
                residual = _residual(rows, pivots, hrow)
                if residual is not hrow:
                    residual = _normalize(residual)
                    if residual is None:
                        raise ArithmeticError(f"hyperplane {idx} contains a flat but is not in its containing set")
                if any(residual[:-1]):
                    groups[residual] = groups.get(residual, 0) | 1 << idx

            below = ancestors | 1 << index
            for residual, group in groups.items():
                child = children.get(mask | group)
                if child is None:
                    children[mask | group] = [_reduce(rows, residual), below]
                else:
                    child[1] |= below
        level = sorted(((rows, mask, ancestors) for mask, (rows, ancestors) in children.items()), reverse=True)
    return IntersectionPoset(tuple(flats))


def _bits(x: int):
    """Indices of the set bits of a nonnegative integer, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


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
