"""Intersection poset, Möbius function and the characteristic polynomial.

Flats (nonempty intersections of hyperplanes) are found by breadth-first
search over codimension levels, which avoids enumerating 2^m subsets.  At
each flat, the hyperplanes that do not contain it are grouped by residual
(the row reduced against the flat's equations); each group is one child, and
its containing set is known without further elimination.  A child inherits
its parent's groups and eliminates one pivot column from each; a flat of
top rank has no children, so it only checks that no group vanishes.

A flat is the intersection of the hyperplanes that contain it, so it is
keyed by its containing set alone, an int mask over hyperplane indices, and
each codimension level is ordered by ascending mask.  No flat carries
equations of its own.  Möbius values are read off the cover relations the
search finds: (-1)^codim on a Boolean lower interval, and otherwise minus the
sum over the ancestor set that the covers accumulate, taken as one popcount
per Möbius value seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arrangement import Arrangement
from .exactmath import IntRow, _normalize, _pivot, _reduce


@dataclass(frozen=True)
class Flat:
    """An element of the intersection poset: an affine subspace.

    ``mask`` has bit i set when hyperplane i contains the subspace; that
    maximal set of hyperplanes determines the flat, so it keys and orders
    flats, and a flat carries no equation system of its own.
    """

    dim: int
    codim: int
    mask: int
    mobius: int

    @property
    def containing(self) -> frozenset[int]:
        """The indices of the hyperplanes that contain the flat."""
        return frozenset(_bits(self.mask))


def build_poset(arr: Arrangement) -> tuple[Flat, ...]:
    """All flats of the arrangement with their Möbius values.

    The ambient space, the unique minimal element, is ``flats[0]``; flats
    come in codimension-major order, by ascending mask within each
    codimension, and x <= y in the poset (reverse inclusion) exactly when
    ``x.containing <= y.containing``.

    BFS over codimension levels.  A flat Y groups the hyperplanes H outside
    cont(Y) by their residual: the unique primitive row in H + rowspace(Y)
    that is 0 on Y's pivot columns.  H' contains Y ∩ H exactly when its
    residual equals H's, so each group is one child Z, keyed by its mask
    cont(Z) = cont(Y) plus the group.  A zero normal is an empty
    intersection; that group is dropped, as it stays parallel to every flat
    below Y.  The root's groups are the hyperplanes' own rows.

    Z inherits the groups and residual r of the first parent Y that finds
    it, and one elimination step in r's pivot column takes each residual at
    Y to its residual at Z: the result is 0 on Z's pivots and lies in H +
    rowspace(Z), so any parent gives the same.  Groups with equal results
    merge; a zero residual outside cont(Z) is an elimination fault.

    A top-rank flat, whose codim is the rank of the normals (folded once per
    build with ``_reduce``), has no children: every residual there has a zero
    normal.  Its groups are not eliminated, only checked with two products
    each: the step must clear a nonzero pivot entry g[p] and leave a nonzero
    offset, g[-1] * r[p] != r[-1] * g[p].  Anything else raises
    ``ArithmeticError``.

    Möbius values come from the cover relations the BFS finds.  When exactly
    codim(Z) hyperplanes contain Z, its lower interval is Boolean and
    mu(Z) = (-1)^codim.  Otherwise mu(Z) is minus the sum over its ancestors,
    a bitset over flat indices that is the union, over Z's cover parents, of
    each parent's ancestors and the parent itself; with one bitset B_v of the
    flats of each Möbius value v, that sum is sum_v v * popcount(ancestors & B_v).
    """
    n = arr.dim
    roots = {h.row: 1 << idx for idx, h in enumerate(arr.hyperplanes)}
    normals: tuple[IntRow, ...] = ()
    for h in arr.hyperplanes:
        normals = _reduce(normals, h.normal + (0,)) or normals
    top = len(normals)  # the rank of the normals: the largest codim of a flat

    flats: list[Flat] = []
    by_mobius: dict[int, int] = {}  # Möbius value -> bitset of the flats that have it
    # One entry per flat of the current codimension: (containing mask,
    # [ancestor bitset over flat indices, parent's groups, residual]), sorted
    # by mask in descending order and popped, so that a bitset and the
    # parent's groups are freed once the children have taken them.
    level: list[tuple] = [(0, [0, roots, None])]
    for codim in range(n + 1):
        children: dict[int, list] = {}  # containing mask -> [ancestors, groups, residual]
        while level:
            mask, (ancestors, groups, r) = level.pop()
            index = len(flats)
            if mask.bit_count() == codim:
                mu = -1 if codim % 2 else 1
            else:
                mu = -sum(v * (ancestors & b).bit_count() for v, b in by_mobius.items())
            by_mobius[mu] = by_mobius.get(mu, 0) | 1 << index
            flats.append(Flat(dim=n - codim, codim=codim, mask=mask, mobius=mu))

            if r is not None:
                p = _pivot(r)
                rp = r[p]
                inherited, groups = groups, {}
                for g, gmask in inherited.items():
                    if gmask & mask:
                        continue  # r's own group, which contains this flat
                    f = g[p]
                    if codim == top:
                        # Every residual at a top-rank flat has a zero normal
                        # and the flat has no children: the step only has to
                        # leave a nonzero offset.
                        if not f:
                            raise ArithmeticError(f"hyperplane {next(_bits(gmask))} keeps a nonzero normal at a top-rank flat")
                        if g[-1] * rp == r[-1] * f:
                            raise ArithmeticError(f"hyperplane {next(_bits(gmask))} contains a flat but is not in its containing set")
                        continue
                    if f:
                        g = _normalize([a * rp - b * f for a, b in zip(g, r)])
                        if g is None:
                            raise ArithmeticError(f"hyperplane {next(_bits(gmask))} contains a flat but is not in its containing set")
                        if not any(g[:-1]):
                            continue
                    groups[g] = groups.get(g, 0) | gmask

            below = ancestors | 1 << index
            for residual, group in groups.items():
                child = children.get(mask | group)
                if child is None:
                    children[mask | group] = [below, groups, residual]
                else:
                    child[0] |= below
        level = sorted(children.items(), reverse=True)
    return tuple(flats)


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
