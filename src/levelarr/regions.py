"""Region enumeration with exact witnesses, and levels via recession cones.

Regions are produced by incremental insertion: hyperplanes are added one at a
time and every region whose interior meets the new hyperplane is split in
two.  Each region carries a sign vector over the hyperplanes, an exact
rational interior witness, and its level.

The level of a region is the smallest dimension of a linear subspace the
region stays within bounded distance of.  For an open convex polyhedron that
equals the dimension of the linear span of its recession cone, which is what
``cone_span_dimension`` computes from the homogenized sign constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .arrangement import Arrangement
from .exactmath import Vector, _feasible_system, cone_span_dimension


@dataclass(frozen=True)
class Region:
    """One connected component of the complement.

    ``sign_vector[i]`` is +1 or -1 according to the side of hyperplane i the
    region lies on; the witness satisfies every sign constraint strictly.
    """

    sign_vector: tuple[int, ...]
    witness: Vector
    level: int

    def sign_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.sign_vector)


@dataclass(frozen=True)
class LevelProfile:
    """Region counts by level: ``counts[k]`` regions have level k."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        return tuple((k, c) for k, c in enumerate(self.counts) if c)


def _strict_row(h_row: tuple[int, ...], sign: int) -> tuple[int, ...]:
    return h_row if sign > 0 else tuple(-c for c in h_row)


def _sign_key(signs: Sequence[int]) -> tuple[int, ...]:
    # lexicographic with + before -
    return tuple(0 if s > 0 else 1 for s in signs)


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All regions of the arrangement, sorted by sign vector (+ before -).

    Incremental insertion: when hyperplane H arrives, a region's witness
    settles the side it lies on for free; only the opposite side needs a
    split test.  That test starts the simplex at the region's own witness,
    which is strictly inside every old constraint, so it needs no phase 1;
    when the region splits, the new side gets a witness between the old one
    and the point the simplex reached.  The root region (no constraints) is
    the whole space, with the origin as its witness.
    """
    n = arr.dim

    # (signs, witness, strict integer rows of the region's constraints)
    origin = tuple(Fraction(0) for _ in range(n))
    live: list[tuple[list[int], Vector, list[tuple[int, ...]]]] = [([], origin, [])]
    for h in arr.hyperplanes:
        updated = []
        for signs, witness, rows in live:
            value = h.evaluate(witness)
            sides: list[int]
            if value > 0:
                sides = [1, -1]
                keep_witness = 1
            elif value < 0:
                sides = [-1, 1]
                keep_witness = -1
            else:
                sides = [1, -1]
                keep_witness = 0
            for side in sides:
                srow = _strict_row(h.row, side)
                if side == keep_witness:
                    updated.append((signs + [side], witness, rows + [srow]))
                    continue
                w = _feasible_system(rows, witness, srow)
                if w is not None:
                    updated.append((signs + [side], w, rows + [srow]))
        live = updated

    regions = []
    for signs, witness, rows in live:
        level = cone_span_dimension(
            [(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=n
        )
        regions.append(Region(tuple(signs), witness, level))
    regions.sort(key=lambda r: _sign_key(r.sign_vector))
    return tuple(regions)


def region_level(arr: Arrangement, region: Region) -> int:
    """Level of a region, recomputed from its sign vector.

    The recession cone of ``{x : sign_i (a_i . x - b_i) > 0}`` is
    ``{d : sign_i (a_i . d) >= 0}``; the level is the dimension of its span.
    """
    if len(region.sign_vector) != len(arr.hyperplanes):
        raise ValueError("region does not match the arrangement")
    return cone_span_dimension(
        [(h.normal, s) for h, s in zip(arr.hyperplanes, region.sign_vector)],
        dim=arr.dim,
    )


def level_profile(arr: Arrangement) -> LevelProfile:
    """Counts (r_0, ..., r_n) of regions by level."""
    counts = [0] * (arr.dim + 1)
    for region in enumerate_regions(arr):
        counts[region.level] += 1
    return LevelProfile(tuple(counts))


def feasible_sign_vectors(arr: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Exhaustive enumeration of feasible sign vectors, independent of insertion.

    Walks the full {+1,-1}^m tree depth-first, testing both sides of every
    prefix with the exact split test, which starts from the witness the
    prefix carries down the walk; an infeasible prefix rules out all of its
    extensions, which keeps the walk exhaustive while skipping dead subtrees.
    Intended as an oracle for ``enumerate_regions`` at small m.
    """
    n = arr.dim
    hrows = [h.row for h in arr.hyperplanes]
    out: list[tuple[int, ...]] = []

    def walk(prefix: list[int], rows: list[tuple[int, ...]], witness: Vector):
        if len(prefix) == len(hrows):
            out.append(tuple(prefix))
            return
        hrow = hrows[len(prefix)]
        for side in (1, -1):
            srow = _strict_row(hrow, side)
            w = _feasible_system(rows, witness, srow)
            if w is not None:
                walk(prefix + [side], rows + [srow], w)

    walk([], [], tuple(Fraction(0) for _ in range(n)))
    out.sort(key=_sign_key)
    return tuple(out)


def mcatalan_level_count(n: int, m: int, k: int) -> int:
    """Closed-form number of level-k regions of the m-Catalan arrangement.

    Evaluates n! m k / ((m+1)n - k) * C((m+1)n - k, mn) exactly; the division
    is checked to be exact.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if not 1 <= k <= n:
        raise ValueError("level k must satisfy 1 <= k <= n")
    numerator = factorial(n) * m * k * comb((m + 1) * n - k, m * n)
    denominator = (m + 1) * n - k
    if numerator % denominator:
        raise ArithmeticError("level-count formula did not divide exactly")
    return numerator // denominator
