"""Region enumeration with exact witnesses, levels via recession cones, and
witness-free level profiles by shortest-path closures.

Regions are produced by incremental insertion: hyperplanes are added one at a
time and every region whose interior meets the new hyperplane is split in
two, + side first, so the walk emits regions in sign order and nothing is
sorted afterwards.  Each region carries a sign vector over the hyperplanes,
an exact rational interior witness, and its level; its constraint rows are
read off the sign vector rather than stored.  During the walk a witness is
an integer point ``(X_1, ..., X_n, L)`` meaning ``X / L`` (see
``exactmath._feasible_system``), so the side of a hyperplane is one integer
dot product; it becomes a tuple of ``Fraction``s once, in the final
``Region``.

The level of a region is the smallest dimension of a linear subspace the
region stays within bounded distance of.  For an open convex polyhedron that
equals the dimension of the linear span of its recession cone, which
``enumerate_regions`` finds with one exact LP per region,
``cone_span_dimension`` of the homogenized sign constraints.

When every normal has a Coxeter form (x_i, x_i - x_j or x_i + x_j), a region
is a system of strict constraints d_v - d_u < c on the signed nodes
{0, +-1, ..., +-n} (d_0 = 0, d_{-i} = -d_i), one edge and its mirror per
side, and it is nonempty iff that weighted digraph has no cycle of total
weight <= 0: difference constraints for type A (Cormen, Leiserson, Rivest &
Stein, *Introduction to Algorithms*, §24.4) and the doubled graph of UTVPI
constraints for type B (Miné, "The octagon abstract domain", HOSC 19, 2006).
A node is its signed label throughout: the mirror of node u is -u, so the
mirror of the edge u -> v is -v -> -u, and a row of 2n + 1 entries holds
node -i at index 2n + 1 - i, which is where Python's negative index -i
lands.  An edge u -> v reads d_u >= d_v, and the + side of a hyperplane is
the edge ``Hyperplane.form()`` names: (i, 0) for x_i, (i, j) for x_i - x_j,
(i, -j) for x_i + x_j.  ``_closure_walk`` is the insertion walk with each
region carrying the integer shortest-path closure of that digraph in place
of a witness, so split tests are table lookups.  The region's recession
cone is cut out by d_u >= d_v along the same edges, and its span has one
dimension per pair C != -C of strongly connected components with 0 not in
C (the type B analogue of braid cones as preposets; Postnikov, Reiner &
Williams, Doc. Math. 2008).  ``_reach_level`` counts those pairs off the
closure, the one level rule for signed digraphs.

``level_profile`` takes the closure walk when every normal has a Coxeter
form and ``enumerate_regions`` otherwise.  ``enumerate_regions`` runs the
closure walk once on a type B deformation: every level comes from it, and
its sign vectors must equal the LP walk's, in order, so two independent
split engines check each other's regions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .arrangement import Arrangement, Kind
from .exactmath import IntPoint, Vector, _feasible_system, _slack, cone_span_dimension


class Region(NamedTuple):
    """One connected component of the complement.

    ``sign_vector[i]`` is +1 or -1 according to the side of hyperplane i the
    region lies on; the witness satisfies every sign constraint strictly.
    """

    sign_vector: tuple[int, ...]
    witness: Vector
    level: int

    def sign_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.sign_vector)


class LevelProfile(NamedTuple):
    """Region counts by level: ``counts[k]`` regions have level k."""

    counts: tuple[int, ...]


def _reach_level(dist: list, inf: int, n: int) -> int:
    """Level of a region from the shortest-path closure of its signed digraph.

    ``dist`` is the closure on the 2n + 1 signed nodes, where ``inf`` or
    more marks a missing path.  A node reaches exactly the nodes at a finite
    distance, so u and v lie in one strongly connected component iff
    dist[u][v] and dist[v][u] are both finite.  The level counts the mirror
    pairs C != -C of components with 0 not in C.  Every
    such pair holds a node +i, and i's component C is one of them unless i
    is linked to -i: C meets its mirror only if C = -C.  The component of 0
    is its own mirror, so i linked to 0 is linked to -i too and needs no
    test of its own.  Otherwise i counts one level, and every later j
    linked to i (j in C) or to -j (j in -C) is the same pair, counted
    already.  O(n^2) tests.
    """
    counted = [False] * (n + 1)
    level = 0
    for i in range(1, n + 1):
        row = dist[i]
        if counted[i] or row[-i] < inf and dist[-i][i] < inf:
            continue
        level += 1
        for j in range(i + 1, n + 1):
            if row[j] < inf and dist[j][i] < inf or row[-j] < inf and dist[-j][i] < inf:
                counted[j] = True
    return level


def _tighten(dist: list, u: int, v: int, w: int, big: int) -> list:
    """The closure ``dist`` with the edge u -> v of weight w added: O(N^2).

    Row a changes only where the path a -> u -> v beats a -> v; a row that
    does not is shared, not copied, so a closure's rows are never written.
    ``big`` stands in for a missing path from v, so that no sum with it
    drops below the ``inf`` marking a missing path.
    """
    inf = big >> 1
    via = [big if d >= inf else d for d in dist[v]]
    out = []
    for row in dist:
        du = row[u]
        if du < inf and du + w < row[v]:
            t = du + w
            row = [x if x <= t + y else t + y for x, y in zip(row, via)]
        out.append(row)
    return out


def _closure_walk(arr: Arrangement) -> list[tuple[tuple[int, ...], int]]:
    """Sign vectors and levels of all regions, in ``enumerate_regions``' order.

    Every hyperplane must have a Coxeter form.  Offsets are scaled by L, the
    lcm of the rows' leading entries, to integers C, and a strict bound C
    becomes the weight C*K - 1 with K = 4n + 4, more than the length of any
    simple cycle, so a cycle is negative iff its bounds sum to <= 0.  Each
    region carries the all-pairs shortest-path closure of its edges, a list
    of integer rows where ``inf`` marks a missing path.  A side u -> v of
    weight w is implied when dist[u][v] <= w, and the region keeps its
    closure; it is empty when dist[v][u] + w < 0 or when it and its mirror
    close a negative cycle together; otherwise ``_tighten`` adds both edges.
    ``_reach_level`` reads each region's level off its closure.
    """
    n = arr.dim
    size = 2 * n + 1
    # row[:-1] is g times the form's normal, whose leading entry is 1
    leads = [next(c for c in h.row if c) for h in arr.hyperplanes]
    scale = lcm(1, *leads)
    k = 2 * size + 2
    offsets = [h.row[-1] * (scale // g) for h, g in zip(arr.hyperplanes, leads)]
    inf = (size + 2) * (k * max(map(abs, offsets), default=0) + 2)
    big = 2 * inf

    def side(dist, u, v, w):
        if dist[u][v] <= w:
            return dist
        if dist[v][u] + w < 0 or dist[-u][u] + 2 * w + dist[v][-v] < 0:
            return None
        return _tighten(_tighten(dist, u, v, w, big), -v, -u, w, big)

    root = [[0 if a == b else inf for b in range(size)] for a in range(size)]
    live: list[tuple[list[int], list]] = [([], root)]
    for h, c in zip(arr.hyperplanes, offsets):
        u, v = h.form()
        # the + side's edge u -> v reads d_v - d_u < -c, the - side's v -> u reads d_u - d_v < c
        sides = ((1, u, v, -k * c - 1), (-1, v, u, k * c - 1))
        updated = []
        for signs, dist in live:
            for s, a, b, w in sides:
                child = side(dist, a, b, w)
                if child is not None:
                    updated.append((signs + [s], child))
                if child is dist:
                    break  # the + side holds throughout, so the - side is empty
        live = updated

    return [(tuple(signs), _reach_level(dist, inf, n)) for signs, dist in live]


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All regions of the arrangement, sorted by sign vector (+ before -).

    Incremental insertion: when hyperplane H arrives, each region tries its
    + side, then its - side, so the walk stays in sign order without a sort.
    A side the witness lies on keeps it; the other side needs a split test
    against the rows read off the region's sign vector.  The test starts the
    simplex at the witness, strictly inside every old row, so it needs no
    phase 1; a new side gets a witness between the old one and the point the
    simplex reached.  The root region is the whole space, witness the origin.

    Each region's level comes from one cone-span LP, except on a type B
    deformation: there ``_closure_walk`` runs once and gives every level,
    and it must have found the same sign vectors in the same order, or
    ``ArithmeticError`` is raised.
    """
    n = arr.dim
    signed = [(h.row, tuple(-c for c in h.row)) for h in arr.hyperplanes]

    # (signs, integer witness point), in sign order
    live: list[tuple[list[int], IntPoint]] = [([], (0,) * n + (1,))]
    for plus, minus in signed:
        updated = []
        for signs, witness in live:
            rows = [pm[s < 0] for pm, s in zip(signed, signs)]
            for side, srow in ((1, plus), (-1, minus)):
                w = witness if _slack(srow, witness) > 0 else _feasible_system(rows, witness, srow)
                if w is not None:
                    updated.append((signs + [side], w))
        live = updated

    if arr.kind is Kind.TYPE_B:
        walk = _closure_walk(arr)
        if [signs for signs, _ in walk] != [tuple(signs) for signs, _ in live]:
            raise ArithmeticError("the closure walk and the LP walk found different regions")
        levels = [level for _, level in walk]
    else:
        levels = [
            cone_span_dimension([(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=n)
            for signs, _ in live
        ]

    return tuple(
        Region(tuple(signs), tuple(Fraction(v, scale) for v in x), level)
        for (signs, (*x, scale)), level in zip(live, levels)
    )


def level_profile(arr: Arrangement) -> LevelProfile:
    """Counts (r_0, ..., r_n) of regions by level.

    When every hyperplane has a Coxeter form the counts come from
    ``_closure_walk``, with no LP and no witness; otherwise from
    ``enumerate_regions``.
    """
    if all(h.form() is not None for h in arr.hyperplanes):
        levels = [level for _, level in _closure_walk(arr)]
    else:
        levels = [region.level for region in enumerate_regions(arr)]
    counts = [0] * (arr.dim + 1)
    for level in levels:
        counts[level] += 1
    return LevelProfile(tuple(counts))
