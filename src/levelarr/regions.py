"""Region enumeration with exact witnesses, levels via recession cones, and
witness-free level profiles by shortest-path closures.

Regions are the leaves of one depth-first walk of the sign tree, ``_walk``:
a node at depth i is a nonempty region of hyperplanes 0..i-1, and it tries
the + side of hyperplane i before the - side, so the leaves come out in sign
order and nothing is sorted afterwards.  The stack is explicit and holds one
pending side per depth, so the live state is O(m) whatever the number of
regions.  Both region engines are a root and a ``side`` test on that walk.
In ``_lp_walk`` a node carries an exact interior witness, and its
constraint rows are read off its signs rather than stored.  During the walk
a witness is an integer point ``(X_1, ..., X_n, L)`` meaning ``X / L`` (see
``exactmath._feasible_system``), so the side of a hyperplane is one integer
dot product; it becomes a tuple of ``Fraction``s once, in the final
``Region``.

The level of a region is the smallest dimension of a linear subspace the
region stays within bounded distance of.  For an open convex polyhedron that
equals the dimension of the linear span of its recession cone, which
``enumerate_regions`` finds with one exact LP per region: ``_cone_levels``
passes ``cone_span_dimension`` the region's signed normal rows.

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
(i, -j) for x_i + x_j.  ``_closure_walk`` is the same walk with each node
carrying the integer shortest-path closure of that digraph in place of a
witness, so split tests are table lookups.  The region's recession
cone is cut out by d_u >= d_v along the same edges, and its span has one
dimension per pair C != -C of strongly connected components with 0 not in
C (the type B analogue of braid cones as preposets; Postnikov, Reiner &
Williams, Doc. Math. 2008).  ``_reach_level`` counts those pairs off the
closure, the one level rule for signed digraphs.

``level_profile`` returns the counts (r_0, ..., r_n) as a plain tuple,
counted as the leaves stream past, so it holds no region list; it takes the
closure walk when every normal has a Coxeter form, walking only the
coordinates some form names, and otherwise the LP walk with one cone-span
LP per leaf, building no ``Region``.  ``enumerate_regions`` streams the
closure walk beside the LP walk on a type B deformation: every level comes
from it, and its sign vectors must equal the LP walk's one by one, in
order, so two independent split engines check each other's regions and a
missing, extra or reordered region raises.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Iterator, NamedTuple

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


def _walk(root, side, m: int) -> Iterator[tuple[tuple[int, ...], object]]:
    """Leaves ``(signs, state)`` of the sign tree over hyperplanes 0..m-1, in sign order.

    Depth first, + side before - side, so the leaves come out sorted by sign
    vector, + before -.  ``side(state, i, s, signs)`` returns the state of
    the node's child on side s of hyperplane i, or None when that side is
    empty; ``signs`` holds the node's i signs.
    The stack is explicit, so m is not bounded by Python's recursion limit,
    and it holds one pending side per depth: at most m + 1 states are live,
    whatever the number of regions.
    """
    if m == 0:
        yield (), root
        return
    signs: list[int] = []
    stack = [(0, root, -1), (0, root, 1)]
    while stack:
        i, state, s = stack.pop()
        del signs[i:]
        child = side(state, i, s, signs)
        if child is None:
            continue
        signs.append(s)
        if i + 1 == m:
            yield tuple(signs), child
        else:
            stack += (i + 1, child, -1), (i + 1, child, 1)


def _lp_walk(arr: Arrangement) -> Iterator[tuple[tuple[int, ...], IntPoint]]:
    """``(signs, integer witness)`` of every region, in sign order.

    The root is the whole space, witness the origin.  A side the witness
    lies on keeps it; the other side needs a split test against the rows
    read off the node's signs.  The test starts the simplex at the witness,
    strictly inside every old row, so it needs no phase 1; a new side gets a
    witness between the old one and the point the simplex reached.
    """
    signed = [(h.row, tuple(-c for c in h.row)) for h in arr.hyperplanes]

    def side(witness, i, s, signs):
        row = signed[i][s < 0]
        if _slack(row, witness) > 0:
            return witness
        return _feasible_system([pm[t < 0] for pm, t in zip(signed, signs)], witness, row)

    return _walk((0,) * arr.dim + (1,), side, len(signed))


def _cone_levels(arr: Arrangement, leaves) -> Iterator[int]:
    """Level of each ``(signs, state)`` leaf: the span of its recession cone, by one LP.

    The cone's rows are the region's signed normals, read off its signs as
    ``_lp_walk`` reads the split test's rows.
    """
    sides = [(h.normal, tuple(-c for c in h.normal)) for h in arr.hyperplanes]
    for signs, _ in leaves:
        yield cone_span_dimension([pm[t < 0] for pm, t in zip(sides, signs)], dim=arr.dim)


def _closure_walk(arr: Arrangement) -> Iterator[tuple[tuple[int, ...], int]]:
    """Sign vectors and levels ``(signs, level)`` of all regions, in ``enumerate_regions``' order.

    Every hyperplane must have a Coxeter form.  Only the m coordinates that
    some form names are walked, relabelled 1..m in order; each other
    coordinate is an isolated node pair, one more level in every region.
    Offsets are scaled by L, the lcm of the rows' leading entries, to
    integers C, and a strict bound C becomes the weight C*K - 1 with
    K = 4m + 4, more than the length of any simple cycle, so a cycle is
    negative iff its bounds sum to <= 0.  A node of the depth-first
    ``_walk`` carries the all-pairs shortest-path closure of its edges, a
    list of integer rows where ``inf`` marks a missing path.  A side u -> v
    of weight w is implied when dist[u][v] <= w, and the node keeps its
    closure; it is empty when dist[v][u] + w < 0 or when it and its mirror
    close a negative cycle together; otherwise ``_tighten`` adds both edges.
    The two sides' weights sum to -2, so when the + side is implied the
    - side's first emptiness test fails at once.  ``_reach_level`` reads
    each leaf's level off its closure as the leaves stream past.
    """
    named = sorted({abs(c) for h in arr.hyperplanes for c in h.form()} - {0})
    node = {0: 0}
    for a, c in enumerate(named, 1):
        node[c], node[-c] = a, -a
    m = len(named)
    size = 2 * m + 1
    # row[:-1] is g times the form's normal, whose leading entry is 1
    leads = [next(c for c in h.row if c) for h in arr.hyperplanes]
    scale = lcm(1, *leads)
    k = 2 * size + 2
    offsets = [h.row[-1] * (scale // g) for h, g in zip(arr.hyperplanes, leads)]
    inf = (size + 2) * (k * max(map(abs, offsets), default=0) + 2)
    big = 2 * inf
    edges = []
    for h, c in zip(arr.hyperplanes, offsets):
        u, v = (node[x] for x in h.form())
        # the + side's edge u -> v reads d_v - d_u < -c, the - side's v -> u reads d_u - d_v < c
        edges.append(((u, v, -k * c - 1), (v, u, k * c - 1)))

    def side(dist, i, s, signs):
        u, v, w = edges[i][s < 0]
        if dist[u][v] <= w:
            return dist
        if dist[v][u] + w < 0 or dist[-u][u] + 2 * w + dist[v][-v] < 0:
            return None
        return _tighten(_tighten(dist, u, v, w, big), -v, -u, w, big)

    root = [[0 if a == b else inf for b in range(size)] for a in range(size)]
    for signs, dist in _walk(root, side, len(edges)):
        yield signs, _reach_level(dist, inf, m) + arr.dim - m


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All regions of the arrangement, sorted by sign vector (+ before -).

    The regions are the leaves of ``_lp_walk``, the depth-first walk of the
    sign tree that tries each node's + side before its - side, so they come
    out in sign order without a sort, and only one pending side per depth is
    held while the walk runs.

    Each region's level comes from one cone-span LP, except on a type B
    deformation: there ``_closure_walk`` streams past the LP walk's leaves
    and gives every level, and it must find the same sign vectors in the
    same order; a missing, extra or reordered region raises
    ``ArithmeticError``.
    """
    # The split tests run before any level LP: interleaving the two kinds of
    # LP made enumeration 2-5% slower on the type A benchmark documents.
    leaves = list(_lp_walk(arr))
    if arr.kind is Kind.TYPE_B:
        levels = []
        for (signs, _), (walked, level) in zip_longest(leaves, _closure_walk(arr), fillvalue=(None, None)):
            if signs != walked:
                raise ArithmeticError("the closure walk and the LP walk found different regions")
            levels.append(level)
    else:
        levels = list(_cone_levels(arr, leaves))

    return tuple(
        Region(signs, tuple(Fraction(v, scale) for v in x), level)
        for (signs, (*x, scale)), level in zip(leaves, levels)
    )


def level_profile(arr: Arrangement) -> tuple[int, ...]:
    """Counts (r_0, ..., r_n) of regions by level: r_k regions have level k.

    The levels are counted as the leaves of one depth-first walk stream
    past, so no region list is held.  When every hyperplane has a Coxeter
    form they come from ``_closure_walk``, with no LP and no witness;
    otherwise from the leaves of ``_lp_walk`` and one cone-span LP each,
    with integer witnesses and no ``Region``.
    """
    if all(h.form() is not None for h in arr.hyperplanes):
        levels = (level for _, level in _closure_walk(arr))
    else:
        levels = _cone_levels(arr, _lp_walk(arr))
    counts = [0] * (arr.dim + 1)
    for level in levels:
        counts[level] += 1
    return tuple(counts)
