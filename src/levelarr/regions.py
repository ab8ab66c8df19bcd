"""Certified region listings with exact witnesses, levels via recession
cones or shortest-path closures, and witness-free level profiles.

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
equals the dimension of the linear span of its recession cone, which one
exact LP finds: ``cone_span_dimension`` of the region's signed normal rows.

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
witness, so split tests are table lookups; a listed leaf reads its witness
off the closure's potentials, in the same integer form.  The region's
recession cone is cut out by d_u >= d_v along the same edges, and its span
has one dimension per pair C != -C of strongly connected components with 0
not in C (the type B analogue of braid cones as preposets; Postnikov,
Reiner & Williams, Doc. Math. 2008).  ``_reach_level`` counts those pairs
off the closure, the one level rule for signed digraphs.

``_leaves`` is the one place that picks the engines, for both
``enumerate_regions`` and ``level_profile``: the closure walk alone, or the
LP walk with one cone-span LP per region.  ``enumerate_regions`` lists a
type B deformation off the closure walk and every other arrangement off the
LP walk, and ``_certify`` checks every listing with no split engine before
any ``Region`` is built: each witness strictly inside its region, the sign
vectors strictly in sign order, and as many regions as Zaslavsky's count
(-1)^n chi(-1) from the poset.  ``level_profile`` counts the levels
(r_0, ..., r_n) as they stream past, takes the closure walk whenever every
hyperplane has a Coxeter form, and holds no region list.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from math import gcd, lcm
from typing import Iterator, NamedTuple, Optional

from .arrangement import Arrangement, Kind
from .exactmath import IntPoint, Vector, _feasible_system, _slack, cone_span_dimension
from .poset import char_poly


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


def _closure_walk(arr: Arrangement, witnesses: bool) -> Iterator[tuple[tuple[int, ...], Optional[IntPoint], int]]:
    """``(signs, witness, level)`` of all regions, in sign order; the witness is None unless asked for.

    Every hyperplane must have a Coxeter form.  Only the m coordinates that
    some form names are walked, relabelled 1..m in order; each other
    coordinate is an isolated node pair, one more level in every region.
    Offsets are scaled by L, the lcm of their denominators, to
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

    A leaf's witness comes from the potentials of a virtual source,
    pi(v) = min_u dist[u][v], the smallest entry of column v (dist[v][v] is
    0, so it is finite).  Every edge u -> v of weight w in the closure holds
    pi(v) <= pi(u) + w, and so does its mirror -v -> -u; adding the two
    bounds D_v - D_u by w for D_v = (pi(v) - pi(-v)) / 2, which is odd in v
    and 0 at node 0.  Each w is K*C - 1 < K*C, so x = D / (L*K) satisfies
    every sign strictly: coordinate c of node a is
    (pi(+a) - pi(-a)) / (2*L*K), and a coordinate no form names is 0.  It
    is the integer point ``(X, 2*L*K)`` divided by its gcd, the form
    ``_lp_walk`` carries.
    """
    named = sorted({abs(c) for h in arr.hyperplanes for c in h.form()} - {0})
    node = {0: 0}
    for a, c in enumerate(named, 1):
        node[c], node[-c] = a, -a
    m = len(named)
    size = 2 * m + 1
    scale = lcm(1, *(h.offset.denominator for h in arr.hyperplanes))
    k = 2 * size + 2
    offsets = [h.offset.numerator * (scale // h.offset.denominator) for h in arr.hyperplanes]
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
    x = [0] * arr.dim + [2 * scale * k]
    for signs, dist in _walk(root, side, len(edges)):
        witness = None
        if witnesses:
            pi = list(map(min, zip(*dist)))
            for a, c in enumerate(named, 1):
                x[c - 1] = pi[a] - pi[-a]
            g = gcd(*x)
            witness = tuple(v // g for v in x)
        yield signs, witness, _reach_level(dist, inf, m) + arr.dim - m


def _leaves(arr: Arrangement, listing: bool) -> Iterator[tuple[tuple[int, ...], Optional[IntPoint], int]]:
    """``(signs, witness, level)`` of every region, in sign order: the one place an engine is chosen.

    ``enumerate_regions`` asks for a listing, ``level_profile`` for levels
    alone.  A listing of a type B deformation, and the levels of any
    arrangement whose hyperplanes all have Coxeter forms, come from
    ``_closure_walk``, which builds witnesses for a listing only.  Every
    other region is a leaf of ``_lp_walk`` with one cone-span LP over its
    signed normal rows for its level, read off its signs as the split test
    reads its rows.  A listing runs all its split tests before any level
    LP, because interleaving the two kinds of LP made enumeration 2-5%
    slower on the type A benchmark documents; levels alone stream off the
    walk with no list held.
    """
    if (arr.kind is Kind.TYPE_B) if listing else all(h.form() is not None for h in arr.hyperplanes):
        return _closure_walk(arr, listing)
    sides = [(h.normal, tuple(-c for c in h.normal)) for h in arr.hyperplanes]
    walk = list(_lp_walk(arr)) if listing else _lp_walk(arr)
    return (
        (signs, witness, cone_span_dimension([pm[t < 0] for pm, t in zip(sides, signs)], dim=arr.dim))
        for signs, witness in walk
    )


def _certify(arr: Arrangement, leaves: list) -> None:
    """Check a region listing, whichever engine made it; raise ``ArithmeticError`` naming the first fact that fails.

    Every witness lies strictly inside its region: the ``_slack`` of each
    hyperplane's row, negated on the - side, is positive, so each listed
    region exists.  The sign vectors decrease strictly as tuples, which for
    entries +-1 is sign order, + before -, so no region is listed twice.
    Their number is (-1)^n chi(-1), Zaslavsky's count, so none is missing.
    chi comes from the poset, which shares no code with either walk: a
    checker far simpler than the engines it checks (McConnell, Mehlhorn,
    Näher & Schweitzer, "Certifying algorithms", Comp. Sci. Rev. 5, 2011).
    """
    signed = [(h.row, tuple(-c for c in h.row)) for h in arr.hyperplanes]
    for signs, witness, _ in leaves:
        for i, (pm, s) in enumerate(zip(signed, signs)):
            if _slack(pm[s < 0], witness) <= 0:
                raise ArithmeticError(f"the witness of region {signs} is not strictly inside hyperplane {i}")
    for (before, _, _), (after, _, _) in pairwise(leaves):
        if before <= after:
            raise ArithmeticError(f"the regions {before} and {after} are not strictly in sign order")
    expected = (-1) ** arr.dim * char_poly(arr).evaluate(-1)
    if len(leaves) != expected:
        raise ArithmeticError(f"{len(leaves)} regions listed, but (-1)^n chi(-1) = {expected}")


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All regions of the arrangement, sorted by sign vector (+ before -).

    The regions are the leaves of ``_leaves``' listing, which come out of
    the depth-first walk of the sign tree in sign order without a sort.
    ``_certify`` checks the listing before any ``Region`` is built.
    """
    leaves = list(_leaves(arr, listing=True))
    _certify(arr, leaves)
    return tuple(Region(signs, tuple(Fraction(v, scale) for v in x), level) for signs, (*x, scale), level in leaves)


def level_profile(arr: Arrangement) -> tuple[int, ...]:
    """Counts (r_0, ..., r_n) of regions by level: r_k regions have level k.

    The levels of ``_leaves`` are counted as they stream past, so no region
    list is held, no ``Region`` is built and no closure witness is found.
    """
    counts = [0] * (arr.dim + 1)
    for _, _, level in _leaves(arr, listing=False):
        counts[level] += 1
    return tuple(counts)
