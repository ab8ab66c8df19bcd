"""Region enumeration with exact witnesses, and levels via recession cones.

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
equals the dimension of the linear span of its recession cone.  For a type B
deformation that cone is cut out by relations d_u >= d_v on the nodes
{0, +-1, ..., +-n} (d_0 = 0, d_{-i} = -d_i), and its span has one dimension
per pair C != -C of strongly connected components of that signed digraph
with 0 not in C (the type B analogue of braid cones as preposets; Postnikov,
Reiner & Williams, Doc. Math. 2008).  Every other arrangement gets its level
from one exact LP per region, ``cone_span_dimension`` of the homogenized sign
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arrangement import Arrangement, Kind
from .exactmath import IntPoint, Vector, _feasible_system, _slack, cone_span_dimension


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


def _signed_edges(arr: Arrangement) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Edges of the signed digraph, per hyperplane: ``(plus side, minus side)``.

    Node 0 stands for d_0 = 0, node i for d_i and node n + i for d_{-i} = -d_i
    (1-based i).  An edge ``(u, 1 << v)`` reads d_u >= d_v; the + side of
    ``coord i`` is d_i >= d_0, of ``diff i j`` d_i >= d_j and of ``sum i j``
    d_i >= d_{-j}, and the - side reverses it.  Each side also holds the
    mirror edge -v -> -u.  Every hyperplane must have one of these forms.
    """
    n = arr.dim
    mirror = [0] + [n + i for i in range(1, n + 1)] + list(range(1, n + 1))
    out = []
    for h in arr.hyperplanes:
        form = h.form()
        u = form[1] + 1
        v = 0 if form[0] == "coord" else form[2] + 1 + (n if form[0] == "sum" else 0)
        plus = ((u, 1 << v), (mirror[v], 1 << mirror[u]))
        minus = ((v, 1 << u), (mirror[u], 1 << mirror[v]))
        out.append((plus, minus))
    return out


def _digraph_level(edges, signs: Sequence[int], n: int) -> int:
    """Level of a region from its signed digraph (see ``_signed_edges``).

    Closes reachability as bitmasks over the 2n + 1 nodes and counts the
    strongly connected components C with 0 not in C and C != -C.  They come
    in mirror pairs, and each pair is one dimension of the cone's span.
    """
    size = 2 * n + 1
    reach = [1 << u for u in range(size)]
    for sides, s in zip(edges, signs):
        for tail, head in sides[s < 0]:
            reach[tail] |= head
    for k in range(size):
        bit, row = 1 << k, reach[k]
        for u in range(size):
            if reach[u] & bit:
                reach[u] |= row
    comps = {
        reach[u] & sum(1 << v for v in range(size) if reach[v] >> u & 1)
        for u in range(1, size)
    }
    pos = ((1 << n) - 1) << 1
    return sum(1 for c in comps if not c & 1 and c != (c & pos) << n | (c >> n) & pos) // 2


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All regions of the arrangement, sorted by sign vector (+ before -).

    Incremental insertion: when hyperplane H arrives, each region tries its
    + side, then its - side, so the walk stays in sign order without a sort.
    A side the witness lies on keeps it; the other side needs a split test
    against the rows read off the region's sign vector.  The test starts the
    simplex at the witness, strictly inside every old row, so it needs no
    phase 1; a new side gets a witness between the old one and the point the
    simplex reached.  The root region is the whole space, witness the origin.
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
        edges = _signed_edges(arr)

        def level(signs):
            return _digraph_level(edges, signs, n)
    else:
        def level(signs):
            return cone_span_dimension([(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=n)

    return tuple(
        Region(tuple(signs), tuple(Fraction(v, scale) for v in x), level(signs))
        for signs, (*x, scale) in live
    )


def level_profile(arr: Arrangement) -> LevelProfile:
    """Counts (r_0, ..., r_n) of regions by level."""
    counts = [0] * (arr.dim + 1)
    for region in enumerate_regions(arr):
        counts[region.level] += 1
    return LevelProfile(tuple(counts))
