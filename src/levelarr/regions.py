"""Region enumeration with exact witnesses, and levels via recession cones.

Regions are produced by incremental insertion: hyperplanes are added one at a
time and every region whose interior meets the new hyperplane is split in
two.  Each region carries a sign vector over the hyperplanes, an exact
rational interior witness, and its level.  During the walk a witness is an
integer point ``(X_1, ..., X_n, L)`` meaning ``X / L`` (see
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

    Incremental insertion: when hyperplane H arrives, a region's witness
    settles the side it lies on for free; only the opposite side needs a
    split test.  That test starts the simplex at the region's own witness,
    which is strictly inside every old constraint, so it needs no phase 1;
    when the region splits, the new side gets a witness between the old one
    and the point the simplex reached.  The root region (no constraints) is
    the whole space, with the origin as its witness.
    """
    n = arr.dim

    # (signs, integer witness point, strict integer rows of the region's constraints)
    origin = (0,) * n + (1,)
    live: list[tuple[list[int], IntPoint, list[tuple[int, ...]]]] = [([], origin, [])]
    for h in arr.hyperplanes:
        updated = []
        for signs, witness, rows in live:
            value = _slack(h.row, witness)
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

    if arr.kind is Kind.TYPE_B:
        edges = _signed_edges(arr)

        def level(signs):
            return _digraph_level(edges, signs, n)
    else:
        def level(signs):
            return cone_span_dimension([(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=n)

    regions = []
    for signs, (*x, scale), _ in live:
        regions.append(Region(tuple(signs), tuple(Fraction(v, scale) for v in x), level(signs)))
    regions.sort(key=lambda r: _sign_key(r.sign_vector))
    return tuple(regions)


def level_profile(arr: Arrangement) -> LevelProfile:
    """Counts (r_0, ..., r_n) of regions by level."""
    counts = [0] * (arr.dim + 1)
    for region in enumerate_regions(arr):
        counts[region.level] += 1
    return LevelProfile(tuple(counts))
