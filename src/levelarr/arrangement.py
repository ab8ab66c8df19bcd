"""Hyperplane arrangements: data model, deformation generators, deletion, restriction.

Hyperplanes are stored in a canonical form (primitive integer normal, first
nonzero entry positive) so that equality and parallelism are plain tuple
comparisons.  Arrangements carry a derived kind tag that records whether they
are non-degenerate deformations of the type A or type B Coxeter arrangement;
the tag is always recomputed from the hyperplane list, so deleting the last
hyperplane of a direction class downgrades the tag automatically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Sequence

from .exactmath import IntRow, _int_row, _normalize, as_scalar, as_vector


class Kind(str, Enum):
    TYPE_A = "typeA"
    TYPE_B = "typeB"
    GENERAL = "general"


class DegenerateDeformationError(ValueError):
    """A deformation is missing a required direction class.

    Raised by the generators on incomplete input and by the theorem
    validators when their non-degeneracy hypothesis is not met.
    """

    def __init__(self, message: str, missing: tuple = ()):
        super().__init__(message)
        self.missing = missing


class Hyperplane:
    """Affine hyperplane ``normal . x = offset`` in canonical form.

    ``row`` is the equation as a primitive integer tuple ``(a_1..a_n, b)``
    whose first nonzero entry is positive: the one-row canonical system of
    ``exactmath``.  ``normal`` is its primitive integer normal and ``offset``
    the matching rational offset.  Two parallel hyperplanes therefore share
    the exact same normal tuple.
    """

    __slots__ = ("row", "normal", "offset")

    def __init__(self, normal: Sequence, offset=0):
        vec = as_vector(normal)
        if not any(vec):
            raise ValueError("hyperplane normal must be nonzero")
        row = _normalize(_int_row(vec, as_scalar(offset)))
        g = gcd(*row[:-1])
        self.row: IntRow = row
        self.normal: tuple[int, ...] = tuple(c // g for c in row[:-1])
        self.offset: Fraction = Fraction(row[-1], g)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def form(self) -> Optional[tuple]:
        """Coxeter form of the normal, if any.

        Returns ``("coord", i)``, ``("diff", i, j)`` or ``("sum", i, j)`` with
        0-based ``i < j``, or None for any other direction.
        """
        support = [(i, c) for i, c in enumerate(self.normal) if c]
        if len(support) == 1 and support[0][1] == 1:
            return ("coord", support[0][0])
        if len(support) == 2:
            (i, ci), (j, cj) = support
            if ci == 1 and cj == -1:
                return ("diff", i, j)
            if ci == 1 and cj == 1:
                return ("sum", i, j)
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hyperplane)
            and self.normal == other.normal
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.normal, self.offset))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.normal):
            if not c:
                continue
            name = f"x{i + 1}"
            if c == 1:
                terms.append(f"+ {name}" if terms else name)
            elif c == -1:
                terms.append(f"- {name}" if terms else f"-{name}")
            else:
                terms.append(f"{'+ ' if terms and c > 0 else ''}{c}*{name}")
        return f"Hyperplane({' '.join(terms)} = {self.offset})"


class Arrangement:
    """Finite ordered list of distinct hyperplanes in R^n.

    The ``kind`` tag is derived from the hyperplane list: ``typeA`` /
    ``typeB`` mean the arrangement is a non-degenerate deformation of the
    corresponding Coxeter arrangement, anything else is ``general``.
    """

    __slots__ = ("dim", "hyperplanes", "kind")

    def __init__(self, dim: int, hyperplanes: Iterable[Hyperplane] = ()):
        if dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        planes = tuple(hyperplanes)
        seen = set()
        for h in planes:
            if not isinstance(h, Hyperplane):
                raise TypeError(f"expected Hyperplane, got {type(h).__name__}")
            if h.dim != dim:
                raise ValueError("hyperplane dimension differs from ambient dimension")
            if h in seen:
                raise ValueError(f"duplicate hyperplane {h!r}")
            seen.add(h)
        self.dim = dim
        self.hyperplanes = planes
        self.kind = _classify(dim, planes)

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def __iter__(self):
        return iter(self.hyperplanes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Arrangement)
            and self.dim == other.dim
            and self.hyperplanes == other.hyperplanes
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.hyperplanes))

    def __repr__(self) -> str:
        return f"Arrangement(dim={self.dim}, m={len(self.hyperplanes)}, kind={self.kind.value})"


# ---------------------------------------------------------------------------
# Kind classification and non-degeneracy
# ---------------------------------------------------------------------------


def _coord_normal(dim: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(dim))


def _pair_normal(dim: int, i: int, j: int, sign: int) -> tuple[int, ...]:
    return tuple(1 if k == i else (sign if k == j else 0) for k in range(dim))


def _type_a_missing(dim: int, planes: Sequence[Hyperplane]):
    forms = [h.form() for h in planes]
    foreign = tuple(
        idx for idx, f in enumerate(forms) if f is None or f[0] != "diff"
    )
    present = {(f[1], f[2]) for f in forms if f is not None and f[0] == "diff"}
    missing = tuple(
        (i + 1, j + 1)
        for i, j in combinations(range(dim), 2)
        if (i, j) not in present
    )
    return missing, foreign


def _type_b_missing(dim: int, planes: Sequence[Hyperplane]):
    forms = [h.form() for h in planes]
    foreign = tuple(idx for idx, f in enumerate(forms) if f is None)
    coords = {f[1] for f in forms if f is not None and f[0] == "coord"}
    diffs = {(f[1], f[2]) for f in forms if f is not None and f[0] == "diff"}
    sums = {(f[1], f[2]) for f in forms if f is not None and f[0] == "sum"}
    missing: list[tuple] = []
    for i in range(dim):
        if i not in coords:
            missing.append(("x", i + 1))
    for i, j in combinations(range(dim), 2):
        if (i, j) not in diffs:
            missing.append(("diff", i + 1, j + 1))
        if (i, j) not in sums:
            missing.append(("sum", i + 1, j + 1))
    return tuple(missing), foreign


def _classify(dim: int, planes: Sequence[Hyperplane]) -> Kind:
    missing_a, foreign_a = _type_a_missing(dim, planes)
    if not missing_a and not foreign_a:
        return Kind.TYPE_A
    missing_b, foreign_b = _type_b_missing(dim, planes)
    if not missing_b and not foreign_b:
        return Kind.TYPE_B
    return Kind.GENERAL


@dataclass(frozen=True)
class NondegeneracyReport:
    """Outcome of a non-degeneracy check against an expected deformation kind."""

    ok: bool
    missing: tuple
    foreign: tuple[int, ...]

    def explanation(self) -> str:
        if self.ok:
            return "non-degenerate"
        parts = []
        if self.missing:
            rendered = ", ".join(_describe_direction(m) for m in self.missing)
            parts.append(f"missing direction {rendered}")
        if self.foreign:
            parts.append(f"hyperplanes of foreign direction at indices {list(self.foreign)}")
        return "degenerate: " + "; ".join(parts)


def _describe_direction(entry) -> str:
    """Name a missing direction: x_i, x_i-x_j or x_i+x_j.

    Type B tags its entries ("x", i), ("diff", i, j) or ("sum", i, j); type
    A's are bare pairs (i, j) of x_i - x_j.
    """
    if entry[0] == "x":
        return f"x{entry[1]}"
    if entry[0] == "sum":
        return f"x{entry[1]}+x{entry[2]}"
    i, j = entry[-2:]
    return f"x{i}-x{j}"


def is_nondegenerate(arr: Arrangement, kind: Kind) -> NondegeneracyReport:
    """Check that ``arr`` is a non-degenerate deformation of the given kind.

    Type A requires every difference direction x_i - x_j to be populated and
    no hyperplane of any other direction; type B additionally requires every
    coordinate and sum direction.
    """
    if kind == Kind.TYPE_A:
        missing, foreign = _type_a_missing(arr.dim, arr.hyperplanes)
    elif kind == Kind.TYPE_B:
        missing, foreign = _type_b_missing(arr.dim, arr.hyperplanes)
    else:
        raise ValueError("expected kind typeA or typeB")
    return NondegeneracyReport(not missing and not foreign, missing, foreign)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def make_cox_a(n: int) -> Arrangement:
    """Type A Coxeter arrangement: x_i - x_j = 0 for all 1 <= i < j <= n."""
    if n < 2:
        raise ValueError("type A Coxeter arrangement needs n >= 2")
    planes = [
        Hyperplane(_pair_normal(n, i, j, -1), 0)
        for i, j in combinations(range(n), 2)
    ]
    return Arrangement(n, planes)


def make_cox_b(n: int) -> Arrangement:
    """Type B Coxeter arrangement: x_i = 0, x_i - x_j = 0 and x_i + x_j = 0."""
    if n < 1:
        raise ValueError("type B Coxeter arrangement needs n >= 1")
    planes = [Hyperplane(_coord_normal(n, i), 0) for i in range(n)]
    for i, j in combinations(range(n), 2):
        planes.append(Hyperplane(_pair_normal(n, i, j, -1), 0))
        planes.append(Hyperplane(_pair_normal(n, i, j, 1), 0))
    return Arrangement(n, planes)


def _validated_offsets(values, what: str) -> list[Fraction]:
    offsets = [as_scalar(v) for v in values]
    if not offsets:
        raise DegenerateDeformationError(f"empty offset list for {what}")
    if len(set(offsets)) != len(offsets):
        raise ValueError(f"duplicate offset in {what}")
    return offsets


def make_deformation_a(n: int, offsets: dict) -> Arrangement:
    """Deformation of the type A Coxeter arrangement from per-pair offsets.

    ``offsets`` maps each 1-based pair ``(i, j)`` with i < j to the nonempty
    list of values a with hyperplane x_i - x_j = a.  Every pair must be
    present: a missing pair means the deformation is degenerate.
    """
    if n < 2:
        raise ValueError("type A deformation needs n >= 2")
    required = [(i + 1, j + 1) for i, j in combinations(range(n), 2)]
    extra = set(offsets) - set(required)
    if extra:
        raise ValueError(f"offset keys outside 1 <= i < j <= {n}: {sorted(extra)}")
    missing = tuple(p for p in required if p not in offsets)
    if missing:
        raise DegenerateDeformationError(
            f"missing offset list for pair(s) {list(missing)}", missing
        )
    planes = []
    for i, j in required:
        for a in _validated_offsets(offsets[(i, j)], f"pair ({i}, {j})"):
            planes.append(Hyperplane(_pair_normal(n, i - 1, j - 1, -1), a))
    return Arrangement(n, planes)


def make_deformation_b(
    n: int, x_offsets: dict, diff_offsets: dict, sum_offsets: dict
) -> Arrangement:
    """Deformation of the type B Coxeter arrangement from the three offset families.

    ``x_offsets`` maps 1-based coordinates to lists for x_i = a,
    ``diff_offsets`` / ``sum_offsets`` map 1-based pairs (i, j), i < j, to
    lists for x_i - x_j = b and x_i + x_j = c.  All families must be fully
    populated, otherwise the deformation is degenerate.
    """
    if n < 1:
        raise ValueError("type B deformation needs n >= 1")
    pairs = [(i + 1, j + 1) for i, j in combinations(range(n), 2)]
    for name, mapping, required in (
        ("x_offsets", x_offsets, [i + 1 for i in range(n)]),
        ("diff_offsets", diff_offsets, pairs),
        ("sum_offsets", sum_offsets, pairs),
    ):
        extra = set(mapping) - set(required)
        if extra:
            raise ValueError(f"{name} keys out of range: {sorted(extra)}")
        missing = tuple(k for k in required if k not in mapping)
        if missing:
            raise DegenerateDeformationError(
                f"{name} missing entries {list(missing)}", missing
            )
    planes = []
    for i in range(1, n + 1):
        for a in _validated_offsets(x_offsets[i], f"x{i}"):
            planes.append(Hyperplane(_coord_normal(n, i - 1), a))
    for i, j in pairs:
        for b in _validated_offsets(diff_offsets[(i, j)], f"x{i}-x{j}"):
            planes.append(Hyperplane(_pair_normal(n, i - 1, j - 1, -1), b))
    for i, j in pairs:
        for c in _validated_offsets(sum_offsets[(i, j)], f"x{i}+x{j}"):
            planes.append(Hyperplane(_pair_normal(n, i - 1, j - 1, 1), c))
    return Arrangement(n, planes)


def make_catalan_type(n: int, values: Sequence, with_zero: bool = True) -> Arrangement:
    """Catalan-type (with zero) or semiorder-type (without) arrangement.

    Hyperplanes x_i - x_j = 0 (if ``with_zero``), +-a_1, ..., +-a_m for every
    pair i < j, where ``values`` = a_1 > a_2 > ... > a_m > 0.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    vals = [as_scalar(v) for v in values]
    if not vals:
        raise ValueError("offset value list must be nonempty")
    if any(v <= 0 for v in vals):
        raise ValueError("offset values must be positive")
    if any(a <= b for a, b in zip(vals, vals[1:])):
        raise ValueError("offset values must be strictly decreasing")
    planes = []
    for i, j in combinations(range(n), 2):
        normal = _pair_normal(n, i, j, -1)
        if with_zero:
            planes.append(Hyperplane(normal, 0))
        for a in vals:
            planes.append(Hyperplane(normal, a))
            planes.append(Hyperplane(normal, -a))
    return Arrangement(n, planes)


def make_m_catalan(n: int, m: int) -> Arrangement:
    """The m-Catalan arrangement: offsets 0, +-1, ..., +-m in every direction."""
    if m < 1:
        raise ValueError("needs m >= 1")
    return make_catalan_type(n, list(range(m, 0, -1)), with_zero=True)


# ---------------------------------------------------------------------------
# Deletion and restriction
# ---------------------------------------------------------------------------


def delete(arr: Arrangement, h_index: int) -> Arrangement:
    """Remove one hyperplane; the kind tag is recomputed on the result."""
    if not 0 <= h_index < len(arr.hyperplanes):
        raise IndexError(f"hyperplane index {h_index} out of range")
    planes = arr.hyperplanes[:h_index] + arr.hyperplanes[h_index + 1 :]
    return Arrangement(arr.dim, planes)


def restrict(arr: Arrangement, h_index: int) -> tuple[Arrangement, tuple[int, ...]]:
    """Restriction of the arrangement onto one of its hyperplanes.

    The hyperplane H0 is identified with R^(n-1) by dropping the coordinate
    of the largest index with a nonzero normal entry (for x_k - x_l = a or
    x_k + x_l = a that is x_l, for x_k = a it is x_k); every other hyperplane
    with nonempty intersection maps to its projected image, coincident images
    are merged, parallel-disjoint hyperplanes are discarded.

    Returns the restricted arrangement together with the tuple of retained
    original coordinate indices (new coordinate -> old coordinate).
    """
    if not 0 <= h_index < len(arr.hyperplanes):
        raise IndexError(f"hyperplane index {h_index} out of range")
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
    return Arrangement(arr.dim - 1, images), keep


# ---------------------------------------------------------------------------
# Seeded random deformations (shared by the CLI and the test suites)
# ---------------------------------------------------------------------------

# Offsets are drawn from the rationals in [-3, 3] with denominator at most 2.
_OFFSET_POOL = [Fraction(k, 2) for k in range(-6, 7)]


def random_deformation_a(
    n: int, rng: random.Random, max_per_direction: int = 3
) -> Arrangement:
    """Seeded random non-degenerate type A deformation."""
    offsets = {}
    for i, j in combinations(range(1, n + 1), 2):
        count = rng.randint(1, max_per_direction)
        offsets[(i, j)] = sorted(rng.sample(_OFFSET_POOL, count))
    return make_deformation_a(n, offsets)


def random_deformation_b(
    n: int, rng: random.Random, max_per_direction: int = 2
) -> Arrangement:
    """Seeded random non-degenerate type B deformation."""
    def draw():
        return sorted(rng.sample(_OFFSET_POOL, rng.randint(1, max_per_direction)))

    x_offsets = {i: draw() for i in range(1, n + 1)}
    pairs = list(combinations(range(1, n + 1), 2))
    diff_offsets = {p: draw() for p in pairs}
    sum_offsets = {p: draw() for p in pairs}
    return make_deformation_b(n, x_offsets, diff_offsets, sum_offsets)
