"""Hyperplane arrangements: data model, deformation generators, deletion, restriction.

Hyperplanes are stored in a canonical form (primitive integer normal, first
nonzero entry positive) so that equality and parallelism are plain tuple
comparisons.  A Coxeter direction has one encoding, the signed root of
``Hyperplane.form()``, and one table of them, ``_coxeter_forms``, backs the
generators and the non-degeneracy reports.  ``is_nondegenerate`` is the one
test of whether an arrangement is a non-degenerate deformation of the type A
or type B Coxeter arrangement; ``Arrangement.kind`` reads it on demand, so
deleting the last hyperplane of a direction class downgrades the kind.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exactmath import IntRow, _int_row, _normalize, _step, as_scalar, as_vector


class Kind(str, Enum):
    TYPE_A = "typeA"
    TYPE_B = "typeB"
    GENERAL = "general"


class DegenerateDeformationError(ValueError):
    """A deformation is missing a required direction class.

    Raised by the generators on incomplete input and by the theorem
    validators when their non-degeneracy hypothesis is not met.
    """


class Hyperplane:
    """Affine hyperplane ``normal . x = offset`` in canonical form.

    ``row`` is the equation as a primitive integer tuple ``(a_1..a_n, b)``
    whose first nonzero entry is positive: ``exactmath._normalize``'s
    canonical form.  ``normal`` is its primitive integer normal and ``offset``
    the matching rational offset.  Two parallel hyperplanes therefore share
    the exact same normal tuple.
    """

    __slots__ = ("row", "normal", "offset")

    def __init__(self, normal: Sequence, offset=0):
        vec = as_vector(normal)
        if not any(vec):
            raise ValueError("hyperplane normal must be nonzero")
        _, row = _normalize(_int_row(vec, as_scalar(offset)))
        g, normal = _normalize(row[:-1])
        self.row: IntRow = row
        self.normal: tuple[int, ...] = normal
        self.offset: Fraction = Fraction(row[-1], g)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def form(self) -> Optional[tuple[int, int]]:
        """Coxeter form of the normal, if any: the 1-based signed root ``(i, v)``.

        ``(i, 0)`` is x_i, ``(i, j)`` is x_i - x_j and ``(i, -j)`` is
        x_i + x_j, with i < j; any other direction gives None.  Read as the
        signed-digraph edge i -> v, it is the + side of the hyperplane in
        ``regions._closure_walk``.
        """
        support = [(i, c) for i, c in enumerate(self.normal, 1) if c]
        if len(support) == 1:
            return (support[0][0], 0)  # a primitive normal: the entry is 1
        if len(support) == 2 and support[0][1] == 1 and abs(support[1][1]) == 1:
            (i, _), (j, c) = support
            return (i, -c * j)
        return None

    def __eq__(self, other) -> bool:
        # ``row`` is canonical, so it fixes both ``normal`` and ``offset``.
        return isinstance(other, Hyperplane) and self.row == other.row

    def __hash__(self) -> int:
        return hash(self.row)

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

    Building one checks the input and reads no ``Hyperplane.form()``; the
    ``kind`` is derived on each read.
    """

    __slots__ = ("dim", "hyperplanes")

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

    @property
    def kind(self) -> Kind:
        """``typeA`` or ``typeB``, the first that ``is_nondegenerate`` accepts, else ``general``."""
        return next((k for k in (Kind.TYPE_A, Kind.TYPE_B) if is_nondegenerate(self, k).ok), Kind.GENERAL)

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
# Non-degeneracy
# ---------------------------------------------------------------------------


def _coxeter_forms(kind: Kind, dim: int) -> Iterator[tuple[int, int]]:
    """Direction classes of the Coxeter arrangement of ``kind`` in R^dim.

    Each class is a ``Hyperplane.form()`` value, yielded in report order:
    type A has (i, j) for each pair i < j; type B has every (i, 0), then
    (i, j) and (i, -j) for each pair.
    """
    pairs = combinations(range(1, dim + 1), 2)
    if kind == Kind.TYPE_A:
        return pairs
    return chain(((i, 0) for i in range(1, dim + 1)), (f for i, j in pairs for f in ((i, j), (i, -j))))


def _form_normal(dim: int, form: tuple[int, int]) -> tuple[int, ...]:
    """The primitive normal of a Coxeter form: the inverse of ``Hyperplane.form()``."""
    i, v = form
    normal = [0] * dim
    normal[i - 1] = 1
    if v:
        normal[abs(v) - 1] = -1 if v > 0 else 1
    return tuple(normal)


class NondegeneracyReport(NamedTuple):
    """Outcome of a non-degeneracy check against an expected deformation kind.

    ``missing`` holds the ``Hyperplane.form()`` of the first ``_NAMED``
    unpopulated direction classes, in ``_coxeter_forms`` order, and
    ``missing_count`` counts them all.  ``foreign`` holds the indices of
    hyperplanes of any other direction.
    """

    missing: tuple[tuple[int, int], ...]
    missing_count: int
    foreign: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.foreign

    def explanation(self) -> str:
        """Why the check failed, naming the first ``_NAMED`` entries of each list."""
        parts = []
        if self.missing:
            names = (f"x{i}" + (f"{'-' if v > 0 else '+'}x{abs(v)}" if v else "") for i, v in self.missing)
            parts.append(f"missing direction {_named(names, self.missing_count)}")
        if self.foreign:
            parts.append(f"hyperplanes of foreign direction at indices [{_named(map(str, self.foreign), len(self.foreign))}]")
        return "degenerate: " + "; ".join(parts)


_NAMED = 8  # entries of a list that a degenerate-input message names


def _named(names, count: int) -> str:
    """The first ``_NAMED`` of ``count`` names joined by commas, then how many more."""
    shown = ", ".join(islice(names, _NAMED))
    return shown if count <= _NAMED else f"{shown}, … and {count - _NAMED} more"


def is_nondegenerate(arr: Arrangement, kind: Kind) -> NondegeneracyReport:
    """Check that ``arr`` is a non-degenerate deformation of the given kind.

    Type A requires every difference direction x_i - x_j to be populated and
    no hyperplane of any other direction; type B additionally requires every
    coordinate and sum direction.  The cost is O(m), not the table's C(n, 2)
    or n^2: every form is in type B's table and the differences (v > 0) are
    type A's, so the distinct forms present give the missing count, and the
    table is walked only to its ``_NAMED``-th missing form.
    """
    if kind not in (Kind.TYPE_A, Kind.TYPE_B):
        raise ValueError("expected kind typeA or typeB")
    n = arr.dim
    forms = [h.form() for h in arr.hyperplanes]
    known = [f is not None and (kind == Kind.TYPE_B or f[1] > 0) for f in forms]
    foreign = tuple(idx for idx, ok in enumerate(known) if not ok)
    present = {f for f, ok in zip(forms, known) if ok}
    count = (n * n if kind == Kind.TYPE_B else n * (n - 1) // 2) - len(present)
    missing = tuple(islice((f for f in _coxeter_forms(kind, n) if f not in present), _NAMED if count else 0))
    return NondegeneracyReport(missing, count, foreign)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def make_cox_a(n: int) -> Arrangement:
    """Type A Coxeter arrangement: x_i - x_j = 0 for all 1 <= i < j <= n."""
    if n < 2:
        raise ValueError("type A Coxeter arrangement needs n >= 2")
    return Arrangement(n, [Hyperplane(_form_normal(n, f), 0) for f in _coxeter_forms(Kind.TYPE_A, n)])


def make_cox_b(n: int) -> Arrangement:
    """Type B Coxeter arrangement: x_i = 0, x_i - x_j = 0 and x_i + x_j = 0."""
    if n < 1:
        raise ValueError("type B Coxeter arrangement needs n >= 1")
    return Arrangement(n, [Hyperplane(_form_normal(n, f), 0) for f in _coxeter_forms(Kind.TYPE_B, n)])


def _deformation(n: int, families) -> Arrangement:
    """Deformation from offset families ``(name, sign, offsets)``.

    The family of sign 0 holds the forms (i, 0) and is keyed by i; the family
    of sign s = +-1 holds the forms (i, s*j) and is keyed by the pair (i, j).
    ``offsets`` maps every key to the nonempty list of distinct offsets of
    that direction.  Planes come family by family, each in table order.
    """
    coords = range(1, n + 1)
    keyed = []
    for name, sign, mapping in families:
        if sign:
            keys = {(i, j): (i, sign * j) for i, j in combinations(coords, 2)}
        else:
            keys = {i: (i, 0) for i in coords}
        extra = set(mapping) - set(keys)
        if extra:
            raise ValueError(f"{name} keys out of range: {sorted(extra)}")
        missing = [k for k in keys if k not in mapping]
        if missing:
            raise DegenerateDeformationError(f"{name} missing entries {missing}")
        keyed.append((name, mapping, keys))
    planes = []
    for name, mapping, keys in keyed:
        for key, form in keys.items():
            offsets = [as_scalar(v) for v in mapping[key]]
            if not offsets:
                raise DegenerateDeformationError(f"{name} has an empty offset list at {key}")
            if len(set(offsets)) != len(offsets):
                raise ValueError(f"{name} has a duplicate offset at {key}")
            normal = _form_normal(n, form)
            planes.extend(Hyperplane(normal, a) for a in offsets)
    return Arrangement(n, planes)


def make_deformation_a(n: int, offsets: dict) -> Arrangement:
    """Deformation of the type A Coxeter arrangement from per-pair offsets.

    ``offsets`` maps each 1-based pair ``(i, j)`` with i < j to the nonempty
    list of values a with hyperplane x_i - x_j = a.  Every pair must be
    present: a missing pair means the deformation is degenerate.
    """
    if n < 2:
        raise ValueError("type A deformation needs n >= 2")
    return _deformation(n, [("offsets", 1, offsets)])


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
    return _deformation(n, [
        ("x_offsets", 0, x_offsets),
        ("diff_offsets", 1, diff_offsets),
        ("sum_offsets", -1, sum_offsets),
    ])


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
    offsets = ([Fraction(0)] if with_zero else []) + [c for a in vals for c in (a, -a)]
    return make_deformation_a(n, {p: offsets for p in combinations(range(1, n + 1), 2)})


def make_m_catalan(n: int, m: int) -> Arrangement:
    """The m-Catalan arrangement: offsets 0, +-1, ..., +-m in every direction."""
    if m < 1:
        raise ValueError("needs m >= 1")
    return make_catalan_type(n, list(range(m, 0, -1)), with_zero=True)


# ---------------------------------------------------------------------------
# Deletion and restriction
# ---------------------------------------------------------------------------


def delete(arr: Arrangement, h_index: int) -> Arrangement:
    """Remove one hyperplane; the result's ``kind`` is read from its own hyperplanes."""
    if not 0 <= h_index < len(arr.hyperplanes):
        raise IndexError(f"hyperplane index {h_index} out of range")
    planes = arr.hyperplanes[:h_index] + arr.hyperplanes[h_index + 1 :]
    return Arrangement(arr.dim, planes)


def restrict(arr: Arrangement, h_index: int) -> Arrangement:
    """Restriction of the arrangement onto one of its hyperplanes.

    The hyperplane H0 is identified with R^(n-1) by dropping the coordinate
    of the largest index with a nonzero normal entry (for x_k - x_l = a or
    x_k + x_l = a that is x_l, for x_k = a it is x_k); every other hyperplane
    with nonempty intersection maps to its projected image, coincident images
    are merged, parallel-disjoint hyperplanes are discarded.
    """
    if not 0 <= h_index < len(arr.hyperplanes):
        raise IndexError(f"hyperplane index {h_index} out of range")
    h0 = arr.hyperplanes[h_index]
    drop = max(i for i, c in enumerate(h0.normal) if c)

    images: list[Hyperplane] = []
    seen: set[Hyperplane] = set()
    for idx, h in enumerate(arr.hyperplanes):
        if idx == h_index:
            continue
        # H's row with column ``drop`` eliminated by H0's; distinct canonical
        # rows are not proportional, so the step is never zero.
        _, row = _step(h.row, h0.row, drop)
        row = row[:drop] + row[drop + 1 :]
        if not any(row[:-1]):
            continue  # parallel to H0 and distinct: empty intersection
        image = Hyperplane(row[:-1], row[-1])
        if image not in seen:
            seen.add(image)
            images.append(image)
    return Arrangement(arr.dim - 1, images)


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
