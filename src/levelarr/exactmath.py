"""Exact integer elimination and linear feasibility.

Everything in this module works over arbitrary-precision integers and
rationals (`fractions.Fraction`); there is no floating point anywhere.  That
is what makes sign vectors, Möbius values and recession-cone dimensions
computed downstream trustworthy: every predicate here is decided exactly.

Equation systems live here in one form, the canonical integer row system
built by ``_reduce``.  ``Hyperplane.row`` is its one-row case, the
intersection poset keys flats by it, and ``solve_affine`` and the rank step
of ``cone_span_dimension`` fold their equations through the same routine.

Every inequality question goes to one engine, ``_IntTableau``: a
fraction-free simplex dictionary with free variables and Bland's rule, always
started from a feasible slack basis, so there is no phase 1 and no
artificial variable.  A strict system is decided incrementally, one row at a
time (Rada & Černý 2018): the witness of the rows so far is strictly inside
them, so translating it to the origin makes the slack basis feasible, and
``_feasible_system`` maximizes the new row's form from there until it
crosses the offset.  The new witness is an exact point between the old
witness and the simplex vertex (or ray point) reached, so witnesses are
deterministic.

The span of a recession cone ``{d : r_i . d >= 0}`` needs no feasibility
test per row.  ``cone_span_dimension`` finds every implicit equality with one
LP (Freund, Roundy & Todd 1985): maximize ``sum t_i`` subject to
``r_i . d >= t_i`` and ``0 <= t_i <= 1``.  The origin is feasible, so the
slack basis starts the same simplex directly; a row whose negation is also
present is implicit without an LP variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]


def as_scalar(value) -> Fraction:
    """Coerce an int, string like ``"3/2"``, or Fraction to an exact rational.

    Floats are rejected outright; silently accepting them would smuggle
    rounding error into computations whose whole point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} not allowed in exact arithmetic")
    return Fraction(value)


def as_vector(values) -> Vector:
    return tuple(as_scalar(v) for v in values)


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum((as_scalar(x) * as_scalar(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# Canonical integer equation systems
#
# An equation a . x = b is the integer row (a_1, ..., a_n, b).  A canonical
# system is the reduced row-echelon form of its rows, each row rescaled to a
# primitive integer vector with a positive pivot, ordered by pivot column.
# Rational row spaces and canonical systems are in bijection, so two systems
# describe the same affine subspace exactly when they are equal tuples.
# ---------------------------------------------------------------------------

IntRow = tuple[int, ...]  # (a_1, ..., a_n, b) meaning a . x = b


def _int_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[int, ...]:
    """Scale a rational row to integers (positive factor, so orientation keeps)."""
    scale = lcm(*(c.denominator for c in coeffs), rhs.denominator)
    return tuple(int(c * scale) for c in coeffs) + (int(rhs * scale),)


def _normalize(row: Sequence[int]) -> Optional[IntRow]:
    """Primitive form with positive leading variable entry; None for the zero row."""
    g = 0
    for c in row:
        g = gcd(g, c)
    if g == 0:
        return None
    row = tuple(c // g for c in row)
    lead = next((c for c in row[:-1] if c), None)
    if lead is None or lead > 0:
        return row
    return tuple(-c for c in row)


def _pivot(row: IntRow) -> int:
    return next(i for i, c in enumerate(row[:-1]) if c)


class _EmptyIntersection(Exception):
    pass


def _reduce(rows: tuple[IntRow, ...], row: IntRow) -> Optional[tuple[IntRow, ...]]:
    """Add one equation to a canonical system.

    Returns the new canonical system, or None when the equation already holds
    on the flat.  Raises _EmptyIntersection when it contradicts the system.
    """
    work = list(row)
    for r in rows:
        p = _pivot(r)
        if work[p]:
            f, rp = work[p], r[p]
            work = [w * rp - rv * f for w, rv in zip(work, r)]
    new = _normalize(work)
    if new is None:
        return None
    if not any(new[:-1]):
        raise _EmptyIntersection
    p = _pivot(new)
    merged: list[IntRow] = []
    inserted = False
    for r in rows:
        if not inserted and _pivot(r) > p:
            merged.append(new)
            inserted = True
        if r[p]:
            combo = _normalize([rv * new[p] - nv * r[p] for rv, nv in zip(r, new)])
            merged.append(combo)
        else:
            merged.append(r)
    if not inserted:
        merged.append(new)
    return tuple(merged)


def _solve_rows(rows: tuple[IntRow, ...], dim: int) -> tuple[Vector, tuple[Vector, ...]]:
    """Point and direction basis of a canonical (consistent) system."""
    pivots = [_pivot(r) for r in rows]
    free = [c for c in range(dim) if c not in pivots]
    point = [Fraction(0)] * dim
    for r, p in zip(rows, pivots):
        point[p] = Fraction(r[dim], r[p])
    basis = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for r, p in zip(rows, pivots):
            v[p] = Fraction(-r[f], r[p])
        basis.append(tuple(v))
    return tuple(point), tuple(basis)


# ---------------------------------------------------------------------------
# Affine equality systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSolution:
    """Nonempty solution set of an equality system: a point plus directions.

    ``basis`` spans the direction space; its length is the dimension of the
    solution set.
    """

    point: Vector
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def satisfies(self, normal, offset) -> bool:
        """True when the whole solution set lies on ``normal . x = offset``."""
        if dot(normal, self.point) != as_scalar(offset):
            return False
        return all(dot(normal, b) == 0 for b in self.basis)


def solve_affine(equalities, dim: int) -> Optional[AffineSolution]:
    """Solve a conjunction of ``a . x = b`` constraints in R^dim exactly.

    Returns None when the system is inconsistent.  An empty system yields the
    whole space.
    """
    eqs = [(as_vector(a), as_scalar(b)) for a, b in equalities]
    for a, _ in eqs:
        if len(a) != dim:
            raise ValueError("ambient dimension mismatch")
    system: tuple[IntRow, ...] = ()
    try:
        for a, b in eqs:
            system = _reduce(system, _int_row(a, b)) or system
    except _EmptyIntersection:
        return None
    return AffineSolution(*_solve_rows(system, dim))


# ---------------------------------------------------------------------------
# Strict inequality systems (internal engine)
#
# A row is an integer tuple (c_1, ..., c_d, r) read as  c . y > r.
# ---------------------------------------------------------------------------


def _primitive_lhs(row: tuple[int, ...]) -> tuple[tuple[int, ...], Fraction]:
    """Split a row into a primitive integer lhs and a rational rhs.

    Dividing by the gcd of the lhs makes rescaled copies of one direction
    collide in a set or dict.
    """
    *lhs, rhs = row
    g = 0
    for c in lhs:
        g = gcd(g, c)
    if g == 0:
        return tuple(lhs), Fraction(rhs)
    return tuple(c // g for c in lhs), Fraction(rhs, g)


class _IntTableau:
    """Fraction-free simplex dictionary that stores only the nonbasic columns.

    Row i reads ``x[basis[i]] = (rows[i][-1] + sum_j rows[i][j] * x[cols[j]]) / den``
    with one common positive denominator ``den``; basic columns are implicit.
    Variables are labelled by their starting position: the columns first,
    then the rows.  Labels below ``free`` are free variables and every other
    variable is >= 0.  The starting dictionary must be feasible (a constant
    >= 0 in every row of a variable >= 0), so there is no phase 1.

    Pivoting is fraction-free: every entry stays a subdeterminant of the
    starting integer dictionary, so the division by the old denominator is
    exact (Bareiss).  Bland's rule (1977) picks the eligible variable with
    the smallest label, both to enter and to leave, so the simplex cannot
    cycle.  A free variable enters in whichever direction improves the
    objective and, once basic, never leaves.
    """

    def __init__(self, rows: list[list[int]], free: int):
        ncols = len(rows[0]) - 1
        self.rows = rows
        self.den = 1
        self.cols = list(range(ncols))
        self.basis = list(range(ncols, ncols + len(rows)))
        self.free = free

    def pivot(self, r: int, c: int) -> None:
        """Exchange the basic variable of row r with the nonbasic one of column c."""
        rows, d = self.rows, self.den
        prow = rows[r]
        p = prow[c]
        s = 1 if p > 0 else -1
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or (f == 0 and s * p == d):
                continue  # such a row comes out of the update unchanged
            new = [s * (v * p - f * w) // d for v, w in zip(row, prow)]
            new[c] = s * f
            rows[i] = new
        new = [-s * w for w in prow]
        new[c] = s * d
        rows[r] = new
        self.den = s * p
        self.basis[r], self.cols[c] = self.cols[c], self.basis[r]

    def minimize(self, obj_index: int, below: Optional[int] = None) -> Optional[tuple[int, int]]:
        """Run Bland's rule on row ``obj_index`` (which never leaves the basis).

        Stops at the optimum or, when ``below`` is given, as soon as the
        objective value is less than ``below``.  Returns ``(column, direction)``
        when that column's variable, moved in that direction (+1 or -1) with
        every other nonbasic variable at 0, decreases the objective without
        bound; otherwise None.
        """
        rows, cols, basis, free = self.rows, self.cols, self.basis, self.free
        while True:
            cost = rows[obj_index]
            if below is not None and cost[-1] < below * self.den:
                return None
            enter, sign = -1, 0
            for j, c in enumerate(cost[:-1]):
                if (c < 0 or (c > 0 and cols[j] < free)) and (enter < 0 or cols[j] < cols[enter]):
                    enter, sign = j, 1 if c < 0 else -1
            if enter < 0:
                return None
            leave, num, den = -1, 0, 0
            for i, row in enumerate(rows):
                coef = -sign * row[enter]  # how fast x[basis[i]] falls
                if coef <= 0 or i == obj_index or basis[i] < free:
                    continue
                if (
                    leave < 0
                    or row[-1] * den < num * coef
                    or (row[-1] * den == num * coef and basis[i] < basis[leave])
                ):
                    leave, num, den = i, row[-1], coef
            if leave < 0:
                return enter, sign
            self.pivot(leave, enter)


def _feasible_system(
    rows: list[tuple[int, ...]],
    witness: Vector,
    row: tuple[int, ...],
) -> Optional[Vector]:
    """Split test: a point strictly inside ``rows`` and ``row``, or None.

    ``witness`` must lie strictly inside every row of ``rows``; it is
    returned as it is when it also satisfies ``row``.  Otherwise, in the
    coordinates ``y = L * (x - witness)`` (L the common denominator of the
    witness) each old row reads ``c . y + k > 0`` with an integer ``k > 0``,
    so the slack basis, at ``y = 0``, is feasible for the closure.  The
    simplex maximizes the new form ``g . y`` from there and stops as soon as
    the value crosses the row's offset ``h >= 0`` in these coordinates, at a
    point p of the closure.  On an unbounded ray p is the first integer step
    past ``2h``.  The new witness is ``t * p`` with t the simplest rational
    in ``(h / g.p, 1)`` (1/2 whenever ``g.p > 2h``): strictly inside every
    old row because ``y = 0`` is and p is in the closure, and strictly on
    the new side because ``t * g.p > h``.  When the maximum is at most ``h``
    the system is infeasible.
    """
    dim = len(witness)
    scale = lcm(*(x.denominator for x in witness))
    point = [int(x * scale) for x in witness]

    def slack(r: tuple[int, ...]) -> int:
        return sum(c * x for c, x in zip(r, point)) - r[dim] * scale

    h = -slack(row)
    if h < 0:
        return witness
    tab = _IntTableau(
        [list(r[:dim]) + [slack(r)] for r in rows] + [[-c for c in row[:dim]] + [0]],
        dim,
    )
    obj = len(rows)
    ray = tab.minimize(obj, -h)
    cost = tab.rows[obj]
    col, move = 0, 0  # p moves column col's variable by move off the vertex
    if ray is not None:
        col, sign = ray
        move = sign * ((2 * h * tab.den + cost[-1]) // -(sign * cost[col]) + 1)
    elif cost[-1] >= -h * tab.den:
        return None
    y = [Fraction(0)] * dim
    for r, label in zip(tab.rows, tab.basis):
        if label < dim:
            y[label] = Fraction(r[-1] + r[col] * move, tab.den)
    if move and tab.cols[col] < dim:
        y[tab.cols[col]] = Fraction(move)
    z = Fraction(-(cost[-1] + cost[col] * move), tab.den)
    t = Fraction(1, 2) if 2 * h < z else 1 - Fraction(1, z // (z - h) + 1)
    return tuple(w + t * v / scale for w, v in zip(witness, y))


# ---------------------------------------------------------------------------
# Public feasibility surface
# ---------------------------------------------------------------------------


def feasible_strict(strict, equalities=(), *, dim: int) -> Optional[Vector]:
    """Decide an open polyhedron and return an exact interior witness.

    Each strict constraint is ``(a, b, sign)`` with sign in {+1, -1}, read as
    ``sign * (a . x - b) > 0``; each entry of ``equalities`` is ``(a, b)``
    read as ``a . x = b``.  Returns None when the system is infeasible.  The
    witness satisfies every strict constraint strictly, exactly.
    """
    constraints = [(as_vector(a), as_scalar(b), int(s)) for a, b, s in strict]
    for a, _, s in constraints:
        if len(a) != dim:
            raise ValueError("ambient dimension mismatch")
        if s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s}")

    space = solve_affine(equalities, dim)
    if space is None:
        return None
    d = space.dim

    rows = []
    for a, b, s in constraints:
        coeffs = tuple(s * dot(a, bv) for bv in space.basis)
        rhs = s * (b - dot(a, space.point))
        if not any(coeffs):
            if rhs >= 0:
                return None
            continue
        rows.append(_int_row(coeffs, rhs))

    # Fold the rows in one at a time: each split test starts at the witness
    # of the rows before it, and the first at the affine point itself.
    y: Optional[Vector] = tuple(Fraction(0) for _ in range(d))
    for i, row in enumerate(rows):
        y = _feasible_system(rows[:i], y, row)
        if y is None:
            return None
    point = list(space.point)
    for yj, bv in zip(y, space.basis):
        if yj:
            point = [p + yj * c for p, c in zip(point, bv)]
    return tuple(point)


def cone_span_dimension(constraints, *, dim: int) -> int:
    """Dimension of the linear span of ``{d : sign_i * (a_i . d) >= 0}``.

    The span is the null space of the implicit equalities: the constraints
    that hold with equality on the whole cone.  Its dimension is therefore
    ``dim - rank`` of those rows.  A row whose negation is also present is
    implicit outright.  The others are classified together by one exact LP
    (Freund, Roundy & Todd 1985): maximize ``sum t_i`` subject to
    ``r_i . d >= t_i`` and ``0 <= t_i <= 1``.  At the optimum every ``t_i``
    is exactly 0 (row i is implicit) or exactly 1.
    """
    rows: list[tuple[int, ...]] = []
    seen = set()
    for a, s in constraints:
        vec = as_vector(a)
        if len(vec) != dim:
            raise ValueError("ambient dimension mismatch")
        if int(s) not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s}")
        if not any(vec):
            continue  # 0 >= 0 constrains nothing
        row = _int_row(tuple(int(s) * c for c in vec), Fraction(0))
        lhs, _ = _primitive_lhs(row)
        if lhs not in seen:
            seen.add(lhs)
            rows.append(lhs)

    implicit: tuple[IntRow, ...] = ()  # canonical system of the implicit rows
    t_col: dict[int, int] = {}  # row index -> label (and column) of its t_i
    for i, lhs in enumerate(rows):
        if tuple(-c for c in lhs) in seen:
            implicit = _reduce(implicit, lhs + (0,)) or implicit
        else:
            t_col[i] = dim + len(t_col)
    if not t_col:
        return dim - len(implicit)

    # Dictionary over the nonbasic d (free) and t: s_i = r_i.d - t_i (no t_i
    # for a paired row), q_i = 1 - t_i, and the objective -sum t_i.  The
    # origin is feasible, so the slack basis starts the simplex: no phase 1.
    k = len(t_col)
    tab_rows = []
    for i, lhs in enumerate(rows):
        line = list(lhs) + [0] * (k + 1)
        if i in t_col:
            line[t_col[i]] = -1
        tab_rows.append(line)
    for c in t_col.values():
        line = [0] * (dim + k + 1)
        line[c], line[-1] = -1, 1
        tab_rows.append(line)
    tab_rows.append([0] * dim + [-1] * k + [0])
    tab = _IntTableau(tab_rows, dim)
    tab.minimize(len(tab_rows) - 1)

    value = {b: row[-1] for b, row in zip(tab.basis, tab.rows)}
    for i, c in t_col.items():
        t = value.get(c, 0)
        if t == 0:
            implicit = _reduce(implicit, rows[i] + (0,)) or implicit
        elif t != tab.den:
            raise ArithmeticError("cone-span LP optimum is not 0/1 in t")
    return dim - len(implicit)
