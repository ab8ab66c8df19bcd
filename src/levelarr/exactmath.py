"""Exact integer elimination and linear feasibility.

Everything in this module works over arbitrary-precision integers; there is
no floating point anywhere.  That is what makes sign vectors, Möbius values
and recession-cone dimensions computed downstream trustworthy: every
predicate here is decided exactly.  Rationals (`fractions.Fraction`) appear
only at the edge: ``as_scalar``/``as_vector``/``_int_row`` turn a rational
hyperplane into its integer row once, when the hyperplane is built.
``as_scalar`` is the one reader of an exact scalar: the library, documents
and ``generate --values`` all take and refuse values through it.

Equations need one canonical form and one elimination step.  ``_normalize``
writes an integer row as its signed content times a primitive row whose first
nonzero entry is positive, and ``Hyperplane.row`` is that row.  ``_step``
eliminates one column of a row with another and normalizes the result; the
intersection poset's residual normals and ``restrict``'s images come from it.
``_rank`` reduces integer vectors by ``_step`` for their rank, which is all
the package asks of an equation system: the top codimension of the poset, and
the rank of a recession cone's implicit equalities in ``cone_span_dimension``.

The LP engine is ``_IntTableau``: a fraction-free simplex dictionary with
free variables and Bland's rule, always started from a feasible slack basis,
so there is no phase 1 and no artificial variable.  It decides every split
test of ``regions``' LP walk, which lists the regions of every arrangement
that is not a type B deformation and counts the levels of every
arrangement without Coxeter forms.  For Coxeter-form normals ``regions``
has a second engine on the same depth-first walk, a shortest-path closure
walk, which lists type B deformations with no LP.  ``regions._leaves``
alone chooses the engine, and whether a level comes from that walk or from
``cone_span_dimension``.  Every listing is checked by integer facts alone:
``_slack`` of each witness against each of its region's rows, sign order,
and Zaslavsky's count from the poset.

A strict system is decided incrementally, one row at a time (Rada & Černý
2018): the witness of the rows so far is strictly inside them, so
translating it to the origin makes the slack basis feasible, and
``_feasible_system`` maximizes the new row's form from there until it
crosses the offset.  The new witness is an exact point between the old
witness and the simplex vertex (or ray point) reached, so witnesses are
deterministic.  Witnesses are homogeneous integer points ``(X, L)`` meaning
``X / L`` in lowest terms, so the slack of a row is one integer dot product
(``_slack``); region enumeration turns a witness into ``Fraction``s once,
for the final region.

A region's recession cone is ``{d : r_i . d >= 0}`` over its signed normal
rows: each hyperplane's normal, negated on its - side, just as the split
test reads that hyperplane's strict row.  Its span needs no feasibility test
per row.  ``cone_span_dimension`` finds every implicit equality with one LP
(Freund, Roundy & Todd 1985): maximize ``sum t_i`` subject to
``r_i . d >= t_i`` and ``0 <= t_i <= 1``.  The origin is feasible, so the
slack basis starts the same simplex directly; a row whose negation is also
present is implicit without an LP variable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg
from typing import Optional, Sequence, Union

Vector = tuple[Union[int, Fraction], ...]


# The one string form of an exact scalar: an optionally signed integer or
# ``p/q`` in decimal digits.  No exponent, decimal point or digit separator,
# so reading a string costs no more than its digits.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

_SHOWN = 40  # characters of an offending value that an error message echoes


def _clip(text: str) -> str:
    """``text``, or its first ``_SHOWN`` characters and its length if longer."""
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}… ({len(text)} characters)"


def as_scalar(value) -> Union[int, Fraction]:
    """The one reader of an exact scalar, for the library and documents alike.

    An int (not a bool) or a Fraction comes back unchanged, so integer rows
    skip the Fraction round trip; a string matching ``_RATIONAL`` after
    stripping, with a nonzero denominator, comes back as a Fraction.  Anything
    else is refused, floats above all: they would smuggle rounding error into
    computations whose whole point is exactness.  A non-string raises
    TypeError, a bad string ValueError.
    """
    if type(value) is int or isinstance(value, Fraction):
        return value
    if not isinstance(value, str):
        shown = _clip(repr(value)) if isinstance(value, (bool, float)) else type(value).__name__
        raise TypeError(f"expected an integer or rational string, got {shown}")
    if not _RATIONAL.fullmatch(value.strip()):
        raise ValueError(f"expected an integer or \"p/q\" string, got {_clip(repr(value))}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_clip(repr(value))}") from None
    except ValueError as exc:  # more digits than Python converts to an int
        raise ValueError(f"not a rational: {_clip(repr(value))} ({_clip(str(exc))})") from None


def as_vector(values) -> Vector:
    return tuple(as_scalar(v) for v in values)


# ---------------------------------------------------------------------------
# One elimination step
#
# An equation a . x = b is the integer row (a_1, ..., a_n, b); a normal is
# the row without its offset.  ``_normalize`` is the one canonical form of a
# row, and ``_step`` the one elimination step.
# ---------------------------------------------------------------------------

IntRow = tuple[int, ...]  # (a_1, ..., a_n, b) meaning a . x = b


def _int_row(coeffs: Sequence[Union[int, Fraction]], rhs: Union[int, Fraction]) -> tuple[int, ...]:
    """Scale a rational row to integers (positive factor, so orientation keeps)."""
    scale = lcm(*(c.denominator for c in coeffs), rhs.denominator)
    return tuple(int(c * scale) for c in coeffs) + (int(rhs * scale),)


def _normalize(row: Sequence[int]) -> Optional[tuple[int, IntRow]]:
    """``(c, nu)`` with ``row == c * nu``, nu primitive with a positive first
    nonzero entry; None for the zero row."""
    d = gcd(*row)
    if not d:
        return None
    for c in row:
        if c:
            break
    if c < 0:
        d = -d
    return d, tuple([c // d for c in row]) if d != 1 else tuple(row)


def _step(g: Sequence[int], r: Sequence[int], p: int) -> Optional[tuple[int, IntRow]]:
    """Eliminate column ``p`` of ``g`` with ``r``: ``_normalize`` of
    ``g * r[p] - r * g[p]``, whose entry p is 0."""
    rp, f = r[p], g[p]
    return _normalize([a * rp - c * f for a, c in zip(g, r)])


def _rank(vectors) -> int:
    """Rank of integer vectors, each reduced by ``_step`` against the rows kept
    so far and kept when it is not zero.  A kept row is 0 in every earlier
    row's pivot column, so a step never undoes an earlier one."""
    kept: list[tuple[IntRow, int]] = []  # (row, its pivot column)
    for v in vectors:
        for r, p in kept:
            if v[p]:
                reduced = _step(v, r, p)
                if reduced is None:
                    break
                v = reduced[1]
        else:
            p = next((i for i, c in enumerate(v) if c), None)
            if p is not None:
                kept.append((v, p))
    return len(kept)


# ---------------------------------------------------------------------------
# Strict inequality systems (internal engine)
#
# A row is an integer tuple (c_1, ..., c_d, r) read as  c . y > r.
# ---------------------------------------------------------------------------


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
    exact (Bareiss).  ``pivot`` folds the pivot row's sign in once, so the
    new denominator is the pivot's absolute value; a row with 0 in the pivot
    column is only rescaled, and left untouched when that rescaling is by 1.
    Bland's rule (1977) picks the eligible variable with the smallest label,
    both to enter and to leave, so the simplex cannot cycle.  A free variable
    enters in whichever direction improves the objective and, once basic,
    never leaves.
    """

    def __init__(self, rows: list[list[int]], free: int):
        ncols = len(rows[0]) - 1
        self.rows = rows
        self.den = 1
        self.cols = list(range(ncols))
        self.basis = list(range(ncols, ncols + len(rows)))
        self.free = free

    def pivot(self, r: int, c: int) -> None:
        """Exchange the basic variable of row r with the nonbasic one of column c.

        The pivot row's sign is folded in once.  With ``p`` the pivot's
        absolute value, ``s`` its sign and ``w`` the pivot row times ``s``,
        an entry ``v`` of another row becomes ``(v * p - f * w) // d``, where
        ``f`` is that row's pivot-column entry and ``d`` the old denominator;
        the pivot-column entry itself becomes ``s * f``, and ``p`` is the new
        denominator.  A row with ``f = 0`` is only rescaled, to
        ``v * p // d``, and skipped when ``p == d``.
        """
        rows, d = self.rows, self.den
        prow = rows[r]
        p = prow[c]
        if p > 0:
            s, out = 1, [-w for w in prow]
        else:  # the new pivot row is the old one, reused; the update reads its negation
            s, p, out, prow = -1, -p, prow, [-w for w in prow]
        for i, row in enumerate(rows):
            f = row[c]
            if not f:
                if p != d:
                    rows[i] = [v * p // d for v in row]
            elif i != r:
                new = [(v * p - f * w) // d for v, w in zip(row, prow)]
                new[c] = s * f
                rows[i] = new
        out[c] = s * d
        rows[r] = out
        self.den = p
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
            enter, label = -1, len(cols) + len(rows)  # above every label
            for j, (col, a) in enumerate(zip(cols, cost)):  # zip drops the constant
                if a and col < label and (a < 0 or col < free):
                    enter, label = j, col
            if enter < 0:
                return None
            up = cost[enter] < 0  # the entering variable rises; rows with a < 0 fall
            leave, num, den = -1, 0, 1
            for i, (row, basic) in enumerate(zip(rows, basis)):
                a = row[enter]
                if a and (a < 0) == up and basic >= free and i != obj_index:
                    a, b = abs(a), row[-1]  # x[basic] falls at rate a from b
                    if leave < 0 or b * den < num * a or (b * den == num * a and basic < basis[leave]):
                        leave, num, den = i, b, a
            if leave < 0:
                return enter, 1 if up else -1
            self.pivot(leave, enter)


IntPoint = tuple[int, ...]  # (X_1, ..., X_n, L) meaning X / L, L > 0, gcd 1


def _slack(row: Sequence[int], point: IntPoint) -> int:
    """``c . X - r * L`` for the row ``(c, r)``: L times ``c . x - r`` at x = X / L.

    One dot product of the whole row with the whole point gives
    ``c . X + r * L``; the offset term is then taken off twice.
    """
    return sum(map(mul, row, point)) - 2 * row[-1] * point[-1]


def _feasible_system(
    rows: list[tuple[int, ...]],
    point: IntPoint,
    row: tuple[int, ...],
) -> Optional[IntPoint]:
    """Split test: an integer point strictly inside ``rows`` and ``row``, or None.

    Points are homogeneous: ``(X_1, ..., X_n, L)`` stands for ``X / L``, with
    ``L > 0`` and the gcd of all entries 1, so ``L`` is the common
    denominator of the coordinates.  ``point`` must lie strictly inside
    every row of ``rows``; it is returned as it is when it also satisfies
    ``row``.  Otherwise, in the coordinates ``y = L * x - X`` each old row
    reads ``c . y + s > 0`` with its slack ``s = c . X - r * L > 0``, so the
    slack basis, at ``y = 0``, is feasible for the closure.  The simplex
    maximizes the new form ``g . y`` from there and stops as soon as the
    value crosses the row's offset ``h >= 0`` in these coordinates, at a
    point ``p = Y / den`` of the closure.  On an unbounded ray p is the first
    integer step past ``2h``.  With ``g . p = Z / den``, the new point is
    ``y = t * p`` for ``t = (k - 1) / k``, where ``k = 2`` whenever
    ``Z > 2 * h * den`` and ``k = Z // (Z - h * den) + 1`` otherwise: strictly
    inside every old row because ``y = 0`` is and p is in the closure, and
    strictly on the new side because ``t * g . p > h``.  In x that is
    ``(k * den * X + (k - 1) * Y, k * den * L)``, divided by its gcd.  When
    the maximum is at most ``h`` the system is infeasible.
    """
    h = -_slack(row, point)
    if h < 0:
        return point
    dim = len(point) - 1
    objective = list(map(neg, row))
    objective[-1] = 0
    tab = _IntTableau([[*r[:dim], _slack(r, point)] for r in rows] + [objective], dim)
    obj = len(rows)
    ray = tab.minimize(obj, -h)
    cost = tab.rows[obj]
    col, move = 0, 0  # p moves column col's variable by move off the vertex
    if ray is not None:
        col, sign = ray
        move = sign * ((2 * h * tab.den + cost[-1]) // -(sign * cost[col]) + 1)
    elif cost[-1] >= -h * tab.den:
        return None
    den = tab.den
    y = [0] * dim  # p * den
    for r, label in zip(tab.rows, tab.basis):
        if label < dim:
            y[label] = r[-1] + r[col] * move
    if move and tab.cols[col] < dim:
        y[tab.cols[col]] = move * den
    z = -(cost[-1] + cost[col] * move)  # (g . p) * den
    k = 2 if 2 * h * den < z else z // (z - h * den) + 1
    new = [k * den * x + (k - 1) * v for x, v in zip(point, y)] + [k * den * point[-1]]
    g = gcd(*new)
    return tuple(v // g for v in new)


def cone_span_dimension(rows, *, dim: int) -> int:
    """Dimension of the linear span of the cone ``{d : r_i . d >= 0}``.

    Each row ``r_i`` is a tuple of ``dim`` ints, a signed normal such as
    ``Hyperplane.normal`` or its negation.  Equal rows count once.  Rows
    need not be primitive: a rescaled copy of a row is implicit exactly
    when that row is, and a zero row, its own negation, adds nothing to the
    rank.

    The span is the null space of the implicit equalities: the rows that
    hold with equality on the whole cone.  Its dimension is therefore
    ``dim - rank`` of those rows.  A row whose negation is also present is
    implicit outright.  The others are classified together by one exact LP
    (Freund, Roundy & Todd 1985): maximize ``sum t_i`` subject to
    ``r_i . d >= t_i`` and ``0 <= t_i <= 1``.  At the optimum every ``t_i``
    is exactly 0 (row i is implicit) or exactly 1.
    """
    rows = list(dict.fromkeys(rows))
    seen = set(rows)

    implicit: list[tuple[int, ...]] = []  # the rows that hold with equality
    lp_rows: list[int] = []  # index of each row with a t_i, in the order of the t columns
    for i, lhs in enumerate(rows):
        if tuple(map(neg, lhs)) in seen:
            implicit.append(lhs)
        else:
            lp_rows.append(i)
    if not lp_rows:
        return dim - _rank(implicit)

    # Dictionary over the nonbasic d (free) and t: s_i = r_i.d - t_i (no t_i
    # for a paired row), q_i = 1 - t_i, and the objective -sum t_i.  The
    # origin is feasible, so the slack basis starts the simplex: no phase 1.
    k = len(lp_rows)
    tail = [0] * (k + 1)
    tab_rows = [[*lhs, *tail] for lhs in rows]
    for c, i in enumerate(lp_rows, dim):
        tab_rows[i][c] = -1
        line = [0] * (dim + k + 1)
        line[c], line[-1] = -1, 1
        tab_rows.append(line)
    tab_rows.append([0] * dim + [-1] * k + [0])
    tab = _IntTableau(tab_rows, dim)
    tab.minimize(len(tab_rows) - 1)

    value = {b: row[-1] for b, row in zip(tab.basis, tab.rows)}
    for c, i in enumerate(lp_rows, dim):
        t = value.get(c, 0)
        if t == 0:
            implicit.append(rows[i])
        elif t != tab.den:
            raise ArithmeticError("cone-span LP optimum is not 0/1 in t")
    return dim - _rank(implicit)
