"""Exact integer elimination and linear feasibility.

Everything in this module works over arbitrary-precision integers and
rationals (`fractions.Fraction`); there is no floating point anywhere.  That
is what makes sign vectors, Möbius values and recession-cone dimensions
computed downstream trustworthy: every predicate here is decided exactly.

Equation systems live here in one form, the canonical integer row system
built by ``_reduce``.  ``Hyperplane.row`` is its one-row case, the
intersection poset keys flats by it, and ``solve_affine`` and the rank step
of ``cone_span_dimension`` fold their equations through the same routine.

Strict inequality systems are decided by maximizing a slack variable eps
(capped at 1) subject to ``a.x >= b + eps``; the open system is feasible iff
the optimum is positive.  Low-dimensional systems go through Fourier-Motzkin
elimination with duplicate-row pruning, higher-dimensional ones through a
dense two-phase simplex with Bland's rule, so termination never depends on
pivoting heuristics.  Witness points are deterministic: centers of the
Fourier-Motzkin back-substitution intervals, or the optimal simplex vertex.

The span of a recession cone ``{d : r_i . d >= 0}`` needs no feasibility
test per row.  ``cone_span_dimension`` finds every implicit equality with one
LP (Freund, Roundy & Todd 1985): maximize ``sum t_i`` subject to
``r_i . d >= t_i`` and ``0 <= t_i <= 1``.  The origin is feasible, so the
slack basis starts the integer simplex directly, with no phase 1; a row whose
negation is also present is implicit without an LP variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

# Fourier-Motzkin handles systems with at most this many variables; larger
# systems use the simplex path.
FM_MAX_DIM = 4
# Safety valve: if intermediate FM systems grow past this many rows the
# call is rerouted to the simplex, which has no elimination blowup.
_FM_ROW_LIMIT = 4000


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
# Strict/weak inequality systems (internal engine)
#
# A row is an integer tuple (c_1, ..., c_d, r) read as  c . y >= r  (weak)
# or  c . y > r  (strict).  Integer rows keep the Fourier-Motzkin inner loop
# on machine-int arithmetic as long as values stay small.
# ---------------------------------------------------------------------------


def _primitive_lhs(row: tuple[int, ...]) -> tuple[tuple[int, ...], Fraction]:
    """Split a row into a primitive integer lhs and a rational rhs.

    Dividing by the gcd of the lhs makes duplicate directions collide in a
    dict, which is what keeps Fourier-Motzkin from drowning in parallel rows.
    """
    *lhs, rhs = row
    g = 0
    for c in lhs:
        g = gcd(g, c)
    if g == 0:
        return tuple(lhs), Fraction(rhs)
    return tuple(c // g for c in lhs), Fraction(rhs, g)


class _Infeasible(Exception):
    pass


def _dedup(rows) -> list[tuple[tuple[int, ...], Fraction]]:
    """Keep, per lhs direction, only the tightest rhs; flag constant rows."""
    best: dict[tuple[int, ...], Fraction] = {}
    for lhs, rhs in rows:
        if not any(lhs):
            if rhs > 0:
                raise _Infeasible
            continue
        cur = best.get(lhs)
        if cur is None or rhs > cur:
            best[lhs] = rhs
    return [(lhs, rhs) for lhs, rhs in best.items()]


def _fm_witness(
    strict_rows: list[tuple[int, ...]],
    weak_rows: list[tuple[int, ...]],
    dim: int,
) -> Optional[Vector]:
    """Fourier-Motzkin feasibility with exact interval-center witnesses.

    Variables y_0..y_{dim-1} are eliminated in order; the slack eps lives in
    an extra column that is never eliminated (its coefficients stay <= 0, so
    positive combinations can only produce upper bounds on eps).
    """
    # Extended lhs: (c_0..c_{dim-1}, e); relation  c.y + e*eps >= rhs.
    rows: list[tuple[tuple[int, ...], Fraction]] = []
    for row in strict_rows:
        rows.append(_primitive_lhs(row[:dim] + (-1, row[dim])))
    for row in weak_rows:
        rows.append(_primitive_lhs(row[:dim] + (0, row[dim])))
    rows.append(((0,) * dim + (-1,), Fraction(-1)))  # eps <= 1 cap

    steps: list[list[tuple[tuple[int, ...], Fraction]]] = []
    try:
        live = _dedup(rows)
        for k in range(dim):
            involved = [r for r in live if r[0][k] != 0]
            steps.append(involved)
            carried = [r for r in live if r[0][k] == 0]
            pos = [r for r in involved if r[0][k] > 0]
            neg = [r for r in involved if r[0][k] < 0]
            combos = []
            for plhs, prhs in pos:
                for nlhs, nrhs in neg:
                    lp, ln = -nlhs[k], plhs[k]
                    lhs = tuple(lp * a + ln * b for a, b in zip(plhs, nlhs))
                    combos.append((lhs, lp * prhs + ln * nrhs))
            live = _dedup(carried + combos)
            if len(live) > _FM_ROW_LIMIT:
                return _simplex_witness(strict_rows, weak_rows, dim)
    except _Infeasible:
        return None

    # Only the eps column is left. All coefficients are negative: upper bounds.
    sup = Fraction(1)
    for lhs, rhs in live:
        e = lhs[dim]
        sup = min(sup, Fraction(rhs, e))
    if sup <= 0:
        return None

    eps = sup / 2
    values = [Fraction(0)] * (dim + 1)
    values[dim] = eps
    for k in range(dim - 1, -1, -1):
        lo = hi = None
        for lhs, rhs in steps[k]:
            rest = sum(
                (lhs[j] * values[j] for j in range(k + 1, dim + 1) if lhs[j]),
                Fraction(0),
            )
            bound = (rhs - rest) / lhs[k]
            if lhs[k] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            values[k] = (lo + hi) / 2
        elif lo is not None:
            values[k] = lo + 1
        elif hi is not None:
            values[k] = hi - 1
        else:
            values[k] = Fraction(0)
    return tuple(values[:dim])


# --- two-phase simplex ------------------------------------------------------
#
# The tableau is kept integer throughout: entries are the true rational
# tableau times a common positive denominator D, updated by fraction-free
# pivoting (the Cramer/subdeterminant identity makes every division exact).
# Signs and ratio comparisons therefore never touch Fraction arithmetic.


class _IntTableau:
    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows          # constraint rows, rhs in the last entry
        self.objs: list[list[int]] = []  # objective rows, eliminated alongside
        self.basis = basis
        self.den = 1              # common positive denominator

    def add_objective(self, cost: list[int]) -> int:
        # Reduce the cost row against the current (identity) basis columns.
        row = list(cost)
        for r, b in zip(self.rows, self.basis):
            f = row[b]
            if f:
                row = [v - f * w for v, w in zip(row, r)]
        self.objs.append(row)
        return len(self.objs) - 1

    def pivot(self, r: int, c: int) -> None:
        p = self.rows[r][c]
        d = self.den
        prow = self.rows[r]
        for group in (self.rows, self.objs):
            for i, row in enumerate(group):
                if row is prow:
                    continue
                f = row[c]
                group[i] = [(v * p - f * w) // d for v, w in zip(row, prow)]
        self.den = p
        self.basis[r] = c

    def minimize(self, obj_index: int, enter_cols: range) -> None:
        """Run Bland's rule to optimality of the given objective row."""
        while True:
            obj = self.objs[obj_index]
            enter = next((j for j in enter_cols if obj[j] < 0), -1)
            if enter < 0:
                return
            leave, num, den = -1, 0, 0
            for i, row in enumerate(self.rows):
                coef = row[enter]
                if coef > 0:
                    better = (
                        leave < 0
                        or row[-1] * den < num * coef
                        or (row[-1] * den == num * coef and self.basis[i] < self.basis[leave])
                    )
                    if better:
                        leave, num, den = i, row[-1], coef
            if leave < 0:
                raise ArithmeticError("unbounded objective in simplex phase")
            self.pivot(leave, enter)

    def value(self, obj_index: int) -> Fraction:
        return Fraction(-self.objs[obj_index][-1], self.den)


def _simplex_witness(
    strict_rows: list[tuple[int, ...]],
    weak_rows: list[tuple[int, ...]],
    dim: int,
) -> Optional[Vector]:
    """Decide the mixed strict/weak system by an exact two-phase simplex.

    Formulation: substitute eps = 1 - eps' (eps' >= 0) into the slack form
    and minimize eps'; the strict system is feasible iff the optimum is < 1.
    Free variables are split into positive and negative parts.
    """
    rows = [(r, 1) for r in strict_rows] + [(r, 0) for r in weak_rows]
    m = len(rows)
    if m == 0:
        return tuple(Fraction(0) for _ in range(dim))

    # Columns: u_0..u_{dim-1}, w_0..w_{dim-1}, eps', s_0..s_{m-1}, artificials.
    ncols = 2 * dim + 1 + m
    eps_col = 2 * dim
    width = ncols + m + 1
    tab_rows = []
    for i, (row, sigma) in enumerate(rows):
        line = [0] * width
        for j in range(dim):
            line[j] = row[j]
            line[dim + j] = -row[j]
        line[eps_col] = sigma
        line[eps_col + 1 + i] = -1  # surplus
        line[-1] = row[dim] + sigma
        if line[-1] < 0:
            line = [-v for v in line]
        line[ncols + i] = 1  # artificial
        tab_rows.append(line)
    tab = _IntTableau(tab_rows, [ncols + i for i in range(m)])

    cost1 = [0] * width
    for i in range(m):
        cost1[ncols + i] = 1
    phase1 = tab.add_objective(cost1)
    cost2 = [0] * width
    cost2[eps_col] = 1
    phase2 = tab.add_objective(cost2)

    # Artificial columns never re-enter; dropping them once nonbasic is the
    # classic safe reduction for the feasibility decision.
    tab.minimize(phase1, range(ncols))
    if tab.value(phase1) > 0:
        return None  # even the weak closure is empty

    # Drive leftover artificials out of the basis (or drop redundant rows).
    for i in range(m - 1, -1, -1):
        if tab.basis[i] >= ncols:
            col = next((j for j in range(ncols) if tab.rows[i][j] != 0), None)
            if col is None:
                del tab.rows[i]
                del tab.basis[i]
                continue
            if tab.rows[i][col] < 0:  # equality row: negation is legal
                tab.rows[i] = [-v for v in tab.rows[i]]
            tab.pivot(i, col)

    tab.minimize(phase2, range(ncols))
    if tab.value(phase2) >= 1:  # optimum eps' >= 1, i.e. eps <= 0
        return None
    solution = [Fraction(0)] * ncols
    for i, b in enumerate(tab.basis):
        solution[b] = Fraction(tab.rows[i][-1], tab.den)
    return tuple(solution[j] - solution[dim + j] for j in range(dim))


def _feasible_system(
    strict: list[tuple[int, ...]],
    weak: list[tuple[int, ...]],
    dim: int,
) -> Optional[Vector]:
    """Dispatch between elimination and simplex; filter constant rows first."""
    strict_live, weak_live = [], []
    for row in strict:
        if any(row[:dim]):
            strict_live.append(row)
        elif row[dim] >= 0:
            return None  # 0 > rhs with rhs >= 0
    for row in weak:
        if any(row[:dim]):
            weak_live.append(row)
        elif row[dim] > 0:
            return None
    if dim == 0 or not (strict_live or weak_live):
        return tuple(Fraction(0) for _ in range(dim))
    if dim <= FM_MAX_DIM:
        return _fm_witness(strict_live, weak_live, dim)
    return _simplex_witness(strict_live, weak_live, dim)


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

    y = _feasible_system(rows, [], d)
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
    t_col: dict[int, int] = {}  # row index -> tableau column of its t_i
    for i, lhs in enumerate(rows):
        if tuple(-c for c in lhs) in seen:
            implicit = _reduce(implicit, lhs + (0,)) or implicit
        else:
            t_col[i] = 2 * dim + len(t_col)
    if not t_col:
        return dim - len(implicit)

    # Columns: u, w (d = u - w), t, s (one per row), q (one per t), rhs.
    # Rows: -r_i.(u - w) + t_i + s_i = 0 and t_i + q_i = 1.  The origin is
    # feasible, so the s and q columns form the starting basis: no phase 1.
    m, k = len(rows), len(t_col)
    s_col = 2 * dim + k
    q_col = s_col + m
    width = q_col + k + 1
    tab_rows = []
    for i, lhs in enumerate(rows):
        line = [0] * width
        for j, c in enumerate(lhs):
            line[j], line[dim + j] = -c, c
        if i in t_col:
            line[t_col[i]] = 1
        line[s_col + i] = 1
        tab_rows.append(line)
    for j, c in enumerate(t_col.values()):
        line = [0] * width
        line[c] = line[q_col + j] = line[-1] = 1
        tab_rows.append(line)
    tab = _IntTableau(tab_rows, list(range(s_col, width - 1)))
    cost = [0] * width
    for c in t_col.values():
        cost[c] = -1
    tab.minimize(tab.add_objective(cost), range(width - 1))

    value = {b: row[-1] for b, row in zip(tab.basis, tab.rows)}
    for i, c in t_col.items():
        t = value.get(c, 0)
        if t == 0:
            implicit = _reduce(implicit, rows[i] + (0,)) or implicit
        elif t != tab.den:
            raise ArithmeticError("cone-span LP optimum is not 0/1 in t")
    return dim - len(implicit)
