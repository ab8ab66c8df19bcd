"""Intersection poset walk, Möbius function and the characteristic polynomial.

Flats (nonempty intersections of hyperplanes) are found by breadth-first
search over codimension levels, which avoids enumerating 2^m subsets.  At
each flat, the hyperplanes that do not contain it are grouped by residual
(the row reduced against the flat's equations); each group is one child, and
its containing set is known without further elimination.  A child inherits
its parent's groups and eliminates one pivot column from each; a flat of
top rank has no children and inherits nothing: its parent checks its groups
once for all of them.

A deformation has few normal directions and many offsets, so a residual
(a, b) is held as (id of nu, k, b) with a = k * nu, nu primitive and
interned as a small int per walk.  An elimination step then splits into a
normal half that depends on the two normals alone, memoized once per pair,
and an offset half: two integer products and one two-argument gcd.

A flat is the intersection of the hyperplanes that contain it, so it is
keyed by its containing set alone, an int mask over hyperplane indices, and
each codimension level is ordered by ascending mask.  Möbius values are read
off the covers the search finds by Weisner's theorem, and a flat visits only
the children whose Möbius sum it enters: one that contains hyperplane 0
visits none.  χ needs only the sum of μ per dimension, so no flat is stored
and no top-rank point is named: the top coefficient is a count of covers.
A flat one codimension below top rank steps only the residuals of the
hyperplanes below its lowest one, which reach exactly the points whose
Möbius sum it enters; every residual and key that χ reads is checked.  A
point's group there may lack some of its hyperplanes, so a reader that
needs μ per point names each point by its own canonical equations, as the
tests do (``tests/conftest.py``, ``build_poset``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union

from .arrangement import Arrangement
from .exactmath import IntRow, _rank, _step


def _walk(arr: Arrangement):
    """Every flat below top rank with its Möbius value, in one BFS.

    Yields ``(codim, mask, mu, groups)`` per flat, in codimension-major
    order and by ascending mask within each codimension, the ambient space
    (codim 0, mask 0, mu 1) first; with no hyperplane it yields nothing.
    ``mask`` has bit i set when hyperplane i contains the flat, and x <= y
    in the poset (reverse inclusion) exactly when ``x.mask & ~y.mask == 0``.
    ``groups`` is None except at a flat of codim top - 1 that does not hold
    hyperplane 0: there it holds one checked mask per top-rank point on the
    flat whose lowest hyperplane the flat misses.  The mask holds every
    hyperplane through that point below the flat's lowest, and may hold
    others through it, so its lowest bit is the point's lowest hyperplane
    but the mask need not be the point's whole containing set.

    BFS over codimension levels.  A flat Y groups the hyperplanes H outside
    cont(Y) by their residual: the unique primitive row in H + rowspace(Y)
    that is 0 on Y's pivot columns.  H' contains Y ∩ H exactly when its
    residual equals H's, so each group is one child Z, keyed by its mask
    cont(Z) = cont(Y) plus the group.  A zero normal is an empty
    intersection; that group is dropped, as it stays parallel to every flat
    below Y.  The root's groups are the hyperplanes' own rows.

    Z inherits the groups and residual r of the first parent Y that finds
    it, and one elimination step in r's pivot column takes each residual at
    Y to its residual at Z: the result is 0 on Z's pivots and lies in H +
    rowspace(Z), so any parent gives the same.  Groups with equal results
    merge; a zero residual outside cont(Z) is an elimination fault.

    A residual row (k * nu, b), its normal part k times a primitive nu whose
    first nonzero entry is positive, is keyed (id of nu, k, b), nu interned
    per walk; the key is canonical, as the row is.  The step
    g * r[p] - r * g[p] splits in two.  Its normal half, with g = kg * nu_g
    and r = kr * nu_r, is kg * kr * (nu_g * nu_r[p] - nu_r * nu_g[p]): the
    bracket is sd * nu, ``_step`` of the two normals, so it runs once per
    pair of normal ids and walk.  Its offset half b is two products, and the
    content of the row is gcd(kg * kr * sd, b).

    A top-rank flat, whose codim is the rank of the normals (one ``_rank``
    per walk), has no children, so it is never queued.  Its parent Y, of
    codim top - 1, steps only the inherited groups that hold a hyperplane
    below Y's lowest (the root, when top is 1, keeps the hyperplanes' own
    rows as its groups): a point is reached through one of them exactly
    when its lowest hyperplane is not in Y, and those are the points whose
    Möbius sum Y enters.  Y then checks the groups it stepped: their
    residuals lie in a one-dimensional space, so every key must have the
    same normal id, and a canonical key (k > 0, gcd(k, b) = 1) then names
    one point, so no point is counted twice.  Anything else raises
    ``ArithmeticError``.  No group may be left: with y = 0, y = 1 and x = 0
    in that order, the only hyperplane below the line y = 1 is y = 0, which
    misses it, so y = 1 has no point to report.

    Möbius values come from the covers the BFS finds, by Weisner's theorem
    (Stanley, *Enumerative Combinatorics* I, §3.9).  The interval below Z is
    the lattice of Z's localization (Orlik & Terao 1992, ch. 2), which is
    geometric, so for its atom H, Z's lowest hyperplane, mu(Z) = -sum mu(Y)
    over the coatoms Y that H does not contain, and only those visit Z: a
    parent with mask m skips a child z if ``m & z & -z``.  A flat that holds
    hyperplane 0 thus stops once listed.  No flat is lost: a basis of Z's
    atoms through H, less H, joins to a coatom that misses H.  A visiting
    parent reaches Z once, through one group, and checks Z if it is of top
    rank; the codimension-major BFS settles mu(Y) before it pops Z, and the
    ambient space has mu = 1.
    """
    ids: dict[IntRow, int] = {}  # primitive normal -> its id in this walk
    normal_of: list[IntRow] = []  # id -> primitive normal
    pivot_of: list[int] = []  # id -> index of the normal's first nonzero entry

    def intern(normal: IntRow) -> int:
        i = ids.get(normal)
        if i is None:
            i = ids[normal] = len(normal_of)
            normal_of.append(normal)
            for j, c in enumerate(normal):
                if c:
                    pivot_of.append(j)
                    break
        return i

    roots = {}  # h.row as (id of h.normal, k, b) with h.row = (k * h.normal, b)
    for idx, h in enumerate(arr.hyperplanes):
        i = intern(h.normal)
        p = pivot_of[i]
        roots[i, h.row[p] // h.normal[p], h.row[-1]] = 1 << idx
    top = _rank(h.normal for h in arr.hyperplanes)  # the largest codim of a flat

    # The memoized normal halves: id of r's normal -> {id of g's normal ->
    # (f, id of nu, sd)}: f is g's normal in r's pivot column (0: g is
    # carried unchanged), the rest comes from ``_step`` on the two normals,
    # and sd == 0 marks a zero normal.
    halves: dict[int, dict[int, tuple]] = {}
    # One entry per flat of the current codimension: (containing mask,
    # [Weisner sum, parent's groups, residual]), sorted by mask in descending
    # order and popped, so that the parent's groups are freed once the
    # children have taken them.  The ambient space's sum is -1, so its mu is 1.
    level: list[tuple] = [(0, [-1, roots, None])]
    for codim in range(top):
        children: dict[int, list] = {}  # containing mask -> [Weisner sum, groups, residual]
        while level:
            mask, (total, groups, r) = level.pop()
            mu = -total
            if mask & 1:
                yield codim, mask, mu, None
                continue  # no child whose Weisner sum it enters

            if r is not None:
                ir, kr, br = r
                rn, p = normal_of[ir], pivot_of[ir]
                rp = kr * rn[p]  # r's entry in its pivot column
                memo = halves.get(ir)
                if memo is None:
                    memo = halves[ir] = {}
                # Below codim top - 1 every group but r's own (the one in
                # ``mask``) is stepped, as the children are keyed by full
                # masks.  At codim top - 1 only those through a hyperplane
                # below the flat's lowest are: the Weisner covers.
                keep = ~mask if codim < top - 1 else (mask & -mask) - 1
                inherited, groups = groups, {}
                for g, gmask in inherited.items():
                    if not gmask & keep:
                        continue
                    ig, kg, bg = g
                    half = memo.get(ig)
                    if half is None:
                        f = normal_of[ig][p]
                        step = _step(normal_of[ig], rn, p) if f else None
                        half = memo[ig] = (f, intern(step[1]), step[0]) if step else (f, None, 0)
                    f, iv, sd = half
                    if f:
                        b = bg * rp - br * kg * f  # the offset half
                        if not sd:
                            if not b:
                                raise ArithmeticError(f"hyperplane {next(_bits(gmask))} contains a flat but is not in its containing set")
                            continue  # an empty intersection
                        # The row is (kg * kr * sd * nu, b): divide it by
                        # its content, signed to keep nu's leading sign.
                        s = kg * kr * sd
                        e = gcd(s, b)
                        if s < 0:
                            e = -e
                        g = (iv, s // e, b // e)
                    groups[g] = groups.get(g, 0) | gmask

            if codim == top - 1:
                # The residuals span one line: one normal id, and canonical
                # keys, so distinct groups are distinct top-rank points.
                # There may be none: no point on the flat has a hyperplane
                # below the flat's lowest.
                iv = next(iter(groups))[0] if groups else None
                for (ig, kg, bg), gmask in groups.items():
                    if ig != iv or kg < 1 or gcd(kg, bg) != 1:
                        raise ArithmeticError(f"hyperplane {next(_bits(gmask))} contains a flat but is not in its containing set")
                yield codim, mask, mu, groups.values()
                continue
            yield codim, mask, mu, None
            for residual, group in groups.items():
                z = mask | group
                if mask & z & -z:
                    continue  # this flat holds the child's lowest hyperplane
                child = children.get(z)
                if child is None:
                    children[z] = [mu, groups, residual]
                else:
                    child[0] += mu
        level = sorted(children.items(), reverse=True)


def _bits(x: int):
    """Indices of the set bits of a nonnegative integer, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


class CharPoly(NamedTuple):
    """Characteristic polynomial with integer coefficients, ascending order.

    ``coeffs[k]`` is the coefficient of t^k; the length is ambient dimension
    plus one and the polynomial is monic of that degree.
    """

    coeffs: tuple[int, ...]

    def evaluate(self, t: Union[int, Fraction]):
        acc: Union[int, Fraction] = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        def body(k: int, mag: int) -> str:
            if k == 0:
                return str(mag)
            var = "t" if k == 1 else f"t^{k}"
            return var if mag == 1 else f"{mag}{var}"

        return _signed_sum((c, body(k, abs(c))) for k, c in reversed(tuple(enumerate(self.coeffs))))


def _signed_sum(terms) -> str:
    """Join ``(coefficient, unsigned body)`` pairs into ``a - b + c``.

    Zero coefficients are skipped, the first term carries a bare ``-`` when
    negative, and an empty sum is ``"0"``.
    """
    out = []
    for c, body in terms:
        if c:
            sign = ("+ " if c > 0 else "- ") if out else ("" if c > 0 else "-")
            out.append(sign + body)
    return " ".join(out) or "0"


def char_poly(arr: Arrangement) -> CharPoly:
    """Exact characteristic polynomial: mu summed per dimension over ``_walk``.

    No top-rank point p is named.  By Weisner's theorem (Stanley,
    *Enumerative Combinatorics* I, §3.9) mu(p) = -sum mu(Y) over the flats Y
    of codim top - 1 through p that miss p's lowest hyperplane.  Y misses it
    exactly when p has a hyperplane below Y's lowest, and the walk steps
    only those residuals at Y and yields one checked group per such p.  So
    the coefficient of t^(n - top) is -sum mu(Y) times Y's count of groups;
    a reader that needs mu(p) itself names p as the tests do.
    """
    n = arr.dim
    coeffs = [0] * (n + 1)
    codim, total = -1, 0  # with no hyperplane the walk yields nothing
    for codim, mask, mu, groups in _walk(arr):
        coeffs[n - codim] += mu
        if groups is not None:
            total += mu * len(groups)
    top = codim + 1  # the last flat walked is of codim top - 1
    coeffs[n - top] = -total if top else 1  # no hyperplane: chi = t^n
    return CharPoly(tuple(coeffs))
