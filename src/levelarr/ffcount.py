"""Finite-field point counting: an oracle for the characteristic polynomial.

For an integer arrangement and a large enough prime q, the number of points
of F_q^n lying on none of the hyperplanes equals chi(q).  Counting is done
one fibre over x_n at a time: above each prefix (x_1..x_{n-1}), vectorized
with exact int32 residue tables, every row either forbids one value of x_n or
keeps or kills the whole fibre.  The count shares no code with the poset
machinery and serves as an independent cross-check.  "Large enough" is
implemented conservatively: q must exceed twice the largest absolute value
among the integerized coefficients, and agreement is demanded across several
primes.
"""

from __future__ import annotations

from typing import NamedTuple

from .arrangement import Arrangement
from .poset import char_poly

POINT_LIMIT = 10**7
_CHUNK = 1 << 16


def coefficient_bound(arr: Arrangement) -> int:
    """Largest absolute value among integerized coefficients and offsets."""
    return max((abs(c) for h in arr for c in h.row), default=0)


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def admissible_primes(arr: Arrangement, count: int) -> list[int]:
    """Smallest primes q with q > 2 * coefficient bound and q^n within the guard.

    Each candidate meets the guard before its primality test, so a bound
    whose successors all lie past the guard costs no trial division.
    """
    out = []
    q = max(2, 2 * coefficient_bound(arr) + 1)
    while len(out) < count and q**arr.dim <= POINT_LIMIT:
        if is_prime(q):
            out.append(q)
        q += 1
    return out


def count_complement_points(arr: Arrangement, q: int) -> int:
    """|{x in F_q^n : a_i . x != b_i (mod q) for all i}|, one fibre over x_n at a time.

    Above a prefix x' = (x_1..x_{n-1}), a row with a_n != 0 (mod q) forbids
    exactly one x_n, namely (b - a'.x') / a_n, and a row with a_n = 0 keeps or
    kills the whole fibre.  A live prefix therefore has q minus the number of
    distinct forbidden values as points above it, and the work is q^(n-1)
    times the number of rows instead of q^n times it.

    Each row needs b - a'.x' (mod q): a wall (a_n = 0) kills the fibre where
    it is 0, and a cut, scaled to a_n = 1, forbids that x_n.  Starting from b,
    a chunk of prefixes gathers T_j[x_j] = -a_j * x_j mod q from one int32
    table per coordinate, walls and cuts side by side, and one ``% q`` ends
    it; every sum stays below n * q < 2^31 under the guard.

    Guarded to q^n <= 10^7; beyond that the characteristic polynomial is the
    right tool, not enumeration.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    n = arr.dim
    total = q**n
    if total > POINT_LIMIT:
        raise ValueError(
            f"q^n = {total} exceeds the enumeration guard ({POINT_LIMIT}); "
            "evaluate char_poly at q instead"
        )
    if n == 0:
        return 1  # a single point, and R^0 holds no hyperplane
    import numpy as np  # here, so that commands that count no points never load it

    rows = np.array([[c % q for c in h.row] for h in arr], dtype=np.int64).reshape(-1, n + 1)
    lead = rows[:, n - 1]
    inverses = np.array([pow(int(a), -1, q) for a in lead if a], dtype=np.int64)
    cuts = rows[lead != 0] * inverses[:, None] % q  # a_n = 1: forbids x_n = b - a'.x'
    sides = np.concatenate([rows[lead == 0], cuts]).astype(np.int32)  # walls, then cuts
    walls = len(sides) - len(cuts)
    tables = [(np.outer(np.arange(q), -sides[:, j]) % q).astype(np.int32) for j in range(n - 1)]

    count = 0
    prefixes = q ** (n - 1)
    step = max(1, _CHUNK // max(1, len(cuts)))
    for start in range(0, prefixes, step):
        idx = np.arange(start, min(start + step, prefixes), dtype=np.int32)
        vals = np.repeat(sides[None, :, n], len(idx), axis=0)
        for table in tables:
            vals += np.take(table, idx % q, axis=0)
            idx //= q
        vals %= q
        live = vals[:, :walls].all(axis=1)
        forbidden = vals[:, walls:]
        forbidden.sort(axis=1)
        distinct = (forbidden[:, 1:] != forbidden[:, :-1]).sum(axis=1) + (len(cuts) > 0)
        count += int((q - distinct)[live].sum())
    return count


class PrimePlan(NamedTuple):
    """Point counts across scanned primes compared against chi evaluations.

    ``primes`` lists every admissible prime that was counted, in increasing
    order; the plan passes when the final ``requested`` rows all agree.
    """

    primes: tuple[int, ...]
    counts: tuple[int, ...]
    chi_values: tuple[int, ...]
    requested: int

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.primes, self.counts, self.chi_values))

    @property
    def complete(self) -> bool:
        return len(self.primes) >= self.requested

    @property
    def agree(self) -> bool:
        if not self.complete:
            return False
        tail = zip(self.counts[-self.requested :], self.chi_values[-self.requested :])
        return all(c == v for c, v in tail)


# Extra primes the scan may consume past the requested count before giving
# up.  Primes barely above the coefficient bound can merge nearly concurrent
# flats of the rational arrangement (the counts then legitimately differ from
# chi), so the oracle is self-checking: it walks onward until the requested
# number of consecutive primes confirm chi.  A wrong polynomial can never
# terminate the scan, since it agrees with the true count polynomial in at
# most deg(chi) points.
_SCAN_SLACK = 10


def ff_oracle_check(arr: Arrangement, num_primes: int = 2) -> PrimePlan:
    """Count complement points over admissible primes and compare to chi.

    Scans the smallest admissible primes (above twice the coefficient bound,
    within the enumeration guard) until ``num_primes`` consecutive primes
    agree with chi; disagreeing small primes stay in the plan as a visible
    diagnostic.  The plan comes back incomplete when the guard leaves too few
    primes to decide.
    """
    if num_primes < 1:
        raise ValueError("need at least one prime")
    candidates = admissible_primes(arr, num_primes + _SCAN_SLACK)
    chi = char_poly(arr) if candidates else None  # no poset for a check that counts nothing
    primes: list[int] = []
    counts: list[int] = []
    values: list[int] = []
    streak = 0
    for q in candidates:
        count = count_complement_points(arr, q)
        value = int(chi.evaluate(q))
        primes.append(q)
        counts.append(count)
        values.append(value)
        streak = streak + 1 if count == value else 0
        if streak == num_primes:
            break
    return PrimePlan(tuple(primes), tuple(counts), tuple(values), num_primes)
