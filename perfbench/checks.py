"""Exact checks of the program's answers, in the benchmark's own arithmetic.

Nothing here calls the package.  Characteristic polynomials are expanded into
the binomial bases by finite differences (the program back-substitutes), and
witnesses are checked by substituting them into every sign constraint, so a
witness may move between versions as long as it stays inside its region.

Each check returns a list of problems; an empty list means the answer holds.
``ref_chi`` is the characteristic polynomial the answer must agree with:
recorded at the commit that defined the benchmark, or, for a seed without a
recording, computed by the program's ``chi`` command before timing starts.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from workloads import Case


def _frac(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def evaluate(coeffs: Sequence[int], t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def basis_coefficients(coeffs: Sequence[int], shifted: bool) -> list[Fraction]:
    """c_k with chi(t) = sum_k c_k C(t, k), or C((t-1)/2, k) when ``shifted``.

    c_k is the k-th forward difference at 0 of t -> chi(t), respectively of
    s -> chi(2s + 1).
    """
    n = len(coeffs) - 1
    values = [evaluate(coeffs, 2 * j + 1 if shifted else j) for j in range(n + 1)]
    return [
        sum((-1) ** (k - j) * comb(k, j) * values[j] for j in range(k + 1))
        for k in range(n + 1)
    ]


def m_catalan_chi(n: int, m: int) -> list[int]:
    """t (t - mn - 1)(t - mn - 2) ... (t - mn - n + 1), ascending coefficients."""
    poly = [0, 1]
    for j in range(1, n):
        root = m * n + j
        poly = [(poly[i - 1] if i else 0) - root * (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + 1)]
    return poly


def region_digest(regions: Sequence[dict]) -> str:
    """SHA-256 of the sorted (sign vector, level) list; witnesses left out."""
    lines = sorted(f"{r['signs']} {r['level']}" for r in regions)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _planes(case: Case) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    return [
        (tuple(Fraction(c) for c in h["normal"]), _frac(h["offset"]))
        for h in case.doc["hyperplanes"]
    ]


def _chi_problems(case: Case, chi: Sequence[int], ref_chi) -> list[str]:
    n = case.doc["ambient_dim"]
    problems = []
    if len(chi) != n + 1 or chi[-1] != 1:
        return [f"chi {chi} is not monic of degree {n}"]
    # Whitney: the coefficients of chi alternate in sign.
    if any((-1) ** (n - k) * c < 0 for k, c in enumerate(chi)):
        problems.append(f"chi {chi} does not alternate in sign")
    if ref_chi is not None and list(chi) != list(ref_chi):
        problems.append(f"chi {chi} differs from the reference {ref_chi}")
    if case.family == "m_catalan" and list(chi) != m_catalan_chi(*case.m_catalan):
        problems.append(f"chi {chi} differs from the m-Catalan closed form")
    if case.family in ("typeA", "typeB"):
        # (-1)^(n-k) c_k counts the regions of level k: a whole number >= 0.
        coeffs = basis_coefficients(chi, shifted=case.family == "typeB")
        if any(c.denominator != 1 or (-1) ** (n - k) * c < 0 for k, c in enumerate(coeffs)):
            problems.append(f"the level expansion {[str(c) for c in coeffs]} of chi is not a signed count")
    return problems


def _expansion_problems(case: Case, chi, counts: Sequence[int]) -> list[str]:
    """Level expansion c_k = (-1)^(n-k) r_k of a type A or type B deformation."""
    if case.family not in ("typeA", "typeB"):
        return []
    n = case.doc["ambient_dim"]
    coeffs = basis_coefficients(chi, shifted=case.family == "typeB")
    if coeffs != [(-1) ** (n - k) * r for k, r in enumerate(counts)]:
        return [f"level counts {list(counts)} do not match the expansion {[str(c) for c in coeffs]} of chi"]
    return []


def _zaslavsky_problems(case: Case, chi, total: int) -> list[str]:
    n = case.doc["ambient_dim"]
    expected = (-1) ** n * evaluate(chi, -1)
    if total != expected:
        return [f"{total} regions, Zaslavsky's (-1)^n chi(-1) gives {expected}"]
    return []


def check_levels(case: Case, payload: dict, ref_chi, expected: Optional[dict]) -> list[str]:
    n = case.doc["ambient_dim"]
    planes = _planes(case)
    regions = payload["regions"]
    counts = payload["counts"]
    problems = []
    if len(counts) != n + 1 or payload["total"] != len(regions) or sum(counts) != len(regions):
        return [f"counts {counts} and total {payload['total']} disagree with {len(regions)} regions"]
    tally = [0] * (n + 1)
    previous = None
    for region in regions:
        signs, level = region["signs"], region["level"]
        if len(signs) != len(planes) or set(signs) - {"+", "-"}:
            return [f"malformed sign vector {signs!r}"]
        if not 0 <= level <= n:
            return [f"level {level} out of range for {signs}"]
        tally[level] += 1
        # The listing is sorted with + before -, which ASCII order gives.
        if previous is not None and signs <= previous:
            problems.append(f"regions not strictly sorted at {signs}")
        previous = signs
        witness = [_frac(x) for x in region["witness"]]
        if len(witness) != n:
            return [f"witness of {signs} has {len(witness)} coordinates"]
        for (normal, offset), s in zip(planes, signs):
            value = sum(a * x for a, x in zip(normal, witness)) - offset
            if (value > 0) != (s == "+") or value == 0:
                problems.append(f"witness of {signs} is not strictly inside its region")
                break
    if tally != counts:
        problems.append(f"counts {counts} differ from the listed levels {tally}")
    if ref_chi is not None:
        problems += _zaslavsky_problems(case, ref_chi, len(regions))
        problems += _expansion_problems(case, ref_chi, counts)
    if expected is not None:
        if counts != expected["counts"]:
            problems.append(f"counts {counts} differ from the recorded {expected['counts']}")
        if region_digest(regions) != expected["digest"]:
            problems.append("sorted (sign vector, level) list differs from the recording")
    return problems


def check_verify_expansion(case: Case, payload: dict, ref_chi, expected: Optional[dict]) -> list[str]:
    n = case.doc["ambient_dim"]
    chi = payload["chi"]
    problems = _chi_problems(case, chi, ref_chi)
    if problems:
        return problems
    rows = payload["rows"]
    if [r["level"] for r in rows] != list(range(n + 1)):
        return [f"rows cover levels {[r['level'] for r in rows]}"]
    coeffs = basis_coefficients(chi, shifted=case.family == "typeB")
    counts = [r["region_count"] for r in rows]
    for k, row in enumerate(rows):
        signed = (-1) ** (n - k) * row["region_count"]
        if row["signed_count"] != signed or _frac(row["coefficient"]) != coeffs[k]:
            problems.append(f"row of level {k} disagrees with chi and its region count")
        if not row["ok"]:
            problems.append(f"row of level {k} reports a mismatch")
    problems += _zaslavsky_problems(case, chi, sum(counts))
    problems += _expansion_problems(case, chi, counts)
    if payload["pass"] is not True:
        problems.append("verify did not pass")
    if expected is not None and counts != expected["counts"]:
        problems.append(f"level counts {counts} differ from the recorded {expected['counts']}")
    return problems


def check_chi(case: Case, payload: dict, ref_chi, expected: Optional[dict]) -> list[str]:
    chi = payload["coefficients"]
    problems = _chi_problems(case, chi, ref_chi)
    if not problems:
        coeffs = basis_coefficients(chi, shifted=False)
        if [_frac(c) for c in payload["basis_coefficients"]] != coeffs:
            problems.append("binomial-basis coefficients disagree with chi")
    return problems


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % f for f in range(2, int(q**0.5) + 1))


def check_ff(case: Case, payload: dict, ref_chi, expected: Optional[dict]) -> list[str]:
    n = case.doc["ambient_dim"]
    requested = int(case.argv[case.argv.index("--primes") + 1])
    rows = payload["rows"]
    problems = []
    qs = [r["q"] for r in rows]
    if not qs or qs != sorted(set(qs)) or not all(map(_is_prime, qs)):
        return [f"scanned primes {qs} are not increasing primes"]
    for row in rows:
        if row["ok"] != (row["count"] == row["chi"]) or not 0 <= row["count"] <= row["q"] ** n:
            problems.append(f"row q={row['q']} is inconsistent")
        if ref_chi is not None and row["chi"] != evaluate(ref_chi, row["q"]):
            problems.append(f"chi({row['q']}) = {row['chi']} differs from the reference")
    if len(rows) < requested or not all(r["ok"] for r in rows[-requested:]):
        problems.append(f"the last {requested} primes do not all agree")
    if payload["pass"] is not True or payload["complete"] is not True:
        problems.append("finite-field check did not pass")
    if expected is not None:
        got = [[r["q"], r["count"], r["chi"]] for r in rows]
        if got != expected["rows"]:
            problems.append("finite-field rows differ from the recording")
    return problems


def check_deletion_restriction(case: Case, payload: dict, ref_chi, expected: Optional[dict]) -> list[str]:
    m = len(case.doc["hyperplanes"])
    rows = payload["rows"]
    problems = []
    if [r["hyperplane"] for r in rows] != [f"H{i + 1}" for i in range(m)]:
        return ["deletion-restriction rows do not cover every hyperplane once"]
    statuses = [r["ok"] for r in rows]
    if not all(statuses) or payload["pass"] is not True:
        problems.append("a deletion-restriction row failed")
    if expected is not None and statuses != expected["statuses"]:
        problems.append("deletion-restriction statuses differ from the recording")
    return problems


def checker(case: Case):
    command = case.argv[0]
    if command == "levels":
        return check_levels
    if command == "chi":
        return check_chi
    theorem = next(a.split("=", 1)[1] for a in case.argv if a.startswith("--theorem="))
    return {
        "A": check_verify_expansion,
        "B": check_verify_expansion,
        "ff": check_ff,
        "deletion-restriction": check_deletion_restriction,
    }[theorem]


def record(case: Case, payload: dict) -> dict:
    """The facts about one answer that later versions must reproduce exactly."""
    command = case.argv[0]
    if command == "levels":
        return {"counts": payload["counts"], "digest": region_digest(payload["regions"])}
    if command == "chi":
        return {}
    if "--theorem=ff" in case.argv:
        return {"rows": [[r["q"], r["count"], r["chi"]] for r in payload["rows"]]}
    if "--theorem=deletion-restriction" in case.argv:
        return {"statuses": [r["ok"] for r in payload["rows"]]}
    return {"counts": [r["region_count"] for r in payload["rows"]]}
