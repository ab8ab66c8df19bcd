"""Acceptance suite: one test per criterion, exact assertions throughout.

Every check here is integer/rational equality; there are no tolerances to
tune.  Each test prints a single PASS line (visible under ``pytest -s`` or
``-v`` with the summary) so the suite doubles as a checklist.  Two more tests
guard the documented library surface: the package's public names and the
README's example block.
"""

import ast
import random
from pathlib import Path

import pytest

import levelarr
from levelarr.arrangement import (
    Arrangement,
    Kind,
    delete,
    is_nondegenerate,
    make_cox_a,
    make_cox_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
    restrict,
)
from levelarr.document import document_of, dumps_document
from levelarr.expansion import (
    verify_type_a_expansion,
    verify_type_b_expansion,
    zaslavsky_check,
)
from levelarr.ffcount import ff_oracle_check
from levelarr.poset import char_poly
from levelarr.regions import (
    enumerate_regions,
    level_profile,
)

from conftest import padded as _padded, poly_from_roots

SIGN_ENUM_MAX_HYPERPLANES = 12
FF_AGREEMENTS_REQUIRED = 2


def _report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


# ---------------------------------------------------------------------------
# Shared cohorts (seeded, deterministic)
# ---------------------------------------------------------------------------


def _type_a_cohort() -> list[Arrangement]:
    """50 seeded non-degenerate type A deformations, n in {2, 3, 4}.

    Offsets are rationals in [-3, 3] with denominator at most 2; at most 3
    hyperplanes per direction (at most 2 when n = 4, still within the bound).
    """
    cohort = []
    for i in range(50):
        n = [2, 3, 4][i % 3]
        rng = random.Random(1001 + i)
        cohort.append(
            random_deformation_a(n, rng, max_per_direction=3 if n <= 3 else 2)
        )
    return cohort


def _type_b_cohort() -> list[Arrangement]:
    """30 seeded non-degenerate type B deformations, n in {1, 2, 3}."""
    cohort = []
    for i in range(30):
        n = [1, 2, 3][i % 3]
        rng = random.Random(2001 + i)
        cohort.append(random_deformation_b(n, rng, max_per_direction=2))
    return cohort


@pytest.fixture(scope="module")
def type_a_cohort():
    return _type_a_cohort()


@pytest.fixture(scope="module")
def type_b_cohort():
    return _type_b_cohort()


@pytest.fixture(scope="module")
def all_criteria_arrangements(example_a, example_b, grid_example, type_a_cohort, type_b_cohort):
    """Every arrangement appearing in criteria 1 through 6."""
    collection = [
        ("example_a", example_a),
        ("example_b", example_b),
        ("grid_example", grid_example),
    ]
    collection += [(f"cox_a_{n}", make_cox_a(n)) for n in range(2, 6)]
    collection += [(f"cox_b_{n}", make_cox_b(n)) for n in range(1, 5)]
    collection += [(f"type_a_{i}", arr) for i, arr in enumerate(type_a_cohort)]
    collection += [(f"type_b_{i}", arr) for i, arr in enumerate(type_b_cohort)]
    return collection


# ---------------------------------------------------------------------------
# Criteria 1-3: golden worked examples
# ---------------------------------------------------------------------------


def test_criterion_1_golden_example_a(example_a):
    report = verify_type_a_expansion(example_a)
    assert report.chi.coeffs == (0, 6, -5, 1)  # t^3 - 5t^2 + 6t
    assert tuple(r.region_count for r in report.rows) == (0, 2, 4, 6)  # (r_1, r_2, r_3) = (2, 4, 6)
    assert tuple(r.coefficient for r in report.rows) == (0, 2, -4, 6)  # (c_1, c_2, c_3) = (2, -4, 6)
    assert report.passed
    _report("1 (golden example A)")


def test_criterion_2_golden_example_b(example_b):
    report = verify_type_b_expansion(example_b)
    assert report.chi.coeffs == (5, -4, 1)  # t^2 - 4t + 5
    assert tuple(r.region_count for r in report.rows) == (2, 0, 8)  # (r_0, r_1, r_2) = (2, 0, 8)
    assert tuple(r.coefficient for r in report.rows) == (2, 0, 8)  # shifted-half coefficients
    assert report.passed
    _report("2 (golden example B)")


def test_criterion_3_golden_grid(grid_example):
    assert char_poly(grid_example).coeffs == (4, -4, 1)  # t^2 - 4t + 4
    assert level_profile(grid_example) == (1, 2, 6)
    z = zaslavsky_check(grid_example)
    assert z.chi_at_minus_one_signed == 9 == z.region_count
    _report("3 (golden 4-line example)")


# ---------------------------------------------------------------------------
# Criterion 4: Coxeter base cases
# ---------------------------------------------------------------------------


def test_criterion_4_coxeter_base_cases():
    for n in range(2, 6):
        arr = make_cox_a(n)
        assert char_poly(arr).coeffs == poly_from_roots(range(n))
        regions = enumerate_regions(arr)
        expected = 1
        for k in range(2, n + 1):
            expected *= k
        assert len(regions) == expected
        assert all(r.level == n for r in regions)
    for n in range(1, 5):
        arr = make_cox_b(n)
        assert char_poly(arr).coeffs == poly_from_roots(
            [2 * j - 1 for j in range(1, n + 1)]
        )
        regions = enumerate_regions(arr)
        expected = 2**n
        for k in range(2, n + 1):
            expected *= k
        assert len(regions) == expected
        assert all(r.level == n for r in regions)
    _report("4 (Coxeter base cases, n <= 5 / n <= 4)")


# ---------------------------------------------------------------------------
# Criteria 5-6: seeded property suites for the two expansions
# ---------------------------------------------------------------------------


def test_criterion_5_type_a_property_suite(type_a_cohort):
    assert len(type_a_cohort) == 50
    for arr in type_a_cohort:
        for h in arr.hyperplanes:
            assert abs(h.offset) <= 3 and h.offset.denominator <= 2
        report = verify_type_a_expansion(arr)
        assert report.passed  # exact integer equality per level
    _report("5 (50 random type A deformations, expansion exact)")


def test_criterion_6_type_b_property_suite(type_b_cohort):
    assert len(type_b_cohort) == 30
    for arr in type_b_cohort:
        report = verify_type_b_expansion(arr)
        assert report.passed
    _report("6 (30 random type B deformations, expansion exact)")


# ---------------------------------------------------------------------------
# Criterion 7: oracle triangulation over every arrangement above
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_triangulation(all_criteria_arrangements, feasible_sign_vectors):
    for name, arr in all_criteria_arrangements:
        width = arr.dim + 1
        chi = char_poly(arr)

        # (a) deletion-restriction for every distinguished hyperplane
        whole = _padded(chi, width)
        for h_index in range(len(arr)):
            deleted = _padded(char_poly(delete(arr, h_index)), width)
            restricted = _padded(char_poly(restrict(arr, h_index)), width)
            assert whole == tuple(d - r for d, r in zip(deleted, restricted)), (
                name,
                h_index,
            )

        # (b) finite-field counts: at least two admissible primes must agree
        # with chi(q).  The smallest admissible primes can collapse nearly
        # concurrent flats and disagree legitimately, so the oracle scans
        # past them; a wrong polynomial would never collect two consecutive
        # agreements.
        plan = ff_oracle_check(arr, FF_AGREEMENTS_REQUIRED)
        assert plan.agree, (name, plan)
        agreeing = sum(1 for _, c, v in plan.rows() if c == v)
        assert agreeing >= FF_AGREEMENTS_REQUIRED, name

        # (c) exhaustive sign-vector enumeration reproduces the region set
        if len(arr) <= SIGN_ENUM_MAX_HYPERPLANES:
            incremental = tuple(r.sign_vector for r in enumerate_regions(arr))
            assert incremental == feasible_sign_vectors(arr), name
    _report("7 (deletion-restriction, finite fields, exhaustive sign vectors)")


# ---------------------------------------------------------------------------
# Criterion 8: m-Catalan closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
def test_criterion_8_m_catalan_formula(n, m, mcatalan_level_count):
    profile = level_profile(make_m_catalan(n, m))
    assert profile[0] == 0
    for k in range(1, n + 1):
        assert profile[k] == mcatalan_level_count(n, m, k)
    _report(f"8 (m-Catalan level counts, n={n} m={m})")


# ---------------------------------------------------------------------------
# Criterion 9: restriction closure
# ---------------------------------------------------------------------------


def test_criterion_9_restriction_closure():
    for i in range(20):
        n = 3 if i % 2 == 0 else 4
        arr = random_deformation_a(n, random.Random(3001 + i), max_per_direction=2)
        for h_index in range(len(arr)):
            res = restrict(arr, h_index)
            assert res.dim == n - 1
            assert is_nondegenerate(res, Kind.TYPE_A).ok
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        arr = random_deformation_b(n, random.Random(4001 + i), max_per_direction=2)
        for h_index in range(len(arr)):
            res = restrict(arr, h_index)
            assert res.dim == n - 1
            assert is_nondegenerate(res, Kind.TYPE_B).ok
    _report("9 (restriction closure, 20 type A + 20 type B)")


# ---------------------------------------------------------------------------
# Criterion 10: CLI contract
# ---------------------------------------------------------------------------


def test_criterion_10_cli_contract(example_a, tmp_path, capsys, monkeypatch):
    from levelarr.cli import main

    doc = tmp_path / "example_a.json"
    doc.write_text(dumps_document(document_of(example_a)))

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    # byte-stable outputs across two runs
    for argv in (
        ("chi", str(doc), "--basis=binomial"),
        ("levels", str(doc)),
        ("verify", str(doc), "--theorem=A"),
    ):
        code1, out1, _ = run(*argv)
        code2, out2, _ = run(*argv)
        assert code1 == code2 == 0
        assert out1 == out2

    svg1, svg2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
    assert run("render", str(doc), "--output", str(svg1))[0] == 0
    assert run("render", str(doc), "--output", str(svg2))[0] == 0
    assert svg1.read_bytes() == svg2.read_bytes()

    # exit-status semantics: 0 pass, 1 failing verification row, 2 input
    # error, 3 hypothesis violation
    assert run("verify", str(doc), "--theorem=A")[0] == 0

    broken = tmp_path / "degenerate.json"
    broken.write_text(dumps_document(document_of(delete(delete(example_a, 1), 0))))
    code, _, err = run("verify", str(broken), "--theorem=A")
    assert code == 3
    assert "missing direction" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("chi", str(bad))[0] == 2

    # a failing report row must map to exit status 1 (no valid arrangement
    # violates the theorem, so the failure is injected)
    import levelarr.cli as cli_module

    real = cli_module.verify_type_a_expansion

    def broken_verify(arr):
        report = real(arr)
        rows = tuple(
            type(r)(r.level, r.coefficient + 1, r.signed_count, r.region_count)
            for r in report.rows
        )
        return type(report)(report.chi, rows)

    monkeypatch.setattr(cli_module, "verify_type_a_expansion", broken_verify)
    code, out, _ = run("verify", str(doc), "--theorem=A")
    assert code == 1
    assert "FAIL" in out
    _report("10 (CLI contract: byte stability and exit semantics)")


# ---------------------------------------------------------------------------
# Library surface
# ---------------------------------------------------------------------------


def test_public_names_are_pinned():
    # A new re-export must be a deliberate edit of this list: the package
    # root carries the names of the README's library example, nothing more.
    assert sorted(levelarr.__all__) == [
        "char_poly", "ff_oracle_check", "level_profile", "make_deformation_a",
        "verify_type_a_expansion", "zaslavsky_check",
    ]
    for name in levelarr.__all__:
        assert callable(getattr(levelarr, name))


def test_readme_library_surface():
    # Run the README's "Library surface" block statement by statement and
    # check the value that each commented expression documents.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library surface", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    documented = []  # (value, comment) per expression statement
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            documented.append((value, lines[stmt.lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    (coeffs, c1), (counts, c2), (passed, c3), (zaslavsky, _), (plan, _) = documented
    assert coeffs == (0, 6, -5, 1) and c1.startswith("(0, 6, -5, 1)")
    assert counts == (0, 2, 4, 6) and c2.startswith("(0, 2, 4, 6)")
    assert passed is True and c3.startswith("True")
    assert zaslavsky.ok and zaslavsky.region_count == sum(counts)
    assert plan.agree
