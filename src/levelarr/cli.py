"""Command-line front end.

Subcommands: ``chi``, ``levels``, ``verify``, ``generate``, ``render``.

Exit statuses: 0 all checks pass, 1 verification failure, 2 input error,
3 theorem hypothesis violation (degenerate deformation).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .arrangement import (
    DegenerateDeformationError,
    delete,
    make_catalan_type,
    make_cox_a,
    make_cox_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
    restrict,
)
from .document import (
    DocumentError,
    ParsedDocument,
    document_of,
    dumps_document,
    loads_document,
    scalar_to_json,
)
from .expansion import (
    BasisKind,
    to_binomial_basis,
    verify_type_a_expansion,
    verify_type_b_expansion,
    zaslavsky_check,
)
from .ffcount import ff_oracle_check
from .poset import _signed_sum, char_poly
from .regions import enumerate_regions, level_profile
from .render import RenderUnsupportedError, render_svg

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_HYPOTHESIS = 3


def _read_document(path: str) -> ParsedDocument:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}") from None
    return loads_document(text)


def _write_output(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {output}: {exc}") from None


def format_expansion(coeffs: Sequence[int], basis: BasisKind) -> str:
    """Human form like ``6*C(t,3) - 4*C(t,2) + 2*C(t,1)``."""
    arg = "t" if basis == BasisKind.STANDARD else "(t-1)/2"
    return _signed_sum(
        (c, f"C({arg},{k})" if abs(c) == 1 else f"{abs(c)}*C({arg},{k})")
        for k, c in reversed(tuple(enumerate(coeffs)))
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_chi(args) -> int:
    parsed = _read_document(args.input)
    arr = parsed.arrangement
    chi = char_poly(arr)
    payload = {"coefficients": list(chi.coeffs), "text": str(chi)}
    lines = [str(chi)]
    if args.basis != "standard":
        kind = BasisKind.STANDARD if args.basis == "binomial" else BasisKind.SHIFTED_HALF
        expansion = to_binomial_basis(chi, kind)
        text = format_expansion(expansion.coeffs, kind)
        payload["basis"] = kind.value
        payload["basis_coefficients"] = [scalar_to_json(c) for c in expansion.coeffs]
        payload["basis_text"] = text
        lines.append(text)
    if args.json:
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_levels(args) -> int:
    parsed = _read_document(args.input)
    arr = parsed.arrangement
    # Only --regions needs witnesses; the counts alone take the cheaper path.
    if args.regions:
        regions = enumerate_regions(arr)
        counts = [0] * (arr.dim + 1)
        for r in regions:
            counts[r.level] += 1
    else:
        counts = list(level_profile(arr).counts)
    total = sum(counts)
    if args.json:
        payload = {"counts": counts, "total": total}
        if args.regions:
            payload["regions"] = [
                {
                    "signs": r.sign_string(),
                    "level": r.level,
                    "witness": [scalar_to_json(x) for x in r.witness],
                }
                for r in regions
            ]
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
        return EXIT_OK
    lines = []
    for k, c in enumerate(counts):
        if c:
            lines.append(f"level {k}: {c}")
    lines.append(f"total: {total}")
    if args.regions:
        for r in regions:
            witness = ", ".join(map(str, r.witness))
            lines.append(f"region {r.sign_string()} level {r.level} witness ({witness})")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    parsed = _read_document(args.input)
    arr = parsed.arrangement
    theorem = args.theorem
    lines: list[str] = []
    payload: dict = {"theorem": theorem}
    ok = True

    if theorem in ("A", "B"):
        report = (verify_type_a_expansion if theorem == "A" else verify_type_b_expansion)(arr)
        lines.append(f"type {theorem} level expansion check")
        lines.append(f"chi = {report.chi}")
        rows_payload = []
        for row in report.rows:
            status = "ok" if row.ok else "MISMATCH"
            lines.append(
                f"  level {row.level}: coefficient {row.coefficient}, "
                f"signed count {row.signed_count}, regions {row.region_count}  [{status}]"
            )
            rows_payload.append(
                {
                    "level": row.level,
                    "coefficient": scalar_to_json(row.coefficient),
                    "signed_count": row.signed_count,
                    "region_count": row.region_count,
                    "ok": row.ok,
                }
            )
        payload["chi"] = list(report.chi.coeffs)
        payload["rows"] = rows_payload
        ok = report.passed
    elif theorem == "zaslavsky":
        result = zaslavsky_check(arr)
        lines.append("zaslavsky check")
        lines.append(f"  (-1)^n * chi(-1) = {result.chi_at_minus_one_signed}")
        lines.append(f"  regions          = {result.region_count}")
        payload["chi_at_minus_one_signed"] = result.chi_at_minus_one_signed
        payload["region_count"] = result.region_count
        ok = result.ok
    elif theorem == "deletion-restriction":
        chi = char_poly(arr)
        lines.append("deletion-restriction check")
        rows_payload = []
        for idx, label in enumerate(parsed.labels):
            deleted = char_poly(delete(arr, idx))
            restricted = char_poly(restrict(arr, idx)[0])
            lhs = tuple(chi.coeffs)
            # The deletion keeps the ambient dimension; the restriction has
            # one fewer, so its coefficients stop one degree short.
            rhs = tuple(d - r for d, r in zip(deleted.coeffs, restricted.coeffs + (0,)))
            row_ok = lhs == rhs
            ok = ok and row_ok
            status = "ok" if row_ok else "MISMATCH"
            lines.append(f"  {label}: chi(delete) - chi(restrict) == chi  [{status}]")
            rows_payload.append({"hyperplane": label, "ok": row_ok})
        payload["rows"] = rows_payload
    elif theorem == "ff":
        if args.primes < 1:
            raise DocumentError(f"--primes must be at least 1, got {args.primes}")
        plan = ff_oracle_check(arr, args.primes)
        lines.append("finite-field count check")
        rows_payload = []
        mismatches = 0
        for q, count, value in plan.rows():
            row_ok = count == value
            mismatches += not row_ok
            status = "ok" if row_ok else "MISMATCH"
            lines.append(f"  q={q}: count {count}, chi({q}) = {value}  [{status}]")
            rows_payload.append({"q": q, "count": count, "chi": value, "ok": row_ok})
        ok = plan.agree
        if ok and mismatches:
            lines.append(
                f"  note: {mismatches} small prime(s) merged nearly concurrent "
                f"flats; chi confirmed on the {plan.requested} largest primes shown"
            )
        if not plan.complete:
            lines.append(
                f"  note: only {len(plan.primes)} admissible prime(s) under the "
                f"enumeration guard (requested {plan.requested})"
            )
        payload["rows"] = rows_payload
        payload["complete"] = plan.complete
    else:  # pragma: no cover - argparse restricts choices
        raise DocumentError(f"unknown theorem {theorem!r}")

    lines.append("PASS" if ok else "FAIL")
    payload["pass"] = ok
    if args.json:
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _parse_values(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"--values: {exc}") from None


def cmd_generate(args) -> int:
    family = args.family
    try:
        if family == "cox_a":
            arr = make_cox_a(args.n)
        elif family == "cox_b":
            arr = make_cox_b(args.n)
        elif family == "catalan":
            values = _parse_values(args.values) if args.values else [Fraction(1)]
            arr = make_catalan_type(args.n, values, with_zero=True)
        elif family == "semiorder":
            values = _parse_values(args.values) if args.values else [Fraction(1)]
            arr = make_catalan_type(args.n, values, with_zero=False)
        elif family == "m_catalan":
            arr = make_m_catalan(args.n, args.m)
        elif family == "random_a":
            arr = random_deformation_a(args.n, random.Random(args.seed))
        else:  # random_b
            arr = random_deformation_b(args.n, random.Random(args.seed))
    except DegenerateDeformationError:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    _write_output(dumps_document(document_of(arr)), args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    parsed = _read_document(args.input)
    try:
        svg = render_svg(parsed.arrangement, parsed.labels)
    except RenderUnsupportedError as exc:
        raise DocumentError(str(exc)) from None
    _write_output(svg, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="levelarr",
        description="Exact hyperplane-arrangement computations: characteristic "
        "polynomials, region levels, theorem validators, SVG rendering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="characteristic polynomial")
    p_chi.add_argument("input", help="arrangement document (path or - for stdin)")
    p_chi.add_argument(
        "--basis",
        choices=["standard", "binomial", "half"],
        default="standard",
        help="also print the expansion in a binomial basis",
    )
    p_chi.add_argument("--json", action="store_true")
    p_chi.add_argument("--output", default=None)
    p_chi.set_defaults(func=cmd_chi)

    p_levels = sub.add_parser("levels", help="region counts by level")
    p_levels.add_argument("input")
    p_levels.add_argument("--regions", action="store_true", help="list every region")
    p_levels.add_argument("--json", action="store_true")
    p_levels.add_argument("--output", default=None)
    p_levels.set_defaults(func=cmd_levels)

    p_verify = sub.add_parser("verify", help="run a theorem validator")
    p_verify.add_argument("input")
    p_verify.add_argument(
        "--theorem",
        required=True,
        choices=["A", "B", "zaslavsky", "deletion-restriction", "ff"],
    )
    p_verify.add_argument("--primes", type=int, default=2)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="emit an arrangement document")
    p_gen.add_argument(
        "family",
        choices=["cox_a", "cox_b", "catalan", "semiorder", "m_catalan", "random_a", "random_b"],
    )
    p_gen.add_argument("-n", "--n", type=int, required=True, help="ambient dimension")
    p_gen.add_argument("-m", "--m", type=int, default=1, help="m for m_catalan")
    p_gen.add_argument("--values", default=None, help="comma-separated offsets, decreasing")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_render = sub.add_parser("render", help="draw the arrangement as SVG")
    p_render.add_argument("input")
    p_render.add_argument("--output", required=True)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DegenerateDeformationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
