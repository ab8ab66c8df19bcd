"""Command-line front end.

Subcommands: ``chi``, ``levels``, ``verify``, ``generate``, ``render``.

``chi``, ``levels`` and ``verify`` state each answer once, as the JSON payload
that ``--json`` prints.  Their text form is derived from that payload, and
only when ``--json`` is absent; ``_emit`` writes either form and returns the
exit status.  ``verify`` takes its rows from the library's result tuples,
whose field names are the JSON keys, so a theorem adds only a text header, a
row format and notes.  ``generate --values`` reads its comma-separated
offsets with the document scalar grammar.

Exit statuses: 0 all checks pass, 1 verification failure, 2 input error,
3 theorem hypothesis violation (degenerate deformation).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Callable, Iterable, Optional, Sequence

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
    scalar_from_json,
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
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


def _emit(args, payload: dict, text_lines: Callable[[dict], Iterable[str]], code: int = EXIT_OK) -> int:
    """Write ``payload`` as JSON under ``--json``, else as ``text_lines(payload)``; return ``code``."""
    if args.json:
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _write_output("\n".join(text_lines(payload)) + "\n", args.output)
    return code


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
    chi = char_poly(_read_document(args.input).arrangement)
    payload = {"coefficients": list(chi.coeffs), "text": str(chi)}
    if args.basis != "standard":
        kind = BasisKind.STANDARD if args.basis == "binomial" else BasisKind.SHIFTED_HALF
        coeffs = to_binomial_basis(chi, kind)
        payload["basis"] = kind.value
        payload["basis_coefficients"] = list(coeffs)
        payload["basis_text"] = format_expansion(coeffs, kind)
    return _emit(args, payload, lambda p: [p[key] for key in ("text", "basis_text") if key in p])


def _levels_lines(payload: dict) -> Iterable[str]:
    yield from (f"level {k}: {c}" for k, c in enumerate(payload["counts"]) if c)
    yield f"total: {payload['total']}"
    for r in payload.get("regions", ()):
        yield f"region {r['signs']} level {r['level']} witness ({', '.join(map(str, r['witness']))})"


def cmd_levels(args) -> int:
    arr = _read_document(args.input).arrangement
    # Only --regions needs witnesses; the counts alone take the cheaper path.
    if args.regions:
        regions = enumerate_regions(arr)
        counts = [0] * (arr.dim + 1)
        for r in regions:
            counts[r.level] += 1
    else:
        counts = list(level_profile(arr))
    payload = {"counts": counts, "total": sum(counts)}
    if args.regions:
        payload["regions"] = [
            {"signs": r.sign_string(), "level": r.level, "witness": [scalar_to_json(x) for x in r.witness]}
            for r in regions
        ]
    return _emit(args, payload, _levels_lines)


def cmd_verify(args) -> int:
    """Each theorem gives its payload fields plus the text header, row format and notes."""
    parsed = _read_document(args.input)
    arr = parsed.arrangement
    theorem = args.theorem
    payload: dict = {"theorem": theorem}
    row_format, notes = "", []

    if theorem in ("A", "B"):
        report = (verify_type_a_expansion if theorem == "A" else verify_type_b_expansion)(arr)
        header = [f"type {theorem} level expansion check", f"chi = {report.chi}"]
        row_format = "  level {level}: coefficient {coefficient}, signed count {signed_count}, regions {region_count}"
        payload["chi"] = list(report.chi.coeffs)
        payload["rows"] = [{**row._asdict(), "ok": row.ok} for row in report.rows]
        ok = report.passed
    elif theorem == "zaslavsky":
        result = zaslavsky_check(arr)
        header = [
            "zaslavsky check",
            f"  (-1)^n * chi(-1) = {result.chi_at_minus_one_signed}",
            f"  regions          = {result.region_count}",
        ]
        payload.update(result._asdict())
        ok = result.ok
    elif theorem == "deletion-restriction":
        header = ["deletion-restriction check"]
        row_format = "  {hyperplane}: chi(delete) - chi(restrict) == chi"
        chi = char_poly(arr).coeffs
        payload["rows"] = []
        for idx, label in enumerate(parsed.labels):
            deleted = char_poly(delete(arr, idx)).coeffs
            restricted = char_poly(restrict(arr, idx)).coeffs
            # The deletion keeps the ambient dimension; the restriction has
            # one fewer, so its coefficients stop one degree short.
            rhs = tuple(d - r for d, r in zip(deleted, restricted + (0,)))
            payload["rows"].append({"hyperplane": label, "ok": chi == rhs})
        ok = all(row["ok"] for row in payload["rows"])
    else:  # ff
        if args.primes < 1:
            raise DocumentError(f"--primes must be at least 1, got {args.primes}")
        plan = ff_oracle_check(arr, args.primes)
        header = ["finite-field count check"]
        row_format = "  q={q}: count {count}, chi({q}) = {chi}"
        payload["rows"] = [{"q": q, "count": count, "chi": value, "ok": count == value} for q, count, value in plan.rows()]
        payload["complete"] = plan.complete
        ok = plan.agree
        mismatches = sum(not row["ok"] for row in payload["rows"])
        if ok and mismatches:
            notes.append(
                f"  note: {mismatches} small prime(s) merged nearly concurrent "
                f"flats; chi confirmed on the {plan.requested} largest primes shown"
            )
        if not plan.complete:
            notes.append(
                f"  note: only {len(plan.primes)} admissible prime(s) under the "
                f"enumeration guard (requested {plan.requested})"
            )
    payload["pass"] = ok

    def text_lines(p: dict) -> list[str]:
        rows = [row_format.format(**row) + ("  [ok]" if row["ok"] else "  [MISMATCH]") for row in p.get("rows", ())]
        return [*header, *rows, *notes, "PASS" if p["pass"] else "FAIL"]

    return _emit(args, payload, text_lines, EXIT_OK if ok else EXIT_VERIFY_FAILED)


def cmd_generate(args) -> int:
    family = args.family
    try:
        if family == "cox_a":
            arr = make_cox_a(args.n)
        elif family == "cox_b":
            arr = make_cox_b(args.n)
        elif family in ("catalan", "semiorder"):
            parts = (args.values or "1").split(",")
            values = [scalar_from_json(part, "--values") for part in parts if part.strip()]
            arr = make_catalan_type(args.n, values, with_zero=family == "catalan")
        elif family == "m_catalan":
            arr = make_m_catalan(args.n, args.m)
        elif family == "random_a":
            arr = random_deformation_a(args.n, random.Random(args.seed))
        else:  # random_b
            arr = random_deformation_b(args.n, random.Random(args.seed))
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
    p_chi.add_argument(
        "--basis",
        choices=["standard", "binomial", "half"],
        default="standard",
        help="also print the expansion in a binomial basis",
    )
    p_levels = sub.add_parser("levels", help="region counts by level")
    p_levels.add_argument("--regions", action="store_true", help="list every region")
    p_verify = sub.add_parser("verify", help="run a theorem validator")
    p_verify.add_argument(
        "--theorem",
        required=True,
        choices=["A", "B", "zaslavsky", "deletion-restriction", "ff"],
    )
    p_verify.add_argument("--primes", type=int, default=2)
    # Each reads one document and writes one payload, as text or as JSON.
    for cmd, func in ((p_chi, cmd_chi), (p_levels, cmd_levels), (p_verify, cmd_verify)):
        cmd.add_argument("input", help="arrangement document (path or - for stdin)")
        cmd.add_argument("--json", action="store_true")
        cmd.add_argument("--output", default=None)
        cmd.set_defaults(func=func)

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
