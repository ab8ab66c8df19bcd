"""The contract of the package's immutable value types.

Each is read-only, prints as ``Name(field=value, ...)`` with its fields in
declaration order, and hashes as the tuple of its fields, so it can key a
dict or a set by value.
"""

import pytest

from levelarr import render
from levelarr.arrangement import Kind, NondegeneracyReport, is_nondegenerate, make_cox_a
from levelarr.document import ParsedDocument, document_of, parse_document
from levelarr.expansion import (
    ExpansionRow,
    VerificationReport,
    ZaslavskyResult,
    verify_type_a_expansion,
    zaslavsky_check,
)
from levelarr.ffcount import PrimePlan
from levelarr.poset import CharPoly, Flat, build_poset, char_poly
from levelarr.regions import Region, enumerate_regions


def _instances():
    arr = make_cox_a(3)
    report = verify_type_a_expansion(arr)
    cases = [
        (Flat, build_poset(arr)[1], ("dim", "codim", "mask", "mobius")),
        (CharPoly, char_poly(arr), ("coeffs",)),
        (Region, enumerate_regions(arr)[0], ("sign_vector", "witness", "level")),
        (ParsedDocument, parse_document(document_of(arr)), ("arrangement", "labels")),
        (NondegeneracyReport, is_nondegenerate(arr, Kind.TYPE_A), ("missing", "foreign")),
        (ExpansionRow, report.rows[0], ("level", "coefficient", "signed_count", "region_count")),
        (VerificationReport, report, ("chi", "rows")),
        (ZaslavskyResult, zaslavsky_check(arr), ("chi_at_minus_one_signed", "region_count")),
        (PrimePlan, PrimePlan((5, 7), (8, 24), (8, 24), 2), ("primes", "counts", "chi_values", "requested")),
        (render._Line, render._Line(1.0, -1.0, 0.5, "H1"), ("nx", "ny", "c", "label")),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("cls, value, fields", _instances())
def test_value_type_contract(cls, value, fields):
    assert type(value) is cls
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"
    assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
