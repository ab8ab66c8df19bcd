"""JSON arrangement documents: exact rationals, lossless round trips.

Rationals are serialized as plain integers when possible and as lowest-terms
strings like ``"3/2"`` otherwise.  On input a scalar is a JSON integer or a
string ``"p"`` or ``"p/q"`` of decimal digits with an optional sign; floats,
exponents, decimal points and digit separators are refused, so no scalar
costs more than its digits to read.  Parsing canonicalizes hyperplanes, so
parse -> serialize -> parse is the identity on parsed values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .arrangement import Arrangement, Hyperplane
from .exactmath import _RATIONAL


class DocumentError(ValueError):
    """Malformed arrangement document; the message names the offending field."""


_SHOWN = 40  # characters of an offending value that an error message echoes


def _clip(text: str) -> str:
    """``text``, or its first ``_SHOWN`` characters and its length if longer."""
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}… ({len(text)} characters)"


def scalar_to_json(value: Union[int, Fraction]) -> Union[int, str]:
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def scalar_from_json(value, where: str) -> Union[int, Fraction]:
    """A JSON integer as ``int``, so integer rows skip the ``Fraction`` round
    trip; a ``"p"`` or ``"p/q"`` string as a ``Fraction``."""
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"{where}: expected an integer or rational string, got {_clip(repr(value))}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value.strip()):
            raise DocumentError(f"{where}: expected an integer or \"p/q\" string, got {_clip(repr(value))}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: not a rational: {_clip(repr(value))} ({_clip(str(exc))})") from None
    raise DocumentError(f"{where}: expected an integer or rational string, got {type(value).__name__}")


class ParsedDocument(NamedTuple):
    arrangement: Arrangement
    labels: tuple[str, ...]


def parse_document(doc: dict) -> ParsedDocument:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if "ambient_dim" not in doc:
        raise DocumentError("ambient_dim: missing")
    dim = doc["ambient_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError(f"ambient_dim: expected a positive integer, got {_clip(repr(dim))}")
    raw_planes = doc.get("hyperplanes", [])
    if not isinstance(raw_planes, list):
        raise DocumentError("hyperplanes: expected a list")

    planes = []
    for idx, entry in enumerate(raw_planes):
        where = f"hyperplanes[{idx}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: expected an object")
        normal = entry.get("normal")
        if not isinstance(normal, list) or len(normal) != dim:
            raise DocumentError(f"{where}.normal: expected a list of {dim} rationals")
        coords = [scalar_from_json(v, f"{where}.normal[{j}]") for j, v in enumerate(normal)]
        offset = scalar_from_json(entry.get("offset", 0), f"{where}.offset")
        try:
            planes.append(Hyperplane(coords, offset))
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from None

    labels = doc.get("labels")
    if labels is None:
        labels = tuple(f"H{i + 1}" for i in range(len(planes)))
    else:
        if not isinstance(labels, list) or len(labels) != len(planes):
            raise DocumentError("labels: expected one label per hyperplane")
        if not all(isinstance(s, str) for s in labels):
            raise DocumentError("labels: expected strings")
        labels = tuple(labels)

    kind = doc.get("kind")
    if kind is not None and kind not in ("typeA", "typeB", "general"):
        raise DocumentError(f"kind: expected typeA|typeB|general, got {_clip(repr(kind))}")

    try:
        arr = Arrangement(dim, planes)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    if kind is not None and kind != arr.kind.value:
        raise DocumentError(f"kind: declared {kind}, but the hyperplanes form a {arr.kind.value} arrangement")
    return ParsedDocument(arr, labels)


def document_of(arr: Arrangement, labels: Optional[tuple[str, ...]] = None) -> dict:
    doc = {
        "ambient_dim": arr.dim,
        "hyperplanes": [
            {
                "normal": [scalar_to_json(c) for c in h.normal],
                "offset": scalar_to_json(h.offset),
            }
            for h in arr.hyperplanes
        ],
        "kind": arr.kind.value,
    }
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads_document(text: str) -> ParsedDocument:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    return parse_document(raw)
