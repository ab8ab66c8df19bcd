"""JSON arrangement documents: exact rationals, lossless round trips.

Rationals are serialized as plain integers when possible and as lowest-terms
strings like ``"3/2"`` otherwise.  On input each scalar is read by
``exactmath.as_scalar``, the package's one reader of an exact scalar, and a
refusal is re-raised as a ``DocumentError`` naming the field.  Parsing
canonicalizes hyperplanes, so parse -> serialize -> parse is the identity on
parsed values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .arrangement import Arrangement, Hyperplane, Kind
from .exactmath import _clip, as_scalar


class DocumentError(ValueError):
    """Malformed arrangement document; the message names the offending field."""


_KINDS = tuple(k.value for k in Kind)  # the names a document's "kind" may take


def scalar_to_json(value: Union[int, Fraction]) -> Union[int, str]:
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def scalar_from_json(value, where: str) -> Union[int, Fraction]:
    """``as_scalar(value)``, its refusal naming the document field ``where``."""
    try:
        return as_scalar(value)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{where}: {exc}") from None


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
    if kind is not None and kind not in _KINDS:
        raise DocumentError(f"kind: expected {'|'.join(_KINDS)}, got {_clip(repr(kind))}")

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
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past Python's digit limit, or nesting past the recursion limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    return parse_document(raw)
