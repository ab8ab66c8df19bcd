import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelarr.arrangement import random_deformation_a, random_deformation_b
from levelarr.cli import main
from levelarr.document import (
    DocumentError,
    document_of,
    dumps_document,
    loads_document,
    parse_document,
    scalar_from_json,
    scalar_to_json,
)


class TestScalars:
    def test_integer_passthrough(self):
        assert scalar_to_json(Fraction(4)) == 4
        assert scalar_from_json(4, "x") == 4
        assert type(scalar_from_json(4, "x")) is int  # integer rows skip the Fraction round trip
        assert type(scalar_from_json("4", "x")) is Fraction

    def test_fraction_string(self):
        assert scalar_to_json(Fraction(3, 2)) == "3/2"
        assert scalar_from_json("3/2", "x") == Fraction(3, 2)
        assert scalar_from_json("-7/2", "x") == Fraction(-7, 2)

    def test_lowest_terms(self):
        assert scalar_to_json(Fraction(4, 2)) == 2
        assert scalar_from_json("6/4", "x") == Fraction(3, 2)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(DocumentError):
            scalar_from_json(0.5, "x")
        with pytest.raises(DocumentError):
            scalar_from_json("a/b", "x")
        with pytest.raises(DocumentError):
            scalar_from_json(True, "x")

    @pytest.mark.parametrize("text", ["1e20000000", "1.5", "1_000", "0x10", "inf", "1/ 2", "3/-2", "", "\u0661"])
    def test_strings_are_integers_or_p_over_q(self, text):
        # Only the documented grammar [+-]digits[/digits] is read: an
        # exponent would keep Fraction busy for as long as it likes.
        with pytest.raises(DocumentError, match=r'^hyperplanes\[0\]\.offset: expected an integer or "p/q" string'):
            scalar_from_json(text, "hyperplanes[0].offset")

    def test_string_grammar_accepts_signs_and_padding(self):
        assert scalar_from_json(" +12/8 ", "x") == Fraction(3, 2)
        assert scalar_from_json("-0", "x") == 0


class TestParse:
    def test_worked_example(self, example_a):
        doc = document_of(example_a)
        parsed = parse_document(doc)
        assert parsed.arrangement == example_a
        assert doc["kind"] == "typeA"
        assert parsed.labels == ("H1", "H2", "H3", "H4", "H5")

    def test_error_messages_carry_field_context(self):
        with pytest.raises(DocumentError, match=r"hyperplanes\[1\]\.normal\[0\]"):
            parse_document(
                {
                    "ambient_dim": 2,
                    "hyperplanes": [
                        {"normal": [1, 0], "offset": 0},
                        {"normal": ["x", 0], "offset": 0},
                    ],
                }
            )

    def test_missing_dim(self):
        with pytest.raises(DocumentError, match="ambient_dim"):
            parse_document({"hyperplanes": []})

    @pytest.mark.parametrize("field", ["ambient_dim", "kind"])
    def test_long_values_are_clipped(self, field):
        doc = {"ambient_dim": 1, "hyperplanes": [], field: "1" * 5000}
        with pytest.raises(DocumentError, match=rf"^{field}: .*'1{{39}}… \(5002 characters\)$"):
            parse_document(doc)

    def test_wrong_normal_length(self):
        with pytest.raises(DocumentError, match=r"hyperplanes\[0\]\.normal"):
            parse_document({"ambient_dim": 3, "hyperplanes": [{"normal": [1, 0]}]})

    def test_duplicate_hyperplanes_rejected(self):
        with pytest.raises(DocumentError, match="duplicate"):
            parse_document(
                {
                    "ambient_dim": 2,
                    "hyperplanes": [
                        {"normal": [1, -1], "offset": 1},
                        {"normal": [2, -2], "offset": 2},
                    ],
                }
            )

    def test_bad_labels(self):
        with pytest.raises(DocumentError, match="labels"):
            parse_document(
                {
                    "ambient_dim": 2,
                    "hyperplanes": [{"normal": [1, 0], "offset": 0}],
                    "labels": ["a", "b"],
                }
            )

    def test_declared_kind_must_match_the_hyperplanes(self):
        doc = {"ambient_dim": 2, "hyperplanes": [{"normal": [1, -1], "offset": 0}], "kind": "typeB"}
        with pytest.raises(DocumentError, match="kind: declared typeB, but the hyperplanes form a typeA"):
            parse_document(doc)
        doc["kind"] = "typeA"
        assert parse_document(doc).arrangement.kind.value == "typeA"

    def test_unknown_kind_names_the_kinds(self):
        with pytest.raises(DocumentError) as exc:
            parse_document({"ambient_dim": 1, "hyperplanes": [], "kind": "typeC"})
        assert str(exc.value) == "kind: expected typeA|typeB|general, got 'typeC'"

    def test_invalid_json_text(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            loads_document("{not json")

    def test_nesting_past_the_recursion_limit(self):
        # json.loads raises RecursionError here, which is not a ValueError.
        with pytest.raises(DocumentError, match="^invalid JSON: maximum recursion depth exceeded"):
            loads_document("[" * 200_000)

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError.
        text = '{"ambient_dim": 1, "hyperplanes": [{"normal": [1], "offset": %s}]}' % ("9" * 5000)
        with pytest.raises(DocumentError, match="invalid JSON: Exceeds the limit"):
            loads_document(text)


class TestInputChecks:
    """Each malformed document is refused with one message, in the library
    and, as exit status 2, through the command line."""

    CASES = [
        pytest.param("[]", "document must be a JSON object", id="not_an_object"),
        pytest.param('{"ambient_dim": 2, "hyperplanes": {}}', "hyperplanes: expected a list", id="hyperplanes_not_a_list"),
        pytest.param('{"ambient_dim": 2, "hyperplanes": [3]}', "hyperplanes[0]: expected an object", id="entry_not_an_object"),
        pytest.param(
            '{"ambient_dim": 2, "hyperplanes": [{"normal": [0, 0]}]}',
            "hyperplanes[0]: hyperplane normal must be nonzero",
            id="zero_normal",
        ),
        pytest.param(
            '{"ambient_dim": 1, "hyperplanes": [{"normal": [1]}], "labels": [1]}',
            "labels: expected strings",
            id="labels_not_strings",
        ),
        pytest.param(
            '{"ambient_dim": 1, "hyperplanes": [{"normal": [1], "offset": null}]}',
            "hyperplanes[0].offset: expected an integer or rational string, got NoneType",
            id="null_scalar",
        ),
        pytest.param(
            '{"ambient_dim": 1, "hyperplanes": [{"normal": [1], "offset": true}]}',
            "hyperplanes[0].offset: expected an integer or rational string, got True",
            id="bool_scalar",
        ),
        pytest.param(
            '{"ambient_dim": 1, "hyperplanes": [{"normal": [1], "offset": "1/0"}]}',
            "hyperplanes[0].offset: zero denominator in '1/0'",
            id="zero_denominator",
        ),
    ]

    @pytest.mark.parametrize("text, message", CASES)
    def test_library(self, text, message):
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            loads_document(text)

    @pytest.mark.parametrize("text, message", CASES)
    def test_command_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["chi", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, example_a, example_b, grid_example):
        for arr in (example_a, example_b, grid_example):
            doc = document_of(arr)
            once = parse_document(doc)
            again = parse_document(json.loads(dumps_document(document_of(once.arrangement))))
            assert once.arrangement == again.arrangement

    def test_noncanonical_input_normalizes_once(self):
        doc = {
            "ambient_dim": 2,
            "hyperplanes": [{"normal": [-2, 2], "offset": "4/6"}],
        }
        first = parse_document(doc)
        serialized = document_of(first.arrangement)
        assert serialized["hyperplanes"][0]["normal"] == [1, -1]
        assert serialized["hyperplanes"][0]["offset"] == "-1/3"
        assert parse_document(serialized).arrangement == first.arrangement

    @given(st.integers(0, 10_000), st.sampled_from(["a2", "a3", "b1", "b2"]))
    @settings(max_examples=40, deadline=None)
    def test_random_arrangements_round_trip(self, seed, family):
        rng = random.Random(seed)
        if family == "a2":
            arr = random_deformation_a(2, rng)
        elif family == "a3":
            arr = random_deformation_a(3, rng)
        elif family == "b1":
            arr = random_deformation_b(1, rng)
        else:
            arr = random_deformation_b(2, rng)
        text = dumps_document(document_of(arr))
        assert loads_document(text).arrangement == arr
