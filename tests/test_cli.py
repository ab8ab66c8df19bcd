import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from xml.dom import minidom

import pytest

import levelarr
from levelarr.arrangement import (
    Arrangement,
    Hyperplane,
    delete,
    make_cox_a,
    make_cox_b,
    make_m_catalan,
    random_deformation_a,
    random_deformation_b,
)
from levelarr.cli import build_parser, format_expansion, main
from levelarr.document import document_of, dumps_document, loads_document
from levelarr.expansion import BasisKind
from levelarr.render import render_svg

from conftest import _strict_row, eighths_a5, eighths_b4, skew_r3, unit_offsets_b4


@pytest.fixture()
def doc_path(tmp_path):
    def write(arr, name="arr.json", labels=None):
        path = tmp_path / name
        path.write_text(dumps_document(document_of(arr, labels)))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LEVEL_LABEL = re.compile(r'class="level"[^>]*>(\d+)</text>')


def fresh_python(*args):
    """Stdout of a new interpreter run with ``args``, importing this package."""
    src = str(Path(levelarr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True).stdout


def test_import_leaves_numpy_unloaded():
    # Only the finite-field point count needs numpy; no command pays for
    # loading it at start-up.  The value types are NamedTuples, so start-up
    # loads neither dataclasses nor the inspect module it pulls in.
    script = "import sys, levelarr.cli; print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
    assert fresh_python("-c", script) == "[]\n"


def test_one_parser_serves_every_call(capsys, doc_path, example_b):
    # The parser is built once per process; a parse error in between leaves
    # it as it was, so each command prints what a fresh process prints.
    path = doc_path(example_b)

    def fresh(*argv):
        return fresh_python("-m", "levelarr.cli", *argv)

    build_parser.cache_clear()
    assert run(capsys, "chi", path) == (0, fresh("chi", path), "")
    assert run(capsys, "levels", path, "--regions") == (0, fresh("levels", path, "--regions"), "")
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--theorem=C"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, "chi", path) == (0, fresh("chi", path), "")
    assert build_parser.cache_info().misses == 1


class TestChi:
    def test_standard(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "chi", doc_path(example_a))
        assert code == 0
        assert out == "t^3 - 5t^2 + 6t\n"

    def test_binomial_basis(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "chi", doc_path(example_a), "--basis=binomial")
        assert code == 0
        assert out.splitlines() == [
            "t^3 - 5t^2 + 6t",
            "6*C(t,3) - 4*C(t,2) + 2*C(t,1)",
        ]

    def test_half_basis(self, capsys, doc_path, example_b):
        code, out, _ = run(capsys, "chi", doc_path(example_b), "--basis=half")
        assert code == 0
        assert out.splitlines() == [
            "t^2 - 4t + 5",
            "8*C((t-1)/2,2) + 2*C((t-1)/2,0)",
        ]

    def test_format_expansion_signs(self):
        # A negative leading term, a coefficient -1 and an empty sum.
        assert format_expansion((2, -1, 0, -3), BasisKind.STANDARD) == "-3*C(t,3) - C(t,1) + 2*C(t,0)"
        assert format_expansion((0, 0), BasisKind.SHIFTED_HALF) == "0"

    def test_empty_arrangement(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"ambient_dim": 2, "hyperplanes": []}))
        code, out, _ = run(capsys, "chi", str(path))
        assert code == 0
        assert out == "t^2\n"

    def test_json_output(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "chi", doc_path(example_a), "--json", "--basis=binomial")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == [0, 6, -5, 1]
        assert payload["basis_coefficients"] == [0, 2, -4, 6]

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_dim": 2, "hyperplanes": [{"normal": [0.5, 1]}]}')
        code, out, err = run(capsys, "chi", str(path))
        assert code == 2
        assert "hyperplanes[0].normal[0]" in err

    @pytest.mark.parametrize(
        "offset, named",
        [
            ('"1e20000000"', "hyperplanes[0].offset"),
            ('"1.5"', "hyperplanes[0].offset"),
            ("9" * 5000, "invalid JSON"),
            ('"%s"' % ("1" * 5000), "hyperplanes[0].offset"),
            ('"%s"' % ("1" * 5000 + "x"), "hyperplanes[0].offset"),
            ('"%s/0"' % ("1" * 4000), "hyperplanes[0].offset"),
        ],
        ids=["exponent", "decimal_point", "digit_limit", "long_string", "long_garbage", "long_zero_denominator"],
    )
    def test_refused_scalars_exit_2(self, capsys, tmp_path, offset, named):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_dim": 1, "hyperplanes": [{"normal": [1], "offset": %s}]}' % offset)
        code, out, err = run(capsys, "chi", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named}")
        assert len(err) < 200  # a 5,000-character value is clipped, not echoed whole

    def test_undecodable_document(self, capsys, tmp_path):
        # Bytes that are not UTF-8 are an input error, not a failed check.
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"ambient_dim": 1}')
        code, out, err = run(capsys, "chi", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"

    @pytest.mark.parametrize("argv", [("chi", "{path}"), ("levels", "-"), ("verify", "--theorem=A", "{path}")])
    def test_too_deeply_nested_document(self, capsys, monkeypatch, tmp_path, argv):
        # json.loads raises RecursionError, which is no ValueError.
        text = "[" * 200_000
        path = tmp_path / "deep.json"
        path.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "chi", "/nonexistent/arr.json")
        assert code == 2
        assert "cannot read" in err

    def test_unwritable_output(self, capsys, doc_path, tmp_path, example_a):
        target = tmp_path / "no_such_dir" / "x.json"
        code, out, err = run(capsys, "chi", doc_path(example_a), "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert str(target) in err


class TestLevels:
    def test_grid_table(self, capsys, doc_path, grid_example):
        code, out, _ = run(capsys, "levels", doc_path(grid_example))
        assert code == 0
        assert out.splitlines() == ["level 0: 1", "level 1: 2", "level 2: 6", "total: 9"]

    def test_example_a_table(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "levels", doc_path(example_a))
        assert code == 0
        assert out.splitlines() == ["level 1: 2", "level 2: 4", "level 3: 6", "total: 12"]

    def test_cox_b2_table(self, capsys, doc_path):
        from levelarr.arrangement import make_cox_b

        code, out, _ = run(capsys, "levels", doc_path(make_cox_b(2)))
        assert code == 0
        assert out.splitlines() == ["level 2: 8", "total: 8"]

    def test_declared_kind_mismatch_exits_2(self, capsys, tmp_path):
        path = tmp_path / "mislabelled.json"
        path.write_text(json.dumps({"ambient_dim": 2, "hyperplanes": [{"normal": [1, -1]}], "kind": "typeB"}))
        code, out, err = run(capsys, "levels", str(path))
        assert (code, out) == (2, "")
        assert "typeB" in err and "typeA" in err

    def test_region_listing_consistent(self, capsys, doc_path, example_b):
        code, out, _ = run(capsys, "levels", doc_path(example_b), "--regions")
        assert code == 0
        region_lines = [l for l in out.splitlines() if l.startswith("region ")]
        assert len(region_lines) == 10
        assert all(re.match(r"region [+-]{4} level \d witness \(", l) for l in region_lines)

    def test_type_b_json_matches_lp_levels(self, capsys, doc_path, monkeypatch):
        # Type B levels come from the closure walk; the same document with
        # every level taken from the cone-span LP prints the same bytes.
        from levelarr import regions
        from levelarr.exactmath import cone_span_dimension

        arr = random_deformation_b(3, random.Random(11))
        path = doc_path(arr)
        code, walk_out, _ = run(capsys, "levels", path, "--regions", "--json")
        assert code == 0

        walk = regions._closure_walk
        lp_calls = []

        def lp_levels(arr):
            out = []
            for signs, _ in walk(arr):
                lp_calls.append(signs)
                out.append((signs, cone_span_dimension([_strict_row(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=arr.dim)))
            return out

        monkeypatch.setattr(regions, "_closure_walk", lp_levels)
        code, lp_out, _ = run(capsys, "levels", path, "--regions", "--json")
        assert code == 0
        assert len(lp_calls) == json.loads(lp_out)["total"] > 100
        assert walk_out == lp_out


class TestVerify:
    def test_theorem_a_pass(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "verify", doc_path(example_a), "--theorem=A")
        assert code == 0
        assert out.rstrip().endswith("PASS")

    def test_theorem_b_pass(self, capsys, doc_path, example_b):
        code, out, _ = run(capsys, "verify", doc_path(example_b), "--theorem=B")
        assert code == 0

    def test_theorem_b_catches_a_wrong_level(self, capsys, doc_path, monkeypatch, example_b):
        # chi is an independent check of the closure walk's levels: one
        # region off by one fails the verification.  The walk counts each
        # region's level by ``_reach_level``.
        from levelarr import regions
        from levelarr.cli import EXIT_VERIFY_FAILED

        exact = regions._reach_level
        calls = []

        def off_by_one(dist, inf, n):
            level = exact(dist, inf, n)
            calls.append(dist)
            if len(calls) == 1:
                return level - 1 if level else 1
            return level

        monkeypatch.setattr(regions, "_reach_level", off_by_one)
        code, out, _ = run(capsys, "verify", doc_path(example_b), "--theorem=B")
        assert len(calls) == 10
        assert code == EXIT_VERIFY_FAILED
        assert out.rstrip().endswith("FAIL")

    def test_degenerate_refused_with_status_3(self, capsys, doc_path, example_a):
        from levelarr.arrangement import delete

        broken = delete(delete(example_a, 1), 0)
        code, out, err = run(capsys, "verify", doc_path(broken), "--theorem=A")
        assert code == 3
        assert "degenerate" in err
        assert "missing direction" in err

    def test_degenerate_type_a_names_the_direction(self, capsys, doc_path, example_a):
        from levelarr.arrangement import delete

        # Without x1-x2 = 0 and x1-x2 = 1 the direction x1-x2 is missing;
        # type A names it the way type B names its directions.
        broken = delete(delete(example_a, 1), 0)
        code, _, err = run(capsys, "verify", doc_path(broken), "--theorem=A")
        assert code == 3
        assert "missing direction x1-x2" in err
        assert "(1, 2)" not in err

    def test_zaslavsky(self, capsys, doc_path, grid_example):
        code, out, _ = run(capsys, "verify", doc_path(grid_example), "--theorem=zaslavsky")
        assert code == 0
        assert "= 9" in out

    def test_deletion_restriction(self, capsys, doc_path, example_a):
        code, out, _ = run(
            capsys, "verify", doc_path(example_a), "--theorem=deletion-restriction"
        )
        assert code == 0
        assert out.count("[ok]") == 5

    def test_ff(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "verify", doc_path(example_a), "--theorem=ff", "--primes", "3")
        assert code == 0
        assert "q=7: count 140, chi(7) = 140" in out

    @pytest.mark.parametrize("primes", ["0", "-2"])
    def test_ff_rejects_nonpositive_primes(self, capsys, doc_path, example_a, primes):
        code, out, err = run(
            capsys, "verify", doc_path(example_a), "--theorem=ff", "--primes", primes
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--primes" in err

    def test_verify_json_exit_semantics(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "verify", doc_path(example_a), "--theorem=A", "--json")
        payload = json.loads(out)
        assert payload["pass"] is True
        assert code == 0


class TestGenerate:
    def test_catalan_document(self, capsys):
        code, out, _ = run(capsys, "generate", "catalan", "-n", "3", "--values", "1")
        assert code == 0
        parsed = loads_document(out)
        assert len(parsed.arrangement) == 9
        assert parsed.arrangement.kind.value == "typeA"

    def test_cox_b_document(self, capsys):
        code, out, _ = run(capsys, "generate", "cox_b", "-n", "2")
        assert code == 0
        assert len(loads_document(out).arrangement) == 4

    def test_m_catalan(self, capsys):
        code, out, _ = run(capsys, "generate", "m_catalan", "-n", "2", "-m", "2")
        assert code == 0
        assert len(loads_document(out).arrangement) == 5

    def test_random_a_deterministic_and_verifiable(self, capsys, tmp_path):
        code, out1, _ = run(capsys, "generate", "random_a", "-n", "3", "--seed", "42")
        assert code == 0
        code, out2, _ = run(capsys, "generate", "random_a", "-n", "3", "--seed", "42")
        assert out1 == out2
        path = tmp_path / "rand.json"
        path.write_text(out1)
        code, out, _ = run(capsys, "verify", str(path), "--theorem=A")
        assert code == 0

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, "generate", "cox_a", "-n", "1")
        assert code == 2
        assert "n >= 2" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("cox_a", "-n", "1"), "type A Coxeter arrangement needs n >= 2"),
            (("cox_b", "-n", "0"), "type B Coxeter arrangement needs n >= 1"),
            (("catalan", "-n", "1"), "needs n >= 2"),
            (("semiorder", "-n", "2", "--values", "0"), "offset values must be positive"),
            (("m_catalan", "-n", "2", "-m", "0"), "needs m >= 1"),
            (("random_a", "-n", "1"), "type A deformation needs n >= 2"),
            (("random_b", "-n", "0"), "type B deformation needs n >= 1"),
        ],
        ids=["cox_a", "cox_b", "catalan", "semiorder", "m_catalan", "random_a", "random_b"],
    )
    def test_bad_parameters_exit_2(self, capsys, argv, message):
        # Every family builds each direction with nonempty, distinct offsets,
        # so a bad parameter is an input error, never a degenerate deformation.
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("values", ["1e5000", "1.5", "1_000"])
    def test_values_follow_the_document_grammar(self, capsys, values):
        # --values takes the scalars a document takes: no exponent, decimal
        # point or digit separator, so an input error is exit 2, not a crash.
        code, out, err = run(capsys, "generate", "catalan", "-n", "2", "--values", values)
        assert (code, out) == (2, "")
        assert err.startswith("error: --values")


class TestRender:
    def test_grid_svg(self, doc_path, tmp_path, capsys, grid_example):
        out_path = tmp_path / "grid.svg"
        code, _, _ = run(capsys, "render", doc_path(grid_example), "--output", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert svg.count("<line") == 4
        labels = Counter(LEVEL_LABEL.findall(svg))
        assert labels == Counter({"2": 6, "1": 2, "0": 1})

    def test_example_a_svg_matches_figure_labels(self, doc_path, tmp_path, capsys, example_a):
        out_path = tmp_path / "a.svg"
        code, _, _ = run(capsys, "render", doc_path(example_a), "--output", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert svg.count("<line") == 5
        labels = Counter(LEVEL_LABEL.findall(svg))
        assert labels == Counter({"3": 6, "2": 4, "1": 2})

    def test_single_line(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps({"ambient_dim": 2, "hyperplanes": [{"normal": [1, 0], "offset": 0}]})
        )
        out_path = tmp_path / "one.svg"
        code, _, _ = run(capsys, "render", str(path), "--output", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert svg.count("<line") == 1
        assert Counter(LEVEL_LABEL.findall(svg)) == Counter({"2": 2})

    def test_unsupported_dimension(self, doc_path, tmp_path, capsys):
        from levelarr.arrangement import make_cox_b

        code, _, err = run(
            capsys, "render", doc_path(make_cox_b(3)), "--output", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert "rendering supports" in err

    def test_degenerate_difference_forms_in_r3(self, tmp_path, capsys):
        # The R^3 gate asks for difference forms only, not a full type A set.
        doc = {"ambient_dim": 3, "hyperplanes": [{"normal": [1, -1, 0]}, {"normal": [0, 1, -1], "offset": 1}]}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "two.svg"
        code, _, err = run(capsys, "render", str(path), "--output", str(out_path))
        assert (code, err) == (0, "")
        svg = out_path.read_text()
        assert svg.count("<line") == 2
        assert Counter(LEVEL_LABEL.findall(svg)) == Counter({"3": 4})

        doc["hyperplanes"].append({"normal": [1, 1, 0]})
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", str(path), "--output", str(out_path))
        assert (code, out) == (2, "")
        assert err == (
            "error: rendering supports R^2 arrangements, or difference-form arrangements "
            "in R^3; got dimension 3 with kind general\n"
        )

    def test_labels_are_escaped(self, doc_path, tmp_path, capsys, example_b):
        out_path = tmp_path / "labels.svg"
        labels = ("a<b", "R&D", "x>y", "plain")
        code, _, _ = run(capsys, "render", doc_path(example_b, labels=labels), "--output", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert "a&lt;b" in svg and "R&amp;D" in svg
        texts = [
            node.firstChild.data
            for node in minidom.parseString(svg).getElementsByTagName("text")
            if node.getAttribute("class") == "hyperplane-label"
        ]
        assert sorted(texts) == sorted(labels)

    def test_default_labels(self, example_b):
        assert render_svg(example_b) == render_svg(example_b, ("H1", "H2", "H3", "H4"))

    def test_byte_stable(self, doc_path, tmp_path, capsys, example_a):
        p1, p2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
        run(capsys, "render", doc_path(example_a), "--output", str(p1))
        run(capsys, "render", doc_path(example_a), "--output", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestOutputPins:
    """CLI output is pinned byte for byte: a change here must be deliberate.

    The poset backs ``chi`` and the deletion-restriction and finite-field
    checks; region enumeration backs ``levels``, the A, B and Zaslavsky
    checks and ``render``, so these pins also fix sign vectors, witnesses,
    levels and region order.
    """

    # Each pinned command, with the digests of its --json output and its text output.
    PINNED = [
        pytest.param(lambda: make_m_catalan(4, 1), ("chi",), "e7eddf377739c9a334b79819d7e7803c7fe0e9a10bf90b6663c2eb1eff1f5d0e", "a9e6e1486cba3f187503687a50664357449d3e0475e777d599d5048e6723981e", id="m_catalan_4_1-chi"),
        pytest.param(lambda: make_m_catalan(4, 1), ("verify", "--theorem=deletion-restriction"), "eb63d66dc96c8876f6302a9770e9bf9c428f3cea6d90d90fc7f8128a8f5f7964", "86ef8e368a15f44e8eefbc8734ea2ec45a1afb4f6809fd6afb25450f40038acc", id="m_catalan_4_1-deletion_restriction"),
        pytest.param(lambda: make_m_catalan(4, 1), ("verify", "--theorem=ff"), "84e35457a4daad843ed3b3ef7fc3e04c63f47f944435c662c4c386e694482186", "13de71367eea19b44bbaae6edaaaccc542cc40c65bede4a4b95b51ad106beae9", id="m_catalan_4_1-ff"),
        pytest.param(lambda: random_deformation_a(5, random.Random(7), 2), ("chi",), "6c72bf88b36b1b5c858eaedc679a0c31304091dfe1751e3c681521eaeeb601d7", "0576b3b49df62b9bcb2990b9930c86e8c47df46530b49c4c9bd7d231a2d5d7b0", id="random_a5_seed7-chi"),
        pytest.param(lambda: random_deformation_a(5, random.Random(7), 2), ("verify", "--theorem=deletion-restriction"), "195b3f78087fb85dd65ab7e3739c932792e2e1b933063dfba988775fdc52071e", "6cf3686b12775ee0d277619fe0065054032f75f239b4d64800a3eb37d4103e92", id="random_a5_seed7-deletion_restriction"),
        pytest.param(lambda: random_deformation_a(5, random.Random(7), 2), ("verify", "--theorem=ff"), "76cc425ff1463e420862f25857be668568a71ac839dbc1a2ee68f6a383c65379", "21c8bea87280173de87baf42b6526e77e34f7a3a088b778a0cdb18dd6f461433", id="random_a5_seed7-ff"),
        pytest.param(lambda: make_cox_b(3), ("chi",), "3684271ec4036a796181d190cd2827fe4d1b685dc6fb587c26615f72188b09af", "30ca2cc266fd7591bc73f3ad860eb5d1b5259cec3caaf8f50168c8bf758350da", id="cox_b3-chi"),
        pytest.param(eighths_a5, ("chi",), "60ff324630d4b8acfc511b5f3b45d18405fa586a388cd27daa88d3815d9f0d1a", "7f0ad581aed1eec2967ecb8ff164bab60ffdd8d0b76a61c1532166c4a0d9ae71", id="eighths_a5-chi"),
        pytest.param(eighths_b4, ("chi",), "aeb48c6c53bf9705a676256579c6b7c77be4b56e40f8aa03792a6eab421bc2b0", "e1e9ecc0c7f7e3a1bd3c548cd385fe5577fc610d1618849920026f648c429ea9", id="eighths_b4-chi"),
        pytest.param(skew_r3, ("chi",), "b139627e5b47220a6660846c83250e4b8c90a2f750f21c2fb6cb022a36922812", "a40df84454f072303158e0650a9b673f8250a60fbf86be47534a160816340e5d", id="skew_r3-chi"),
        pytest.param(skew_r3, ("levels", "--regions"), "f563504883b0dfc7104ede5855267c7665e3166329bc741ccce49c7b2032ce73", "0cf2b13e5839212ba748d27e02c9333a7fbd774ecf9c62895de274a5ed60d103", id="skew_r3-levels_regions"),
        pytest.param(skew_r3, ("levels",), "d9129cc6cef5f352e94d38a0171e82d8fd0f8bf4aa8e3ad647ed5dcadf7fae25", "94334fd3dc2a836eef9face685a459c6099eb1ecfc40fa72bebc77caafb31463", id="skew_r3-levels"),
        pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=deletion-restriction"), "82b58436140413c8c71e38b3527ced4dad05c871f9ccd80d83428befd1f9febe", "544c4366d515ec460cc9520ef53266c005097e1dcb797f65d73c50339fdd2123", id="cox_b3-deletion_restriction"),
        pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=ff"), "88ad7c98668b8b4fd4bfcd6665fa1f66cbeb0d510ccdca4121436a257a53c196", "c0f821bd2d5eec6a7487412e6167dee76d69c97ccd572b38ab4331b49e42f4e0", id="cox_b3-ff"),
        pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), ("levels", "--regions"), "d714fcff671cd74ace59c2aa4810b24bbde415942977e8fd61d6843d091b3b25", "839652c325bf9b8875b223eab4f6ef028f5902a72d059e4cc759ec93c6f313a7", id="random_a4_seed7-levels_regions"),
        pytest.param(lambda: make_cox_b(3), ("levels", "--regions"), "39f25b9a923f81d8f9cca91a1949ba6d9d133ab017ae50c9f49a13cef128243d", "3f4624e3d72af29aff28a0de3841e59e91814ba5db2b437f5bfd31ec025e43c7", id="cox_b3-levels_regions"),
        pytest.param(lambda: random_deformation_b(3, random.Random(11)), ("levels", "--regions"), "42c782e2fb97571b2794e5c1eec40db1f7af5e6420051a0aa1a9c59bf2fe050a", "962e9e5af46e748e5848850db7280fb8a56c5bb52037b58642075ef0cd153a58", id="random_b3_seed11-levels_regions"),
        pytest.param(lambda: make_m_catalan(3, 1), ("levels", "--regions"), "9a10b7f7e265a60b11afd87f6fc06a526b917b91a58459052783a4492739e9b3", "336c1e68b495cb069af2711eb1d851861a74eb3254dc6aa6216e95e2259d1090", id="m_catalan_3_1-levels_regions"),
        pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), ("verify", "--theorem=A"), "2cf82c6a61b2d58c2bcb912005a30e63f6a9a25c40601ed3ed9f2a3844d88931", "c518c171ec36dad05aa3e9a09ea99780a634e6b15dbe338ec8ecc44b5d53d266", id="random_a4_seed7-A"),
        pytest.param(lambda: make_m_catalan(3, 1), ("verify", "--theorem=A"), "1858e2092bc0351dbc686b9ba9fc07efe4c9629166c24221c575891bced4eeff", "b270a7244ef39aae74669ac518051e7f0e484100201e87c511c0ba1c775030ff", id="m_catalan_3_1-A"),
        pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=B"), "5c6bbb5314cce6168bdc93834d61282e0f4fd50196a0cb85880371ff32438978", "dba531a79b59e1e836c9adef75005ebcc8764a3792cd823c7d861e5b61dc6dfb", id="cox_b3-B"),
        pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), ("verify", "--theorem=zaslavsky"), "38a6bdcaee27939a6c6e9f0a41d120a5815625f2cdc20da7db586d9189c2d887", "a7e24bbd484c00a9448074e9fc6c66d6f3393d6670a94f7bc2a98972530979cd", id="random_a4_seed7-zaslavsky"),
        pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=zaslavsky"), "25adabda9b77027ecfa9d80c3569224d16f645546aca7d9ec8fc42c9fe6a1a51", "16e4d2f9a52dca0d02325f0c22ffebc512ad3cc218402f93e16e7eea39f76441", id="cox_b3-zaslavsky"),
        pytest.param(eighths_b4, ("levels",), "bf015fc1b0dff618b6530b449f6887965e69a33319bbdf2e11e4f01c5f90c406", "3c604a5150106e2ec391b462f121f04587c87ead315f6b7650d462940e5b8833", id="eighths_b4-levels"),
        pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), ("levels",), "57a9f6df98ee1c778395579cee1b15c7775e068abdfdbe9861d510cc9d61f6ee", "f913ab213fc656753f9423da6671b13ed0560d26d42519380d28805a480ac142", id="random_a4_seed7-levels"),
        pytest.param(eighths_b4, ("verify", "--theorem=B"), "8a53c2ec82d92b3bb95bcd67984d59f836d340c83fa2aaa98267f8c2c3a73f06", "f0f44965f55d1efa3c6abc67bc91bf3c032acd78d761f729e36782697c3d5b24", id="eighths_b4-B"),
        pytest.param(unit_offsets_b4, ("verify", "--theorem=ff", "--primes", "4"), "45f36594f214609fac5241e446ee9ec066a449b618013f6ce77a25867513d6a9", "b8612cbb9bfb88042b4fe834193609be1dd6c621a1de367c4f953c708d5591a8", id="unit_offsets_b4-ff_primes_4"),
        pytest.param(lambda: delete(make_cox_b(3), 0), ("verify", "--theorem=zaslavsky"), "4f40ec56ae6dc5f94ec12d18859d343fe0468d385a5a9ea53d12ebe9f404e5ca", "16fbf82e1d15c732926f6e1bd70f0df26ae68911e939825b2330fc8b05068970", id="delete_cox_b3_0-zaslavsky"),
    ]

    @pytest.mark.parametrize("make, argv, json_digest, text_digest", PINNED)
    def test_json_digest(self, capsys, doc_path, make, argv, json_digest, text_digest):
        code, out, _ = run(capsys, argv[0], doc_path(make()), *argv[1:], "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == json_digest

    # The text form is derived from the JSON payload; it is pinned on its own.
    @pytest.mark.parametrize("make, argv, json_digest, text_digest", PINNED)
    def test_text_digest(self, capsys, doc_path, make, argv, json_digest, text_digest):
        code, out, _ = run(capsys, argv[0], doc_path(make()), *argv[1:])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == text_digest

    def test_incomplete_prime_plan_fails(self, capsys, doc_path):
        # q^7 within the point guard leaves only 3, 5 and 7: the plan is
        # incomplete, so the check fails with exit 1 and says why.
        path = doc_path(make_cox_a(7))
        code, out, err = run(capsys, "verify", path, "--theorem=ff", "--primes", "4")
        assert (code, err) == (1, "")
        assert out == (
            "finite-field count check\n"
            "  q=3: count 0, chi(3) = 0  [ok]\n"
            "  q=5: count 0, chi(5) = 0  [ok]\n"
            "  q=7: count 5040, chi(7) = 5040  [ok]\n"
            "  note: only 3 admissible prime(s) under the enumeration guard (requested 4)\n"
            "FAIL\n"
        )
        code, out, _ = run(capsys, "verify", path, "--theorem=ff", "--primes", "4", "--json")
        assert code == 1
        assert json.loads(out) == {
            "theorem": "ff",
            "rows": [
                {"q": 3, "count": 0, "chi": 0, "ok": True},
                {"q": 5, "count": 0, "chi": 0, "ok": True},
                {"q": 7, "count": 5040, "chi": 5040, "ok": True},
            ],
            "complete": False,
            "pass": False,
        }

    @pytest.mark.parametrize(
        "make, digest",
        [
            pytest.param(lambda example_a, _: example_a, "18adfb437876aa1b047883a35115366340baeeeb5586532bed4fd57390f48adc", id="example_a"),
            pytest.param(lambda *_: make_m_catalan(3, 1), "4fb1388ef44147e4c1819a6ca8569caed4be39037131ce9f592e8d02cfef765a", id="m_catalan_3_1"),
            pytest.param(lambda _, example_b: example_b, "f22d6bd86f6b3fbb99a5cfac6129463ae13575c035303a8d6087289d15d6f472", id="example_b"),
        ],
    )
    def test_render_digest(self, capsys, doc_path, example_a, example_b, make, digest):
        code, out, _ = run(capsys, "render", doc_path(make(example_a, example_b)), "--output", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Generator documents fix each family's hyperplane order.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(("cox_a", "-n", "4"), "0842971ad2320a4bafb350f41fb8f521a55039c884b872ec13bef7971add92c3", id="cox_a_4"),
            pytest.param(("cox_b", "-n", "3"), "5738266ed5da5a176566e5ce185d820ac96623231d34b150c94e84a7ae3dc23d", id="cox_b_3"),
            pytest.param(("catalan", "-n", "3", "--values", "2,1"), "21c0cb8319640bbeb7c195594b783eda9f1a5ccf08d4efd2e0fc0c9ddbdd728f", id="catalan_3_2_1"),
            pytest.param(("semiorder", "-n", "3", "--values", "2,1"), "3376cda83cecc3afd37293cfb936ddcae6757e65c67af7fec7b53607e78ac5de", id="semiorder_3_2_1"),
            pytest.param(("m_catalan", "-n", "3", "-m", "2"), "21c0cb8319640bbeb7c195594b783eda9f1a5ccf08d4efd2e0fc0c9ddbdd728f", id="m_catalan_3_2"),
            pytest.param(("random_a", "-n", "4", "--seed", "7"), "6f40ac23b274fb9912bcfac7c057731839c0b8b28fb82b50656694a2a460196f", id="random_a_4_seed7"),
            pytest.param(("random_b", "-n", "3", "--seed", "7"), "2e2c0167e2462d523d685dd0af97dbc2e5c806695f64320284ee7fd8ff1fe42e", id="random_b_3_seed7"),
        ],
    )
    def test_generate_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, "generate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "make, basis, digest",
        [
            pytest.param(lambda example_a: example_a, "binomial", "0031004872303fce66c5aa97fc9cd47448416b65d817f1ac83fd1678481fe796", id="example_a-binomial"),
            pytest.param(lambda example_a: example_a, "half", "cd4f459b4431659282ae19a65837f192b4dfd8ed78cf258e59031c308bf4a701", id="example_a-half"),
            pytest.param(lambda _: make_cox_b(3), "binomial", "1c439a3de10ae5b61791c6baad7284a507a5e54229ecaa7ca9914e8c9d39990f", id="cox_b3-binomial"),
            pytest.param(lambda _: make_cox_b(3), "half", "13aa926c118e63bee1d9daa1a07c7c4bd1dd84b5f020d2d30e940f787982adff", id="cox_b3-half"),
        ],
    )
    def test_chi_basis_digest(self, capsys, doc_path, example_a, make, basis, digest):
        code, out, _ = run(capsys, "chi", doc_path(make(example_a)), f"--basis={basis}", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "make, named",
        [
            pytest.param(lambda b3: delete(b3, 0), "x1", id="x1"),
            # cox_b(3) lists x1, x2, x3, x1-x2, x1+x2, x1-x3, x1+x3, x2-x3, x2+x3.
            pytest.param(
                lambda b3: Arrangement(3, [h for i, h in enumerate(b3) if i not in (1, 4, 5)]),
                "x2, x1+x2, x1-x3",
                id="interleaved",
            ),
        ],
    )
    def test_degenerate_type_b_stderr(self, capsys, doc_path, make, named):
        arr = make(make_cox_b(3))
        code, out, err = run(capsys, "verify", doc_path(arr), "--theorem=B")
        assert (code, out) == (3, "")
        assert err == f"hypothesis violation: degenerate: missing direction {named}\n"

    def test_degenerate_message_names_the_first_few(self, capsys, doc_path):
        # x1 - x2 = 0 in R^300 misses 44,849 of type A's directions; naming
        # each one made a 461,102-character line.
        arr = Arrangement(300, [Hyperplane((1, -1) + (0,) * 298, 0)])
        code, out, err = run(capsys, "verify", doc_path(arr), "--theorem=A")
        assert (code, out) == (3, "")
        assert len(err) < 300
        assert err == (
            "hypothesis violation: degenerate: missing direction x1-x3, x1-x4, x1-x5, "
            "x1-x6, x1-x7, x1-x8, x1-x9, x1-x10, … and 44841 more\n"
        )

    def test_degenerate_check_walks_no_whole_table(self, capsys, doc_path):
        # x1 - x2 = 0 in R^1000 misses 999,999 of type B's 10^6 directions.
        # The check counts them from the one form present and walks the
        # table only to its eighth missing form; building the whole table
        # took 1.6 s and a 124 MB tracemalloc peak.
        path = doc_path(Arrangement(1000, [Hyperplane((1, -1) + (0,) * 998, 0)]))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", path, "--theorem=B")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == (
            "hypothesis violation: degenerate: missing direction x1, x2, x3, x4, x5, x6, x7, x8, … and 999991 more\n"
        )
        assert elapsed < 0.5
        assert peak < 1 << 20
