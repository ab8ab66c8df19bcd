import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from xml.dom import minidom

import pytest

import levelarr
from levelarr.arrangement import make_cox_b, make_m_catalan, random_deformation_a
from levelarr.cli import main
from levelarr.document import document_of, dumps_document, loads_document


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


def test_import_leaves_numpy_unloaded():
    # Only the finite-field point count needs numpy; no command pays for
    # loading it at start-up.
    src = str(Path(levelarr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, levelarr.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


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

    def test_region_listing_consistent(self, capsys, doc_path, example_b):
        code, out, _ = run(capsys, "levels", doc_path(example_b), "--regions")
        assert code == 0
        region_lines = [l for l in out.splitlines() if l.startswith("region ")]
        assert len(region_lines) == 10
        assert all(re.match(r"region [+-]{4} level \d witness \(", l) for l in region_lines)

    def test_type_b_json_matches_lp_levels(self, capsys, doc_path, monkeypatch):
        # Type B levels come from the signed digraph; the same document with
        # every level taken from the cone-span LP prints the same bytes.
        import random

        from levelarr import regions
        from levelarr.arrangement import random_deformation_b
        from levelarr.exactmath import cone_span_dimension

        arr = random_deformation_b(3, random.Random(11))
        path = doc_path(arr)
        code, digraph_out, _ = run(capsys, "levels", path, "--regions", "--json")
        assert code == 0

        lp_calls = []

        def lp_level(edges, signs, n):
            lp_calls.append(signs)
            return cone_span_dimension([(h.normal, s) for h, s in zip(arr.hyperplanes, signs)], dim=n)

        monkeypatch.setattr(regions, "_digraph_level", lp_level)
        code, lp_out, _ = run(capsys, "levels", path, "--regions", "--json")
        assert code == 0
        assert len(lp_calls) == json.loads(lp_out)["total"] > 100
        assert digraph_out == lp_out


class TestVerify:
    def test_theorem_a_pass(self, capsys, doc_path, example_a):
        code, out, _ = run(capsys, "verify", doc_path(example_a), "--theorem=A")
        assert code == 0
        assert out.rstrip().endswith("PASS")

    def test_theorem_b_pass(self, capsys, doc_path, example_b):
        code, out, _ = run(capsys, "verify", doc_path(example_b), "--theorem=B")
        assert code == 0

    def test_theorem_b_catches_a_wrong_level(self, capsys, doc_path, monkeypatch, example_b):
        # chi is an independent check of the digraph levels: one region off
        # by one fails the verification.
        from levelarr import regions
        from levelarr.cli import EXIT_VERIFY_FAILED

        exact = regions._digraph_level
        calls = []

        def off_by_one(edges, signs, n):
            level = exact(edges, signs, n)
            calls.append(signs)
            if len(calls) == 1:
                return level - 1 if level else 1
            return level

        monkeypatch.setattr(regions, "_digraph_level", off_by_one)
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

    @pytest.mark.parametrize(
        "make, argv, digest",
        [
            pytest.param(lambda: make_m_catalan(4, 1), ("chi",), "e7eddf377739c9a334b79819d7e7803c7fe0e9a10bf90b6663c2eb1eff1f5d0e", id="m_catalan_4_1-chi"),
            pytest.param(lambda: make_m_catalan(4, 1), ("verify", "--theorem=deletion-restriction"), "eb63d66dc96c8876f6302a9770e9bf9c428f3cea6d90d90fc7f8128a8f5f7964", id="m_catalan_4_1-deletion_restriction"),
            pytest.param(lambda: make_m_catalan(4, 1), ("verify", "--theorem=ff"), "84e35457a4daad843ed3b3ef7fc3e04c63f47f944435c662c4c386e694482186", id="m_catalan_4_1-ff"),
            pytest.param(lambda: random_deformation_a(5, random.Random(7), 2), ("chi",), "6c72bf88b36b1b5c858eaedc679a0c31304091dfe1751e3c681521eaeeb601d7", id="random_a5_seed7-chi"),
            pytest.param(lambda: random_deformation_a(5, random.Random(7), 2), ("verify", "--theorem=deletion-restriction"), "195b3f78087fb85dd65ab7e3739c932792e2e1b933063dfba988775fdc52071e", id="random_a5_seed7-deletion_restriction"),
            pytest.param(lambda: random_deformation_a(5, random.Random(7), 2), ("verify", "--theorem=ff"), "76cc425ff1463e420862f25857be668568a71ac839dbc1a2ee68f6a383c65379", id="random_a5_seed7-ff"),
            pytest.param(lambda: make_cox_b(3), ("chi",), "3684271ec4036a796181d190cd2827fe4d1b685dc6fb587c26615f72188b09af", id="cox_b3-chi"),
            pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=deletion-restriction"), "82b58436140413c8c71e38b3527ced4dad05c871f9ccd80d83428befd1f9febe", id="cox_b3-deletion_restriction"),
            pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=ff"), "88ad7c98668b8b4fd4bfcd6665fa1f66cbeb0d510ccdca4121436a257a53c196", id="cox_b3-ff"),
            pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), ("levels", "--regions"), "d714fcff671cd74ace59c2aa4810b24bbde415942977e8fd61d6843d091b3b25", id="random_a4_seed7-levels_regions"),
            pytest.param(lambda: make_cox_b(3), ("levels", "--regions"), "39f25b9a923f81d8f9cca91a1949ba6d9d133ab017ae50c9f49a13cef128243d", id="cox_b3-levels_regions"),
            pytest.param(lambda: make_m_catalan(3, 1), ("levels", "--regions"), "9a10b7f7e265a60b11afd87f6fc06a526b917b91a58459052783a4492739e9b3", id="m_catalan_3_1-levels_regions"),
            pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), ("verify", "--theorem=A"), "2cf82c6a61b2d58c2bcb912005a30e63f6a9a25c40601ed3ed9f2a3844d88931", id="random_a4_seed7-A"),
            pytest.param(lambda: make_m_catalan(3, 1), ("verify", "--theorem=A"), "1858e2092bc0351dbc686b9ba9fc07efe4c9629166c24221c575891bced4eeff", id="m_catalan_3_1-A"),
            pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=B"), "5c6bbb5314cce6168bdc93834d61282e0f4fd50196a0cb85880371ff32438978", id="cox_b3-B"),
            pytest.param(lambda: random_deformation_a(4, random.Random(7), 2), ("verify", "--theorem=zaslavsky"), "38a6bdcaee27939a6c6e9f0a41d120a5815625f2cdc20da7db586d9189c2d887", id="random_a4_seed7-zaslavsky"),
            pytest.param(lambda: make_cox_b(3), ("verify", "--theorem=zaslavsky"), "25adabda9b77027ecfa9d80c3569224d16f645546aca7d9ec8fc42c9fe6a1a51", id="cox_b3-zaslavsky"),
        ],
    )
    def test_json_digest(self, capsys, doc_path, make, argv, digest):
        code, out, _ = run(capsys, argv[0], doc_path(make()), *argv[1:], "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "make, digest",
        [
            pytest.param(lambda example_a: example_a, "18adfb437876aa1b047883a35115366340baeeeb5586532bed4fd57390f48adc", id="example_a"),
            pytest.param(lambda _: make_m_catalan(3, 1), "4fb1388ef44147e4c1819a6ca8569caed4be39037131ce9f592e8d02cfef765a", id="m_catalan_3_1"),
        ],
    )
    def test_render_digest(self, capsys, doc_path, example_a, make, digest):
        code, out, _ = run(capsys, "render", doc_path(make(example_a)), "--output", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
