import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from xml.dom import minidom

import pytest

import levelarr
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
