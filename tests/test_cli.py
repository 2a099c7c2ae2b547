import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from family_oracle import boolean_transform_by_series, irreducible_counts_by_transfer, m_counts_by_series

import parsym
from parsym import algebra, cli, closures, diagrams, sequences
from parsym.cli import CLOSURE_FAMILIES, PHI_ORDER_CAP, SEQUENCE_NESTING_CAP, main
from parsym.closures import ClosureReport, DegreeChecks
from parsym.diagrams import PartitionDiagram, enumerate_diagrams, parse, render, tensor_fold, to_json_obj
from parsym.families import Family
from parsym.hopfcheck import AxiomReport, AxiomResult
from parsym.sequences import GfReport, even_bell_sequence, irreducible_count_sequence


# subprocesses import the package under test, whether installed or not
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(parsym.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOps:
    def test_bullet_product(self, capsys):
        code, out, _ = run_cli(capsys, "op", "bullet", "1,1'", "1/1'")
        assert code == 0
        assert out == "1,1',2'/2\n"

    def test_parse_render_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "op", "parse", "1',1")
        assert (code, out) == (0, "1,1'\n")
        code, out, _ = run_cli(capsys, "op", "render", '{"order":1,"blocks":[[1,-1]]}')
        assert (code, out) == (0, "1,1'\n")

    def test_round_trip_all_small_orders(self, capsys):
        for order, count in ((2, 15), (3, 203)):
            code, out, _ = run_cli(capsys, "enumerate", "--order", str(order))
            texts = out.splitlines()
            assert len(texts) == count
            for text in texts:
                code, echoed, _ = run_cli(capsys, "op", "parse", text)
                assert code == 0
                code, rendered, _ = run_cli(capsys, "op", "render", echoed.strip())
                assert rendered.strip() == text

    def test_vcompose(self, capsys):
        code, out, _ = run_cli(capsys, "op", "vcompose", "1/1'", "1/1'")
        assert (code, out) == (0, "1/1' removed=1\n")

    def test_coproduct_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "op", "coproduct", "1,2,3/4/1',2'/3',4'", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "()⦿1,2,3/4/1',2'/3',4'": "1",
            "1,2,3/1',2'/3'⦿1/1'": "1",
            "1,2,3/4/1',2'/3',4'⦿()": "1",
        }

    def test_coproduct_text_separator(self, capsys):
        _, out, _ = run_cli(capsys, "op", "coproduct", "1,1',2'/2")
        assert "|x|" in out

    def test_antipode_and_e_expand(self, capsys):
        _, s_out, _ = run_cli(capsys, "op", "antipode", "1,2,3/4/1',2'/3',4'")
        assert s_out.splitlines() == [
            "-1 1,2,3/4/1',2'/3',4'",
            "1 1,2,3/4/1',2'/3'/4'",
        ]
        _, e_out, _ = run_cli(capsys, "op", "e-expand", "1,2,3/4/1',2'/3',4'")
        assert e_out == s_out

    def test_chi_phi_zeta_qsym(self, capsys):
        _, out, _ = run_cli(capsys, "op", "chi", "1,2,3/4/1',2'/3',4'")
        assert out == "1 (2)\n"
        _, out, _ = run_cli(capsys, "op", "phi", "(2,1)")
        assert out == "1 1/2/3/1',2'/3'\n"
        _, out, _ = run_cli(capsys, "op", "zeta", "1,1'")
        assert out == "1\n"
        _, out, _ = run_cli(capsys, "op", "qsym-image", "1,2,3/4/1',2'/3',4'")
        assert out == "1 M(1,1)\n1 M(2)\n"

    def test_factorize(self, capsys):
        _, out, _ = run_cli(capsys, "op", "factorize", "1,2,1',2'/3/3'")
        assert out.splitlines() == ["1,2,1',2'", "1/1'"]
        _, out, _ = run_cli(capsys, "op", "bullet-decompose", "1/2/3/1',2',3'")
        assert out.splitlines() == ["1/1'", "1/1'", "1/1'"]

    def test_phi_at_order_cap(self, capsys, tmp_path):
        # many parts cost no more than one part of the same total
        parts = [1] * (PHI_ORDER_CAP // 2) + [PHI_ORDER_CAP // 2]
        target = tmp_path / "composition.txt"
        target.write_text(f"({','.join(map(str, parts))})", encoding="utf-8")
        code, out, err = run_cli(capsys, "op", "phi", f"@{target}")
        assert (code, err) == (0, "")
        [line] = out.splitlines()
        coeff, word = line.split(" ")
        assert coeff == "1"
        assert parse(word).order == PHI_ORDER_CAP

    def test_phi_above_order_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "op", "phi", f"(1,{PHI_ORDER_CAP})")
        assert (code, out) == (2, "")
        assert err == f"error: composition total {PHI_ORDER_CAP + 1} exceeds the cap {PHI_ORDER_CAP}\n"

    @pytest.mark.parametrize("verb", ["antipode", "e-expand"])
    def test_regrouping_above_bullet_cut_cap_is_usage_error(self, capsys, verb):
        # two one-block factors of 11 columns: 20 bullet cuts, 2^20 terms
        blocks = [[*range(1, 12), *range(-11, 0)], [*range(12, 23), *range(-22, -11)]]
        code, out, err = run_cli(capsys, "op", verb, render(PartitionDiagram(22, blocks)))
        assert (code, out) == (2, "")
        assert err == "error: 20 bullet cuts exceed the cap 19 (2^20 terms)\n"

    def test_coproduct_above_cut_choice_cap_is_usage_error(self, capsys):
        # 20 order-1 factors, each with two splits: 2^20 cut choices
        word = tensor_fold([parse("1,1'"), parse("1/1'")] * 10)
        code, out, err = run_cli(capsys, "op", "coproduct", render(word))
        assert (code, out) == (2, "")
        assert err == "error: 1048576 coproduct cut choices exceed the cap 2^19\n"

    def test_file_input(self, capsys, tmp_path):
        target = tmp_path / "diagram.txt"
        target.write_text("1,1'\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "op", "m", f"@{target}")
        assert (code, out) == (0, "1\n")

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "op", "bullet", "1,1'")
        assert code == 2
        assert "expects 2" in err

    def test_malformed_diagram_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "op", "m", "1,zz")
        assert code == 2
        assert "malformed token" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"order":1,"blocks":[["1",-1]]}',
            '{"order":1}',
            '{"order":"1","blocks":[[1,-1]]}',
            '{"order":1,"blocks":5}',
            '{"order":1,"blocks":[[true,-1]]}',
            '{"order":1.0,"blocks":[[1,-1]]}',
            '{"order":1,"blocks":[[],[1,-1]]}',
            '{"order":0,"blocks":[[]]}',
            '{"order":' + "[" * 200_000,
            "@TMP/missing.txt",
            "@TMP",
            "@TMP/bom.txt",
        ],
    )
    def test_malformed_json_diagram_is_usage_error(self, capsys, tmp_path, text):
        # @TMP names tmp_path, which holds bom.txt, two bytes that are not UTF-8
        (tmp_path / "bom.txt").write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "op", "render", text.replace("TMP", str(tmp_path)))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestEnumerateCount:
    def test_enumerate_order_one(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "--order", "1")
        assert out == "1,1'\n1/1'\n"

    def test_enumerate_json(self, capsys):
        # the streamed items join into the bytes of one json.dumps, [] included
        _, out, _ = run_cli(capsys, "enumerate", "--order", "1", "--json")
        assert out == json.dumps([
            {"order": 1, "blocks": [[1, -1]]},
            {"order": 1, "blocks": [[1], [-1]]},
        ]) + "\n"
        _, out, _ = run_cli(capsys, "enumerate", "--order", "0", "--irreducible", "--json")
        assert out == "[]\n"

    def test_enumerate_streams(self, capsys, monkeypatch):
        # each diagram prints as the walk yields it, so a walk that fails
        # after three diagrams has printed them; the cap check prints nothing
        first = list(enumerate_diagrams(2))[:3]

        def failing_walk(k, family, max_order=None):
            yield from first
            raise ValueError("walk failed")

        code, out, err = run_cli(capsys, "enumerate", "--order", "7", "--json")
        assert (code, out, err) == (2, "", "error: order 7 exceeds enumeration cap 6\n")
        monkeypatch.setattr(cli, "enumerate_family", failing_walk)
        code, out, err = run_cli(capsys, "enumerate", "--order", "2")
        assert (code, out, err) == (2, "".join(render(d) + "\n" for d in first), "error: walk failed\n")
        code, out, _ = run_cli(capsys, "enumerate", "--order", "2", "--json")
        assert (code, out) == (2, "[" + ", ".join(json.dumps(to_json_obj(d)) for d in first))

    def test_count_filters(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--order", "2")
        assert out == "15\n"
        _, out, _ = run_cli(capsys, "count", "--order", "2", "--irreducible")
        assert out == "11\n"
        _, out, _ = run_cli(
            capsys, "count", "--order", "2", "--family", "planar"
        )
        assert out == "14\n"
        _, out, _ = run_cli(
            capsys, "count", "--order", "2", "--irreducible", "--bullet-irreducible"
        )
        assert out == "7\n"

    def test_cap_and_override(self, capsys):
        code, _, err = run_cli(capsys, "count", "--order", "2", "--max-order", "1")
        assert code == 2 and "cap" in err
        code, out, _ = run_cli(capsys, "count", "--order", "2", "--max-order", "2")
        assert (code, out) == (0, "15\n")

    @pytest.mark.parametrize("family", [None, *(f.value for f in Family)])
    @pytest.mark.parametrize(
        "flags",
        [(), ("--irreducible",), ("--bullet-irreducible",), ("--irreducible", "--bullet-irreducible")],
    )
    def test_count_is_enumerate_line_count(self, capsys, family, flags):
        # count tallies, with no diagram built, what enumerate lists
        args = (*flags, *(("--family", family) if family else ()))
        for order in range(5):
            _, listed, _ = run_cli(capsys, "enumerate", "--order", str(order), *args)
            lines = len(listed.splitlines())
            _, out, _ = run_cli(capsys, "count", "--order", str(order), *args)
            assert out == f"{lines}\n"
            _, out, _ = run_cli(capsys, "count", "--order", str(order), "--json", *args)
            assert out == json.dumps(lines) + "\n"

    @pytest.mark.parametrize("flag", ["--irreducible", "--bullet-irreducible"])
    def test_both_count_paths_share_the_cap(self, capsys, flag):
        code, _, err = run_cli(capsys, "count", "--order", "7", flag)
        assert (code, err) == (2, "error: order 7 exceeds enumeration cap 6\n")
        code, _, err = run_cli(capsys, "count", "--order", "2", "--max-order", "1", flag)
        assert (code, err) == (2, "error: order 2 exceeds enumeration cap 1\n")
        code, out, _ = run_cli(capsys, "count", "--order", "2", "--max-order", "2", flag)
        # 11 diagrams of order 2 are tensor-irreducible, and 11 bullet-irreducible
        assert (code, out) == (0, "11\n")

    def test_order_six_counts(self, capsys):
        # the bullet-irreducible diagrams number a_k, as the tensor-irreducible
        # ones do; --bullet-irreducible walks all of order 6, --irreducible
        # counts column by column
        a6 = irreducible_counts_by_transfer(6)[-1]
        for flag in ("--irreducible", "--bullet-irreducible"):
            assert run_cli(capsys, "count", "--order", "6", flag) == (0, f"{a6}\n", "")

    def test_counts_build_no_diagram(self, capsys, monkeypatch):
        runs = [
            ("count", "--order", "4", "--irreducible"),
            ("count", "--order", "4", "--bullet-irreducible"),
            ("count", "--order", "4", "--irreducible", "--bullet-irreducible"),
            ("count", "--order", "4", "--bullet-irreducible", "--family", "planar-matching"),
            ("hist", "m", "--order", "4"),
            ("hist", "m", "--order", "4", "--family", "planar"),
        ]
        expected = [run_cli(capsys, *argv) for argv in runs]

        def no_diagram(labels):
            raise AssertionError("a diagram was built")

        monkeypatch.setattr(diagrams, "_diagram", no_diagram)
        with pytest.raises(AssertionError):
            run_cli(capsys, "enumerate", "--order", "1")
        assert [run_cli(capsys, *argv) for argv in runs] == expected


class TestSeq:
    def test_a_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "a", "--terms", "7")
        assert code == 0
        assert out.splitlines() == [
            "2",
            "11",
            "151",
            "3267",
            "96663",
            "3663123",
            "171131871",
        ]

    def test_a_sequence_beyond_composition_cap(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "a", "--terms", "30")
        assert code == 0
        expected = boolean_transform_by_series(even_bell_sequence(30))
        assert [int(line) for line in out.splitlines()] == expected

    def test_bell_and_even(self, capsys):
        _, out, _ = run_cli(capsys, "seq", "bell", "--terms", "5")
        assert out.splitlines() == ["1", "2", "5", "15", "52"]
        _, out, _ = run_cli(capsys, "seq", "bell-even", "--terms", "3")
        assert out.splitlines() == ["2", "15", "203"]

    def test_dim_requires_family(self, capsys):
        code, _, err = run_cli(capsys, "seq", "dim", "--terms", "3")
        assert code == 2
        _, out, _ = run_cli(
            capsys, "seq", "dim", "--terms", "3", "--family", "planar"
        )
        assert out.splitlines() == ["2", "14", "132"]
        _, out, _ = run_cli(capsys, "seq", "dim(perfect-matching)", "--terms", "3")
        assert out.splitlines() == ["1", "3", "15"]

    def test_boolean_forms(self, capsys):
        _, plain, _ = run_cli(capsys, "seq", "boolean", "--terms", "4")
        assert plain.splitlines() == ["2", "11", "151", "3267"]
        _, named, _ = run_cli(capsys, "seq", "boolean(bell-even)", "--terms", "4")
        assert named == plain
        _, perm, _ = run_cli(
            capsys, "seq", "boolean", "--terms", "4", "--family", "permutation"
        )
        assert perm.splitlines() == ["1", "1", "3", "13"]
        _, nested, _ = run_cli(capsys, "seq", "boolean(dim(permutation))", "--terms", "4")
        assert nested == perm

    def test_unknown_sequence(self, capsys):
        code, _, err = run_cli(capsys, "seq", "fib", "--terms", "3")
        assert code == 2 and "unknown sequence" in err


class TestVerify:
    def test_hopf_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hopf", "--max-degree", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "coassociativity: PASS"
        assert "takeuchi: PASS" in lines
        assert all(line.endswith("PASS") for line in lines)

    def test_hopf_refuses_above_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "hopf", "--max-degree", "5")
        assert (code, out) == (2, "")
        assert "capped at degree 4" in err

    def test_gf_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gf")
        assert (code, out) == (0, "gf-identity: PASS (order 7)\n")

    def test_closure_single_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "closure", "--family", "planar", "--max-degree", "3"
        )
        assert (code, out) == (0, "planar: PASS (degrees 1..3)\n")

    def test_closure_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "closure")
        assert code == 0
        assert len(out.splitlines()) == 8

    def test_closure_sweep_at_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "closure", "--max-degree", "5")
        assert code == 0
        assert [line.endswith(": PASS (degrees 1..5)") for line in out.splitlines()] == [True] * 8
        code, out, err = run_cli(capsys, "verify", "closure", "--max-degree", "6")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counts", "--terms", "4")
        assert code == 0
        assert "permutation: PASS (1 1 3 13)" in out

    def test_counts_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counts", "--json")
        data = json.loads(out)
        assert data["passed"] is True

    def test_counts_planar_composites(self, capsys):
        # the default set keeps five families; the planar composites answer
        # under --family, against the Catalan, Motzkin and central binomial numbers
        expected = {
            "planar-perfect-matching": ("1 1 2 5 14 42", "1 2 5 14 42 132"),
            "planar-matching": ("2 5 23 130 820 5537", "2 9 51 323 2188 15511"),
            "planar-partial-permutation": ("2 2 4 10 28 84", "2 6 20 70 252 924"),
        }
        for family, (counted, dims) in expected.items():
            code, out, _ = run_cli(capsys, "verify", "counts", "--terms", "6", "--family", family)
            assert (code, out) == (0, f"{family}: PASS ({counted})\n")
            code, out, _ = run_cli(capsys, "seq", f"dim({family})", "--terms", "6")
            assert (code, out.split()) == (0, dims.split())
        code, out, _ = run_cli(capsys, "verify", "counts")
        assert [line.split(":")[0] for line in out.splitlines()] == [f.value for f in cli.FORMULA_FAMILIES]
        assert len(cli.FORMULA_FAMILIES) == 5


class TestVerifyFail:
    """The FAIL reports, which no real input reaches, from failing reports
    patched into the library: exact text and JSON, exit 1."""

    @pytest.fixture
    def failing(self, monkeypatch):
        def closure_report(family, max_degree):
            ok = family is not Family.PLANAR
            checks = {k: DegreeChecks(ok or k < 2, True, ok or k < 2, k) for k in range(1, max_degree + 1)}
            return ClosureReport(family, max_degree, checks, None if ok else (parse("1,2/1',2'"), "antipode"))

        counts = closures.family_generator_counts
        axioms = (AxiomResult("coassociativity", True), AxiomResult("counit", False, "at 1*1,1'"), AxiomResult("takeuchi", True))
        monkeypatch.setattr(closures, "closure_report", closure_report)
        monkeypatch.setattr(algebra, "verify_hopf_axioms", lambda k: AxiomReport("parsym", k, axioms))
        monkeypatch.setattr(
            closures,
            "family_generator_counts",
            lambda f, n: [*counts(f, n)[:-1], 0] if f is Family.MATCHING else counts(f, n),
        )
        monkeypatch.setattr(sequences, "verify_gf_identity", lambda n: GfReport(n, (0, 2, 11), (0, 2, 12)))

    @pytest.mark.parametrize(
        "argv, out",
        [
            ("verify hopf", "coassociativity: PASS\ncounit: FAIL (at 1*1,1')\ntakeuchi: PASS\n"),
            (
                "verify hopf --json",
                '{"algebra": "parsym", "max_degree": 2, "checks": [{"name": "coassociativity", "passed": true, '
                '"counterexample": null}, {"name": "counit", "passed": false, "counterexample": "at 1*1,1\'"}, '
                '{"name": "takeuchi", "passed": true, "counterexample": null}], "passed": false}\n',
            ),
            ("verify gf --terms 2", "gf-identity: FAIL (first mismatch at x^2)\n"),
            (
                "verify gf --terms 2 --json",
                '{"truncation_order": 2, "equal": false, "first_mismatch": 2, "lhs": ["0", "2", "11"], '
                '"rhs": ["0", "2", "12"]}\n',
            ),
            (
                "verify closure",
                "permutation: PASS (degrees 1..3)\nplanar: FAIL (antipode at 1,2/1',2')\n"
                "matching: PASS (degrees 1..3)\nperfect-matching: PASS (degrees 1..3)\n"
                "partial-permutation: PASS (degrees 1..3)\nplanar-perfect-matching: PASS (degrees 1..3)\n"
                "planar-matching: PASS (degrees 1..3)\nplanar-partial-permutation: PASS (degrees 1..3)\n",
            ),
            ("verify closure --family planar --max-degree 2", "planar: FAIL (antipode at 1,2/1',2')\n"),
            (
                "verify closure --family planar --max-degree 2 --json",
                '{"max_degree": 2, "families": [{"family": "planar", "passed": false, "checks": '
                '{"1": {"tensor_closed": true, "delta_closed": true, "antipode_closed": true, "primitive_count": 1}, '
                '"2": {"tensor_closed": false, "delta_closed": true, "antipode_closed": false, "primitive_count": 2}}, '
                '"counterexample": {"diagram": "1,2/1\',2\'", "check": "antipode"}}], "passed": false}\n',
            ),
            (
                "verify counts --terms 3",
                "permutation: PASS (1 1 3)\nplanar: PASS (2 10 84)\nmatching: FAIL (2 6 0)\n"
                "perfect-matching: PASS (1 2 10)\npartial-permutation: PASS (2 3 14)\n",
            ),
            (
                "verify counts --terms 3 --json",
                '{"terms": 3, "families": [{"family": "permutation", "counted": ["1", "1", "3"], '
                '"expected": ["1", "1", "3"], "passed": true}, {"family": "planar", "counted": ["2", "10", "84"], '
                '"expected": ["2", "10", "84"], "passed": true}, {"family": "matching", "counted": ["2", "6", "0"], '
                '"expected": ["2", "6", "44"], "passed": false}, {"family": "perfect-matching", '
                '"counted": ["1", "2", "10"], "expected": ["1", "2", "10"], "passed": true}, '
                '{"family": "partial-permutation", "counted": ["2", "3", "14"], "expected": ["2", "3", "14"], '
                '"passed": true}], "passed": false}\n',
            ),
        ],
    )
    def test_fail_report(self, capsys, failing, argv, out):
        assert run_cli(capsys, *argv.split()) == (1, out, "")

    def test_closure_sweep_json_digest(self, capsys, failing):
        code, out, err = run_cli(capsys, "verify", "closure", "--json")
        assert (code, err) == (1, "")
        data = json.loads(out)
        assert [f["passed"] for f in data["families"]] == [f is not Family.PLANAR for f in CLOSURE_FAMILIES]
        assert data["passed"] is False
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "ad6ff92fef51605db2df9d75d542ee6a70a495f6d99c706a456c133ea837f6da"


class TestHist:
    def test_m_histogram(self, capsys):
        code, out, _ = run_cli(capsys, "hist", "m", "--order", "2")
        assert (code, out) == (0, "m=1 11\nm=2 4\n")
        _, out, _ = run_cli(
            capsys, "hist", "m", "--order", "2", "--family", "permutation", "--json"
        )
        assert json.loads(out) == {"1": 2}

    def test_order_six_against_series_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "hist", "m", "--order", "6", "--json")
        assert code == 0
        assert {int(m): n for m, n in json.loads(out).items()} == m_counts_by_series(6)

    def test_unknown_stat(self, capsys):
        code, _, err = run_cli(capsys, "hist", "q", "--order", "2")
        assert code == 2

    def test_enumeration_cap(self, capsys):
        # hist walks the members enumerate lists, under the same cap
        code, out, err = run_cli(capsys, "hist", "m", "--order", "7")
        assert (code, out, err) == (2, "", "error: order 7 exceeds enumeration cap 6\n")
        code, out, err = run_cli(capsys, "hist", "m", "--order", "2", "--max-order", "1")
        assert (code, out, err) == (2, "", "error: order 2 exceeds enumeration cap 1\n")


class TestSizes:
    @pytest.mark.parametrize(
        "argv",
        [
            "seq a --terms -1",
            "seq bell --terms 0",
            "verify gf --terms 0",
            "verify counts --terms 0",
            "verify counts --terms -2",
            "verify closure --max-degree 0",
            "verify closure --max-degree -1",
            "verify hopf --max-degree 0",
            "verify hopf --max-degree -1",
            "count --order -1",
            "enumerate --order -1",
            "hist m --order -1",
            "op phi (1,,2)",
            "op phi (1",
        ],
    )
    def test_nonpositive_size_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", ["count --order 2", "enumerate --order 2", "hist m --order 2"])
    def test_negative_max_order_is_malformed(self, capsys, argv):
        # refused as input, not as a cap the order exceeds
        code, out, err = run_cli(capsys, *argv.split(), "--max-order", "-3")
        assert (code, out, err) == (2, "", "error: --max-order must be nonnegative, got -3\n")
        assert run_cli(capsys, *argv.split()[:-1], "0", "--max-order", "0")[0] == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("verify hopf --family planar", "--family"),
            ("verify hopf --terms 3", "--terms"),
            ("verify gf --max-degree 3", "--max-degree"),
            ("verify gf --family planar", "--family"),
            ("verify closure --terms 3", "--terms"),
            ("verify counts --max-degree 3", "--max-degree"),
        ],
    )
    def test_flag_the_target_ignores_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: verify {argv.split()[1]} does not take {flag}\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            ("seq a --terms 5 --family planar", "a"),
            ("seq a --terms 5 --family bogus", "a"),
            ("seq bell --terms 5 --family planar", "bell"),
            ("seq bell-even --terms 5 --family matching", "bell-even"),
            ("seq dim(planar) --terms 5 --family planar", "dim(planar)"),
            ("seq boolean(a) --terms 5 --family planar", "a"),
            ("seq boolean(dim(permutation)) --terms 5 --family bogus", "dim(permutation)"),
            ("seq fib --terms 5 --family planar", "fib"),
        ],
    )
    def test_seq_refuses_family_it_does_not_read(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: seq {name} does not take --family\n"

    def test_op_render_refuses_json(self, capsys):
        code, out, err = run_cli(capsys, "op", "render", "1,1'", "--json")
        assert (code, out, err) == (2, "", "error: op render does not take --json\n")

    @pytest.mark.parametrize(
        "argv", ["seq a --terms 99999999999", "verify gf --terms 99999999"]
    )
    def test_terms_above_sequence_cap_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err

    def test_nesting_above_cap_refused(self, capsys):
        name = "boolean(" * 1200 + "a" + ")" * 1200
        code, out, err = run_cli(capsys, "seq", name, "--terms", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err

    def test_nesting_at_cap(self, capsys):
        name = "boolean(" * SEQUENCE_NESTING_CAP + "a" + ")" * SEQUENCE_NESTING_CAP
        code, out, _ = run_cli(capsys, "seq", name, "--terms", "5")
        expected = irreducible_count_sequence(5)
        for _ in range(SEQUENCE_NESTING_CAP):
            expected = boolean_transform_by_series(expected)
        assert code == 0
        assert [int(line) for line in out.splitlines()] == expected

    def test_order_zero_is_the_empty_diagram(self, capsys):
        assert run_cli(capsys, "enumerate", "--order", "0") == (0, "()\n", "")
        assert run_cli(capsys, "hist", "m", "--order", "0") == (0, "m=0 1\n", "")


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys):
        for argv in (
            ["enumerate", "--order", "2"],
            ["op", "antipode", "1,2,3/4/1',2'/3',4'"],
            ["verify", "hopf", "--max-degree", "1"],
            ["hist", "m", "--order", "3", "--family", "matching"],
        ):
            _, first, _ = run_cli(capsys, *argv)
            _, second, _ = run_cli(capsys, *argv)
            assert first == second

    def test_reused_parser_after_usage_error(self, capsys):
        # one parser serves every call in a process; a refused argv must
        # leave it as a fresh process finds it
        bad = ["op", "no-such-verb", "1/1'"]
        good = ["op", "antipode", "1,2,3/4/1',2'/3',4'"]
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "parsym", *argv],
                capture_output=True,
                text=True,
                env=SUBPROCESS_ENV,
            )
            for argv in (bad, good)
        ]
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert (exc.value.code, fresh[0].returncode) == (2, 2)
        assert capsys.readouterr().err == fresh[0].stderr
        assert run_cli(capsys, *good) == (0, fresh[1].stdout, "")

    def test_console_script_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "parsym.cli", "seq", "a", "--terms", "3"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0
        assert result.stdout == "2\n11\n151\n"

    def test_module_entry_point_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "parsym", "count", "--order", "1"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert (result.returncode, result.stdout) == (0, "2\n")
