import hashlib
import importlib
import json

import pytest

import lapspec.families
from helpers import run_python
from lapspec.cli import build_parser, main
from lapspec.expr import Complement, Complete, Join, Repeat, Union, parse
from lapspec.realize import graph6_encode, realize
from lapspec.spectrum import Spectrum


def g6(expr_text):
    return graph6_encode(realize(parse(expr_text)))


class TestEval:
    def test_table(self, capsys):
        assert main(["eval", "2K2 * 2K2"]) == 0
        out = capsys.readouterr().out
        assert "n                  8" in out
        assert "14 (14.000000)" in out
        assert "L-borderenergetic  yes" in out

    def test_json(self, capsys):
        assert main(["eval", "2K2 * 2K2", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {
            "n": 8,
            "m": 20,
            "dbar": [5, 1],
            "le": [14, 1],
            "target": 14,
            "borderenergetic": True,
        }

    def test_parse_error_exits_2(self, capsys):
        assert main(["eval", "K1 +"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("K\u00b2", "unexpected character '\u00b2' (at offset 1)"),
            ("K1\u00b2", "unexpected character '\u00b2' (at offset 2)"),
            ("\u00b2K1", "unexpected character '\u00b2' (at offset 0)"),
            ("K" + "1" * 5000, f"integer literal {'1' * 5000} exceeds 1000000000 (at offset 1)"),
            ("K1 007", "expected end of input, found '007' (at offset 3)"),
            ("K1 \u0663", "expected end of input, found '\u0663' (at offset 3)"),
            ("(K1 007", "expected ')', found '007' (at offset 4)"),
        ],
        ids=[
            "K-superscript", "K1-superscript", "superscript-K1", "5000-digits",
            "leading-zeros", "arabic-indic-digit", "leading-zeros-in-group",
        ],
    )
    def test_bad_literals_exit_2(self, text, message, capsys):
        assert main(["eval", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSpectrum:
    def test_json(self, capsys):
        assert main(["spectrum", "2K2 * 2K2", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"n": 8, "eigs": [[0, 1, 1], [4, 1, 2], [6, 1, 4], [8, 1, 1]]}

    def test_table_has_one_row_per_eigenvalue(self, capsys):
        assert main(["spectrum", "K4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "order 4"
        assert len(lines) == 2 + 2  # header rows plus two distinct eigenvalues


class TestCospectral:
    def test_not_cospectral(self, capsys):
        assert main(["cospectral", "K8", "2K2 * 2K2"]) == 0
        assert capsys.readouterr().out.strip() == "not cospectral"

    def test_cospectral(self, capsys):
        assert main(["cospectral", "(K2 + 3K1) * 3K1", "3K1 * (3K1 + (K1 * 1K1))"]) == 0
        assert capsys.readouterr().out.strip() == "cospectral"

    def test_json(self, capsys):
        assert main(["cospectral", "K2", "K1 * K1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"cospectral": True}


class TestDeepExpressions:
    def test_long_join_chain(self, capsys):
        assert main(["eval", " * ".join(["K1"] * 2000)]) == 0
        out = capsys.readouterr().out
        assert "n                  2000" in out
        assert "complete graph     yes" in out

    def test_long_union_chain(self, capsys):
        assert main(["cospectral", " + ".join(["K2"] * 3000), "3000K2"]) == 0
        assert capsys.readouterr().out == "cospectral\n"

    def test_long_complement_chain(self, capsys):
        assert main(["spectrum", "~" * 3000 + "K2"]) == 0
        out = capsys.readouterr().out
        assert main(["spectrum", "K2"]) == 0
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("depth", [200, 201, 1200, 10**4])
    def test_parentheses_nest_to_any_depth(self, depth, capsys):
        assert main(["eval", "(" * depth + "K3" + ")" * depth, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["n"] == 3

    @pytest.mark.parametrize("terms", [300, 5000])
    def test_rendered_chain_reads_back(self, terms, capsys):
        chain = " * ".join(["K1"] * terms)
        assert main(["eval", chain]) == 0
        out = capsys.readouterr().out
        rendered = next(line.split(None, 1)[1] for line in out.splitlines() if line.startswith("expression "))
        assert rendered.count("(") == terms - 1
        assert main(["eval", rendered]) == 0
        assert capsys.readouterr().out == out
        assert main(["spectrum", chain]) == 0
        spectrum = capsys.readouterr().out
        assert main(["spectrum", rendered]) == 0
        assert capsys.readouterr().out == spectrum
        assert main(["cospectral", rendered, chain]) == 0
        assert capsys.readouterr().out == "cospectral\n"


class TestNoTree:
    """The commands that print no expression compose its spectrum while parsing."""

    OMEGA1_R2 = "(2K1 + (K1 * 3K1)) * (2K1 + (K1 * 3K1))"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", OMEGA1_R2, "--json"],
            ["spectrum", OMEGA1_R2],
            ["spectrum", OMEGA1_R2, "--json"],
            ["cospectral", OMEGA1_R2, "~(3K2 + 2K1)"],
            ["cospectral", OMEGA1_R2, OMEGA1_R2, "--json"],
        ],
    )
    def test_builds_no_expression_node(self, argv, monkeypatch, capsys):
        assert main(argv) == 0
        expected = capsys.readouterr()

        def refuse(node, *args):
            raise AssertionError(f"built a {type(node).__name__} node")

        for node_class in (Complete, Union, Join, Repeat, Complement):
            monkeypatch.setattr(node_class, "__init__", refuse)
        with pytest.raises(AssertionError, match="built a Complete node"):
            parse("K1")
        assert main(argv) == 0
        assert capsys.readouterr() == expected


class TestVerifyFamily:
    def test_r1_all_families_pass(self, capsys):
        assert main(["verify-family", "--id", "all", "--r-max", "1", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9 + 3  # nine fixed ids plus Gir i=0..2
        assert all(json.loads(line)["passed"] for line in lines)

    def test_r3_reports_the_known_energy_failures(self, capsys):
        # G24/G34 meet the energy target only at r=1, so a sweep to r=3
        # must flag them at r=2,3 and exit nonzero.
        assert main(["verify-family", "--id", "all", "--r-max", "3", "--json"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 * 9 + (3 + 5 + 7)
        failing = [json.loads(line) for line in lines if not json.loads(line)["passed"]]
        assert sorted((f["id"], f["r"]) for f in failing) == [
            ("G24", 2),
            ("G24", 3),
            ("G34", 2),
            ("G34", 3),
        ]
        assert all(f["spectra_match"] for f in failing)
        assert all(not f["le_matches_target"] for f in failing)

    def test_single_family_table(self, capsys):
        assert main(["verify-family", "--id", "Omega2", "--r-max", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2  # header plus one row per r
        assert lines[1].endswith("PASS")

    def test_gir_sweep_count(self, capsys):
        assert main(["verify-family", "--id", "Gir", "--r-max", "2", "--json"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3 + 5

    def test_injected_mismatch_exits_1(self, capsys, monkeypatch):
        wrong = Spectrum.from_pairs(8, [(0, 1), (8, 7)])
        monkeypatch.setattr(lapspec.families, "closed_form_spectrum", lambda spec: wrong)
        assert main(["verify-family", "--id", "Omega1", "--r-max", "1"]) == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_r_max_below_one_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-family", "--id", "all", "--r-max", value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--r-max: must be at least 1" in captured.err

    def test_r_max_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-family", "--id", "all"])
        assert excinfo.value.code == 2


class TestScanCommand:
    def test_scan_table_and_outputs(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text("\n".join([g6("K4"), "junk!", g6("2K1 * 2K1")]) + "\n")
        jsonl = tmp_path / "out.jsonl"
        csv_out = tmp_path / "out.csv"
        rc = main(["scan", str(path), "--json", str(jsonl), "--csv", str(csv_out)])
        assert rc == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert len(rows) == 2
        assert rows[0].split()[-1] == "certified_hit"
        assert rows[1].split()[-1] == "miss"
        assert "line 2:" in captured.err
        assert len(jsonl.read_text().splitlines()) == 2
        assert csv_out.read_text().splitlines()[0] == "index,g6,n,le,verdict"

    def test_non_ascii_byte_rejects_only_its_line(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_bytes(b"C~\nA\xc3\xa9\nBw\n")
        assert main(["scan", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0] == "line 2: non-ASCII character in graph6 record"
        assert [row.split()[:2] for row in captured.out.splitlines()] == [["1", "C~"], ["3", "Bw"]]

    def test_form_feed_and_separators_split_lines_like_splitlines(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_bytes(b"C~\x0cBw\x1c\n!!\nBw\n")
        assert main(["scan", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0].startswith("line 4: ")
        assert [row.split()[:2] for row in captured.out.splitlines()] == [["1", "C~"], ["2", "Bw"], ["5", "Bw"]]

    def test_missing_file_exits_2(self, capsys):
        assert main(["scan", "/no/such/file.g6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_exits_2_before_scanning(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(g6("K4") + "\n")
        assert main(["scan", str(path), "--json", "/nonexistent/x.jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_output_that_is_the_input_exits_2(self, flag, tmp_path, capsys):
        path = tmp_path / "in.g6"
        text = g6("K4") + "\n"
        path.write_text(text)
        assert main(["scan", str(path), flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is the input file" in captured.err
        assert path.read_text() == text

    def test_json_and_csv_on_one_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(g6("K4") + "\n")
        out = str(tmp_path / "out.txt")
        assert main(["scan", str(path), "--json", out, "--csv", out]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_tol_must_be_finite_and_positive(self, value, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text(g6("K4") + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", str(path), "--tol", value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol: must be a finite number above 0" in captured.err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "in.g6", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_jobs_flag(self, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text("\n".join([g6("K4")] * 12) + "\n")
        assert main(["scan", str(path), "--jobs", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 12


# sha256 of stdout, stderr, JSONL and CSV of ``lapspec scan --json --csv``.
SCAN_OUTPUT_SHA256 = {
    "g6_corpus": {
        "stdout": "65d3c2ca84d3c224da9afaa0873011c69ed8277de4f1e39ad7d2534bdf377da3",
        "stderr": "62d0d262d34c4d886f1899ec51bc1c442d2f7b0f30c0b88c778dc63864c56eb3",
        "jsonl": "cb121fd7c8ff6c6669d07e842b604ebbf735a0243ac6782fb5725c8cab98a48e",
        "csv": "12b088392471c98204837008452b71e43170b15693fb47e9348f26211c2c65e3",
    },
    "mixed_corpus": {
        "stdout": "f0dda8c63cd14bcaed7b48f8b82e2fa6b177beaf4aa533947b49a82ad4a27938",
        "stderr": "d3cb3a016445f7204f27656c4532dc9c9ec375ab9ac6db701f64beb8738a148f",
        "jsonl": "f163f158a3168ad9be5ba27254bfee5c8bf3343ea027bd7cf54dfb4337568bf9",
        "csv": "edf597592aa5b34e8f659feabb092c62a4cee39cf1d1947df3faad91ff68f1c1",
    },
}


class TestScanOutputGate:
    """Every byte the scan writes is pinned, at one and two workers."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("corpus", sorted(SCAN_OUTPUT_SHA256))
    def test_outputs_are_pinned(self, corpus, jobs, request, tmp_path, capsys):
        path = tmp_path / "in.g6"
        path.write_text("\n".join(request.getfixturevalue(corpus)) + "\n", encoding="ascii")
        jsonl, csv_out = tmp_path / "out.jsonl", tmp_path / "out.csv"
        assert main(["scan", str(path), "--jobs", str(jobs), "--json", str(jsonl), "--csv", str(csv_out)]) == 0
        captured = capsys.readouterr()
        outputs = {
            "stdout": captured.out.encode("ascii"),
            "stderr": captured.err.encode("ascii"),
            "jsonl": jsonl.read_bytes(),
            "csv": csv_out.read_bytes(),
        }
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == SCAN_OUTPUT_SHA256[corpus]


class TestImportHygiene:
    """The calculus never imports numpy, and a serial scan never loads the process pool."""

    @staticmethod
    def imported(args):
        # -X importtime names every module the interpreter imports, on stderr.
        run = run_python(["-X", "importtime", "-m", "lapspec", *args])
        modules = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}
        return run.returncode, modules

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "2K2 * 2K2"],
            ["spectrum", "K2 * 2K1", "--json"],
            ["cospectral", "K8", "2K2 * 2K2"],
            ["verify-family", "--id", "all", "--r-max", "1"],
        ],
    )
    def test_calculus(self, args):
        rc, modules = self.imported(args)
        assert rc == 0
        assert "lapspec.cli" in modules
        assert not {"numpy", "concurrent.futures.process"} & modules

    def test_serial_scan(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("C~\nD?{\n", encoding="ascii")
        rc, modules = self.imported(["scan", str(path), "--jobs", "1"])
        assert rc == 0
        assert "numpy" in modules
        assert "concurrent.futures.process" not in modules


class TestConfig:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("LAPSPEC_JOBS", "4")
        assert build_parser().parse_args(["scan", "in.g6"]).jobs == 4
        monkeypatch.setenv("LAPSPEC_JOBS", "")
        assert build_parser().parse_args(["scan", "in.g6"]).jobs == 1
        monkeypatch.delenv("LAPSPEC_JOBS")
        assert build_parser().parse_args(["scan", "in.g6"]).jobs == 1
        monkeypatch.setenv("LAPSPEC_JOBS", "junk")
        assert build_parser().parse_args(["scan", "in.g6", "--jobs", "2"]).jobs == 2
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["scan", "in.g6"])
        assert excinfo.value.code == 2

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_jobs_env_is_read_on_every_call(self, tmp_path, monkeypatch):
        path = tmp_path / "in.g6"
        path.write_text("C~\n", encoding="ascii")
        seen = []

        def fake_scan(lines, tol, jobs, on_error):
            seen.append(jobs)
            return iter(())

        monkeypatch.setattr(importlib.import_module("lapspec.scan"), "scan", fake_scan)
        for value in ("3", "2", "", None):
            if value is None:
                monkeypatch.delenv("LAPSPEC_JOBS")
            else:
                monkeypatch.setenv("LAPSPEC_JOBS", value)
            assert main(["scan", str(path)]) == 0
        assert main(["scan", str(path), "--jobs", "5"]) == 0
        assert seen == [3, 2, 1, 1, 5]

    @pytest.mark.parametrize("value", ["junk", "0", "-3"])
    def test_bad_jobs_env_after_a_good_call(self, value, monkeypatch, capsys):
        # Usage lines wrap at the terminal width, which a subprocess reads from $COLUMNS.
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("LAPSPEC_JOBS", "2")
        assert main(["eval", "K4"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("LAPSPEC_JOBS", value)
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "in.g6"])
        assert excinfo.value.code == 2
        fresh = run_python(["-m", "lapspec", "scan", "in.g6"], LAPSPEC_JOBS=value, COLUMNS="80")
        assert fresh.returncode == 2
        assert capsys.readouterr().err == fresh.stderr
        assert "argument --jobs" in fresh.stderr

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
