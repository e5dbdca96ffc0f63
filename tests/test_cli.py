import json

import pytest

import lapspec.families
from lapspec.cli import build_parser, main
from lapspec.expr import MAX_NESTING, parse
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

    def test_parentheses_at_the_nesting_limit(self, capsys):
        assert main(["eval", "(" * MAX_NESTING + "K3" + ")" * MAX_NESTING, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
    def test_parentheses_past_the_nesting_limit_exit_2(self, depth, capsys):
        assert main(["eval", "(" * depth + "K3" + ")" * depth]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parentheses nested deeper than {MAX_NESTING} (at offset {MAX_NESTING})\n"


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

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
