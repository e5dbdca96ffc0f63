"""Run the scripts in scripts/ in-process, as ``python scripts/NAME.py ARGS`` would."""

import runpy
import sys
from pathlib import Path

import pytest

from lapspec.realize import DenseGraph, graph6_decode, graph6_encode

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch):
    """The script's exit status; its output is left to ``capsys``."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return excinfo.value.code


class TestScanSmall:
    def test_hit_classes_up_to_four_vertices(self, monkeypatch, capsys):
        assert run_script("scan_small.py", ["--max-n", "4"], monkeypatch) == 0
        hits, n = {}, None
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("n="):
                n = int(line[2:line.index(":")])
                hits[n] = {}
            else:
                g6, rest = line.split(maxsplit=1)
                hits[n][g6] = rest
        assert sorted(hits) == [1, 2, 3, 4]
        for n in (1, 2, 3):  # only the complete graphs
            assert list(hits[n]) == [graph6_encode(DenseGraph.complete(n))]
        # K4, the diamond, the paw, and a triangle plus an isolated vertex.
        assert {g6: rest.split("  ")[0] for g6, rest in hits[4].items()} == {
            "C~": "spectrum (0, 4, 4, 4)",
            "C}": "spectrum (0, 2, 4, 4)",
            "C{": "spectrum (0, 1, 3, 4)",
            "Cw": "spectrum (0, 0, 3, 3)",
        }
        assert all(rest.endswith("LE 6.000000000  [exact]") for rest in hits[4].values())


class TestMakeCorpus:
    ARGS = ["--count", "200", "--max-n", "62", "--seed", "7"]

    def test_records_decode_and_the_seed_fixes_the_bytes(self, tmp_path, monkeypatch):
        first, second = tmp_path / "a.g6", tmp_path / "b.g6"
        assert run_script("make_corpus.py", [*self.ARGS, "--out", str(first)], monkeypatch) == 0
        lines = first.read_text(encoding="ascii").splitlines()
        assert len(lines) == 200
        assert all(1 <= graph6_decode(line).n <= 62 for line in lines)
        assert run_script("make_corpus.py", [*self.ARGS, "--out", str(second)], monkeypatch) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_max_n_beyond_the_single_byte_form_exits_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "c.g6"
        assert run_script("make_corpus.py", ["--max-n", "63", "--out", str(out)], monkeypatch) == 2
        assert "--max-n must be in 1..62" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count_exits_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "d.g6"
        assert run_script("make_corpus.py", ["--count", "-3", "--out", str(out)], monkeypatch) == 2
        assert "--count must be at least 0" in capsys.readouterr().err
        assert not out.exists()
