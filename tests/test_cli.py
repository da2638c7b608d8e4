import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
from itertools import combinations
from pathlib import Path

import pytest

import trifree.graph
from trifree.bounds import cells_from_json, default_table
from trifree.cli import main
from trifree.constructions import circulant, twisted_tesseract, w13
from trifree.graph import parse_graph6, write_graph6
from trifree.oracle import clear_cache

from helpers import complete_bipartite

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

W13_G6 = write_graph6(w13()).decode("ascii")
TESS_G6 = write_graph6(twisted_tesseract()).decode("ascii")

RAMSEY_JSON = {
    "2": [3, 3],
    "3": [6, 6],
    "4": [9, 9],
    "5": [14, 14],
    "6": [18, 18],
    "7": [23, 23],
    "8": [28, 28],
    "9": [36, 36],
    "10": [40, 42],
    "11": [44, None],
    "12": [44, None],
    "13": [44, None],
}


class TestBounds:
    def test_text(self, capsys):
        assert main(["bounds", "--l", "12", "--n", "43"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "129–134"
        assert "status: range" in out
        assert "lower: 129" in out
        assert "upper: 134" in out
        assert any(line.startswith("provenance: ") for line in out)

    def test_infinite_cell(self, capsys):
        assert main(["bounds", "--l", "7", "--n", "23"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "∞"
        assert "lower: ∞" in out

    def test_json(self, capsys):
        assert main(["bounds", "--l", "11", "--n", "41", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["l"] == 11 and payload["n"] == 41
        assert payload["lower"] == 139 and payload["upper"] == 150
        assert payload["display"] == "139–(150)"

    def test_out_of_domain(self, capsys):
        assert main(["bounds", "--l", "14", "--n", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_data_override(self, tmp_path, capsys):
        data = {
            "version": 1,
            "ramsey": RAMSEY_JSON,
            "cells": [{"l": 7, "n": 22, "lower": 61, "upper": 61, "source": "local"}],
        }
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["bounds", "--l", "7", "--n", "22", "--data", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "61"

    def test_conflicting_data_file(self, tmp_path, capsys):
        data = {
            "version": 1,
            "ramsey": RAMSEY_JSON,
            "cells": [{"l": 7, "n": 22, "lower": 62, "upper": 61, "source": "typo"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["bounds", "--l", "7", "--n", "22", "--data", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param({"ramsey": {**RAMSEY_JSON, "2": 3}}, "interval for l=2 must be", id="bare-int-pair"),
            pytest.param({"ramsey": {**RAMSEY_JSON, "2": ["x", 3]}}, "interval for l=2 must be", id="string-lo"),
            pytest.param({"ramsey": [1, 2]}, "'ramsey' must map l", id="list-map"),
            pytest.param({"version": "v2"}, "version must be an int", id="string-version"),
            pytest.param({"cells": 5}, "'cells' must be a list", id="int-cells"),
            pytest.param({"notes": 5}, "'notes' must be a list", id="int-notes"),
            pytest.param(
                {"cells": [{"l": 7, "n": 22, "lower": 60, "upper": 61, "preliminary": "false"}]},
                "non-boolean preliminary flag",
                id="string-flag",
            ),
            pytest.param({"ramsey": {**RAMSEY_JSON, "14": [50, 60]}}, "outside the table domain", id="key-past-domain"),
            pytest.param({"ramsey": {**RAMSEY_JSON, "07": [23, 24]}}, "duplicate ramsey interval", id="duplicate-key"),
            pytest.param(
                {"cells": [{"l": 10, "n": 41, "lower": "inf", "upper": None}]},
                "an infinite lower bound needs an infinite upper",
                id="infinite-lower-null-upper",
            ),
            pytest.param(
                {"cells": [{"l": 10, "n": 41, "lower": -5, "upper": None}]},
                "a finite lower bound must be an int >= 0",
                id="negative-lower",
            ),
            pytest.param({"cells": [{"n": 22, "lower": 60, "upper": 61}]}, "cell record missing l/n", id="no-l"),
            pytest.param({"cells": [{"l": 7, "n": 22, "upper": 61}]}, "cell (7,22) has no lower endpoint", id="no-lower"),
            pytest.param({"ramsey": {**RAMSEY_JSON, "x": [1, 2]}}, "bad ramsey key 'x'", id="non-integer-key"),
            pytest.param({"ramsey": {**RAMSEY_JSON, "5": [14, 13]}}, "interval for l=5 is empty", id="empty-interval"),
            pytest.param(
                {"cells": [{"l": 5, "n": 13, "lower": 20, "upper": 21}]},
                "cell (5,13) merged to lower 26 above upper 21",
                id="formula-above-upper",
            ),
        ],
    )
    def test_malformed_data_file(self, tmp_path, capsys, change, message):
        data = {"version": 1, "ramsey": RAMSEY_JSON, "cells": [], **change}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["bounds", "--l", "5", "--n", "5", "--data", str(path)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("{", "bounds data is not valid JSON", id="not-json"),
            pytest.param(json.dumps({"cells": []}), "needs 'ramsey' and 'cells' entries", id="no-ramsey"),
            pytest.param(json.dumps({"ramsey": RAMSEY_JSON}), "needs 'ramsey' and 'cells' entries", id="no-cells"),
        ],
    )
    def test_data_file_without_a_table(self, tmp_path, capsys, text, message):
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        assert main(["bounds", "--l", "5", "--n", "5", "--data", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_cell_without_a_record_has_no_upper(self, tmp_path, capsys):
        # the bundled (7, 22) record is the only upper there; without it the
        # formulas give the lower end and nothing bounds the cell above
        path = tmp_path / "alt.json"
        path.write_text(json.dumps({"version": 1, "ramsey": RAMSEY_JSON, "cells": []}), encoding="utf-8")
        assert main(["bounds", "--l", "7", "--n", "22", "--data", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "58–?"
        assert "upper: unknown" in out


class TestTable:
    def test_markdown_matches_fixture(self, capsys):
        assert main(["table", "--l", "7-10", "--n", "22-34"]) == 0
        want = (FIXTURES / "table_n22_34.md").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want

    def test_csv(self, capsys):
        assert main(["table", "--l", "7-8", "--n", "22-24", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["n,7,8", "22,60,42", "23,∞,49", "24,,56"]

    def test_json_round_trip(self, capsys):
        assert main(["table", "--l", "9-13", "--n", "35-43", "--format", "json"]) == 0
        cells = cells_from_json(capsys.readouterr().out)
        table = default_table()
        assert cells[(11, 41)] == table.lookup(11, 41)
        assert len(cells) == 5 * 9

    def test_reversed_span_is_empty(self, capsys):
        assert main(["table", "--l", "8-7", "--n", "22-24"]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_span(self, capsys):
        assert main(["table", "--l", "7x", "--n", "22-24"]) == 2
        assert "bad range" in capsys.readouterr().err


class TestConstruct:
    def test_w13_text_is_bare_graph6(self, capsys):
        assert main(["construct", "w13"]) == 0
        assert capsys.readouterr().out == W13_G6 + "\n"

    def test_circulant_equivalent(self, capsys):
        assert main(["construct", "circulant", "--n", "13", "--offsets", "1,5"]) == 0
        assert capsys.readouterr().out == W13_G6 + "\n"

    def test_tesseract_json(self, capsys):
        assert main(["construct", "tesseract", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "tesseract"
        assert payload["n"] == 16 and payload["e"] == 32
        assert payload["graph6"] == TESS_G6

    def test_circulant_needs_flags(self, capsys):
        assert main(["construct", "circulant"]) == 2
        assert "circulant needs --n and --offsets" in capsys.readouterr().err

    def test_named_kinds_reject_flags(self, capsys):
        assert main(["construct", "tesseract", "--n", "16"]) == 2
        assert "only apply to circulant" in capsys.readouterr().err

    def test_bad_offsets(self, capsys):
        assert main(["construct", "circulant", "--n", "13", "--offsets", "1;5"]) == 2
        assert "bad offsets" in capsys.readouterr().err

    def test_order_checked_before_any_edge(self, capsys):
        assert main(["construct", "circulant", "--n", "1000000000", "--offsets", "1"]) == 2
        assert "vertex count 1000000000 outside 0..128" in capsys.readouterr().err


class TestVerify:
    def test_passing_claims(self, tmp_path, capsys):
        path = tmp_path / "wit.g6"
        path.write_text(W13_G6 + "\n" + TESS_G6 + "\n", encoding="ascii")
        code = main(["verify", str(path), "--l", "6"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "line 1: n=13 e=26 alpha=4 triangle-free slack=0 deg=4..4 deg2=16..16 pass"
        assert lines[1] == "line 2: n=16 e=32 alpha=5 triangle-free slack=1 deg=4..4 deg2=16..16 pass"
        assert "graphs: 2  pass: 2  fail: 0  parse errors: 0" in lines
        assert "minimum degree over corpus: 4" in lines
        assert "induced K2,4 in every graph: no" in lines

    def test_failed_claim(self, tmp_path, capsys):
        path = tmp_path / "wit.g6"
        path.write_text(TESS_G6 + "\n", encoding="ascii")
        code = main(["verify", str(path), "--n", "15", "--e", "31"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL (vertex count 16 != 15; edge count 32 != 31)" in out
        assert "graphs: 1  pass: 0  fail: 1  parse errors: 0" in out

    def test_blank_lines_keep_the_numbering(self, tmp_path, capsys):
        path = tmp_path / "gaps.g6"
        path.write_text("\n" + W13_G6 + "\n  \n\n" + TESS_G6 + "\n", encoding="ascii")
        assert main(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("line 2: n=13 ")
        assert lines[1].startswith("line 5: n=16 ")
        assert lines[2] == "graphs: 2  pass: 2  fail: 0  parse errors: 0"

    def test_triangle_reported(self, tmp_path, capsys):
        path = tmp_path / "k3.g6"
        path.write_text("Bw\n", encoding="ascii")
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "has-triangle" in out
        assert "FAIL (triangle found)" in out
        assert "slack=" not in out.splitlines()[0]

    def test_parse_error_dominates(self, tmp_path, capsys):
        path = tmp_path / "mixed.g6"
        path.write_text(TESS_G6 + "\n???not graph6???\n", encoding="ascii")
        code = main(["verify", str(path), "--e", "31"])
        captured = capsys.readouterr()
        assert code == 2
        assert "parse errors: 1" in captured.out
        assert "line 2" in captured.err

    def test_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("", encoding="ascii")
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "graphs: 0  pass: 0  fail: 0  parse errors: 0" in out
        assert "minimum degree over corpus: n/a" in out
        assert "induced K2,4 in every graph: n/a" in out

    def test_k24_yes(self, tmp_path, capsys):
        path = tmp_path / "k24.g6"
        g6 = write_graph6(complete_bipartite(2, 4)).decode("ascii")
        path.write_text(g6 + "\n", encoding="ascii")
        assert main(["verify", str(path)]) == 0
        assert "induced K2,4 in every graph: yes" in capsys.readouterr().out

    def test_json(self, tmp_path, capsys):
        path = tmp_path / "wit.g6"
        path.write_text(W13_G6 + "\n", encoding="ascii")
        code = main(["verify", str(path), "--l", "5", "--n", "13", "--e", "26", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        rec = payload["records"][0]
        assert rec["verdict"] == "pass"
        assert rec["alpha"] == 4
        assert rec["slack"] == 0
        assert payload["summary"]["graphs"] == 1
        assert payload["summary"]["induced_k24_everywhere"] is False

    def test_stdin(self, monkeypatch, capsys):
        fake = types.SimpleNamespace(buffer=io.BytesIO((W13_G6 + "\n").encode("ascii")))
        monkeypatch.setattr("sys.stdin", fake)
        assert main(["verify", "--l", "5"]) == 0
        assert "graphs: 1  pass: 1" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/are.g6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_one_alpha_per_graph(self, tmp_path, monkeypatch, capsys):
        calls = []
        alpha = trifree.graph.independence_number

        def counted(g):
            calls.append(g.n)
            return alpha(g)

        monkeypatch.setattr(trifree.graph, "independence_number", counted)
        path = tmp_path / "mixed.g6"
        path.write_text("\n".join([W13_G6, TESS_G6, "Bw", W13_G6]) + "\n", encoding="ascii")
        assert main(["verify", str(path)]) == 1  # Bw is a triangle
        assert calls == [13, 16, 3, 13]

    def test_k24_scan_stops_at_the_first_graph_without_one(self, tmp_path, monkeypatch, capsys):
        calls = []
        find = trifree.graph.find_induced_k24

        def counted(g):
            calls.append(g.n)
            return find(g)

        monkeypatch.setattr(trifree.graph, "find_induced_k24", counted)
        k24 = write_graph6(complete_bipartite(2, 4)).decode("ascii")
        path = tmp_path / "mixed.g6"
        # W13 has no induced K2,4, so the corpus answer is no after its line
        path.write_text("\n".join([W13_G6, k24, TESS_G6]) + "\n", encoding="ascii")
        assert main(["verify", str(path)]) == 0
        assert calls == [13]
        assert "induced K2,4 in every graph: no" in capsys.readouterr().out

    def test_json_fixture(self, capsys):
        # records, summary and exit code pinned on a small fixed corpus:
        # W13, the twisted tesseract, And(3..5), a truncated line, And(6)
        # (breaks --l 6), C_9 and C_5 plus a chord (a triangle)
        corpus = FIXTURES / "verify_corpus.g6"
        assert main(["verify", "--format", "json", "--l", "6", str(corpus)]) == 2
        captured = capsys.readouterr()
        assert captured.out == (FIXTURES / "verify_corpus.json").read_text(encoding="utf-8")
        assert captured.err == "error: truncated bit stream (12 of 13 bytes) (line 6)\n"

    def test_corpus_text(self, capsys):
        corpus = FIXTURES / "verify_corpus.g6"
        assert main(["verify", "--l", "6", str(corpus)]) == 2
        captured = capsys.readouterr()
        assert captured.out == (FIXTURES / "verify_corpus.txt").read_text(encoding="utf-8")
        assert captured.err == "error: truncated bit stream (12 of 13 bytes) (line 6)\n"

    def test_pipes_from_construct(self, tmp_path, capsys):
        assert main(["construct", "w13"]) == 0
        g6 = capsys.readouterr().out
        path = tmp_path / "pipe.g6"
        path.write_text(g6, encoding="ascii")
        assert main(["verify", str(path), "--l", "5", "--n", "13", "--e", "26"]) == 0

    def test_both_formats_stream_their_records(self, monkeypatch):
        # each record goes out as its line is read.  Output hashed as it is
        # written, so the sink holds nothing; the digests were recorded from
        # code that held every JSON record until the corpus ended.
        graphs = [circulant(n, offs) for n in range(5, 11) for offs in combinations(range(1, n // 2 + 1), 2)]
        corpus = b"\n".join(map(write_graph6, graphs * 70)) + b"\n\n"  # 2,030 graphs; some have a triangle

        def run(extra, traced):
            monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(corpus)))
            sink = types.SimpleNamespace(digest=hashlib.sha256(), flush=lambda: None)
            sink.write = lambda text: sink.digest.update(text.encode("utf-8"))
            if traced:
                tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    assert main(["verify", "--l", "6"] + extra) == 1
                peak = tracemalloc.get_traced_memory()[1] if traced else None
            finally:
                tracemalloc.stop()
            return sink.digest.hexdigest(), peak

        digest, _ = run([], traced=False)
        assert digest == "89d5c14e49612e56a9b6c36198259b34c019d4cd7ee332f8d2abd9fe1177b75a"
        digest, _ = run(["--format", "json"], traced=False)
        assert digest == "c0c654e81364814c860111b1fb4b2377e6cd8c4bcfbf40dfe5086e3f11b2ae42"
        # holding every record until the end took 6.4 MB on this corpus
        assert run(["--format", "json"], traced=True)[1] < 2 * 2**20


class TestFeasible:
    def test_nonempty(self, capsys):
        code = main(["feasible", "--l", "7", "--n", "23", "--e", "68"])
        out = capsys.readouterr().out
        assert code == 0
        assert "{5:2, 6:21}  defect=6" in out
        assert "degree 6: second-degree cap 36" in out
        assert "1 feasible distribution(s) at l=7 n=23 e=68" in out

    def test_empty_is_negative_result(self, capsys):
        code = main(["feasible", "--l", "7", "--n", "23", "--e", "60"])
        out = capsys.readouterr().out
        assert code == 1
        assert "0 feasible distribution(s)" in out

    def test_json(self, capsys):
        code = main(["feasible", "--l", "11", "--n", "41", "--e", "138", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["refinements"] == ["r1"]
        assert len(payload["distributions"]) == 5
        assert payload["distributions"][0]["distribution"] == {"6": 11, "7": 30}
        assert payload["distributions"][0]["defect"] == 3

    def test_refine_none(self, capsys):
        code = main(["feasible", "--l", "11", "--n", "41", "--e", "138", "--refine", "none", "--format", "json"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["distributions"]) == 6

    def test_refine_all(self, capsys):
        argv = ["feasible", "--l", "11", "--n", "41", "--e", "138", "--format", "json", "--refine"]
        assert main(argv + ["all"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["refinements"] == ["r1", "r2", "r3"]
        assert main(argv + ["r3,r2,r1"]) == 0
        assert capsys.readouterr().out == out

    def test_large_order_walks_in_small_memory(self, capsys):
        # the pruning bound keeps at most l points per suffix of the degrees,
        # not a table over every vertex count and degree sum, so this empty
        # cell is cheap however large n and e are
        tracemalloc.start()
        try:
            assert main(["feasible", "--l", "13", "--n", "3000", "--e", "17000"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "0 feasible distribution(s)" in capsys.readouterr().out
        assert peak < 8 * 2**20

    def test_both_formats_stream_their_reports(self):
        # either form goes out as the walk yields it.  Output hashed as it is
        # written, so the sink holds nothing; the digests were recorded from
        # code that built the whole list before printing it.
        argv = ["feasible", "--l", "11", "--n", "41", "--e", "139"]

        def run(extra, traced):
            sink = types.SimpleNamespace(digest=hashlib.sha256(), flush=lambda: None)
            sink.write = lambda text: sink.digest.update(text.encode("utf-8"))
            if traced:
                tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    assert main(argv + extra) == 0
                peak = tracemalloc.get_traced_memory()[1] if traced else None
            finally:
                tracemalloc.stop()
            return sink.digest.hexdigest(), peak

        digest, _ = run([], traced=False)  # also warms the caches both forms share
        assert digest == "e930a311374604cfb83032aa53ef4d212c0373306a064e80b6e2adda9f18e60a"
        digest, _ = run(["--format", "json"], traced=False)
        assert digest == "1bdcaff2732a55c71b75e9bfedf4487215a64a3f02b1bb77c6ba52ff894c306e"
        text_peak = run([], traced=True)[1]
        json_peak = run(["--format", "json"], traced=True)[1]
        assert json_peak < 8 * text_peak

    def test_bad_refinement(self, capsys):
        assert main(["feasible", "--l", "11", "--n", "41", "--e", "138", "--refine", "r9"]) == 2
        assert "unknown refinements: r9" in capsys.readouterr().err


class TestRaise:
    def test_text(self, capsys):
        assert main(["raise", "--l", "7", "--n", "23"]) == 0
        out = capsys.readouterr().out
        assert "raised lower bound: 68" in out
        assert "first feasible distribution: {5:2, 6:21}  defect=6" in out

    def test_vacuous_region(self, capsys):
        assert main(["raise", "--l", "3", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "raised lower bound: ∞" in out
        assert "no degree distribution is feasible at any edge count" in out

    def test_json(self, capsys):
        assert main(["raise", "--l", "7", "--n", "23", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 68
        assert payload["first_distribution"]["distribution"] == {"5": 2, "6": 21}

    def test_json_infinite_value(self, capsys):
        assert main(["raise", "--l", "4", "--n", "9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "inf"
        assert payload["first_distribution"] is None

    @pytest.mark.parametrize("text", ["", ",", " , "])
    def test_empty_refinement_selection(self, text, capsys):
        # an empty list is a slip, not a request for no refinement
        assert main(["raise", "--l", "7", "--n", "23", "--refine", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "names no refinement; use --refine none" in captured.err


class TestOracle:
    def test_text_with_witness(self, capsys):
        assert main(["oracle", "--l", "4", "--n", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "value: 10"
        assert lines[1].startswith("nodes: ")
        g6 = lines[2].removeprefix("witness: ")
        assert parse_graph6(g6)[0].edge_count() == 10

    def test_emit_witness(self, tmp_path, capsys):
        path = tmp_path / "wit.g6"
        code = main(["oracle", "--l", "4", "--n", "8", "--emit-witness", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 10
        graphs = parse_graph6(path.read_bytes())
        assert len(graphs) == 1
        assert graphs[0].edge_count() == 10
        assert payload["graph6"] == write_graph6(graphs[0]).decode("ascii")

    def test_no_witness_to_emit(self, tmp_path, capsys):
        path = tmp_path / "none.g6"
        code = main(["oracle", "--l", "4", "--n", "9", "--emit-witness", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "value: ∞" in captured.out
        assert "no witness to emit" in captured.err
        assert not path.exists()

    def test_budget_exhaustion(self, capsys):
        clear_cache()
        try:
            assert main(["oracle", "--l", "4", "--n", "8", "--budget", "3"]) == 3
            assert "budget 3 exhausted" in capsys.readouterr().err
        finally:
            clear_cache()

    def test_negative_budget_is_a_usage_error(self, capsys):
        assert main(["oracle", "--l", "4", "--n", "8", "--budget", "-5"]) == 2
        assert capsys.readouterr().err == "error: need budget >= 0, got -5\n"


class TestParser:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "trifree" in capsys.readouterr().out

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


def _fresh(args, stdin=None):
    """Run python with args in a new interpreter that imports trifree from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=120)


class TestFreshProcess:
    """Behaviour that in-process tests cannot see once every module is loaded."""

    # standard modules no start-up path may load; dataclasses pulls in inspect
    # and fractions pulls in decimal, and both are slow to import
    HEAVY = "{'dataclasses', 'inspect', 'fractions', 'decimal'}"

    # prints the exit code, the trifree modules and the HEAVY modules the call
    # loaded; a set difference, so whatever site preloads is not counted
    LOADS = "; ".join([
        "import sys",
        "before = set(sys.modules)",
        "from trifree.cli import main",
        "code = main(sys.argv[1:])",
        "new = set(sys.modules) - before",
        f"print(code, sorted(m for m in new if m.startswith('trifree')), sorted(new & {HEAVY}))",
    ])

    # subcommand -> (its arguments, the trifree submodules it loads)
    LAYERS = {
        "bounds": (["--l", "5", "--n", "13"], ["bounds"]),
        "table": (["--l", "3-4", "--n", "5-9"], ["bounds"]),
        "construct": (["w13"], ["constructions", "graph"]),
        "verify": (["--l", "5"], ["graph"]),  # W13 on stdin
        "feasible": (["--l", "7", "--n", "23", "--e", "68"], ["bounds", "feasibility"]),
        "raise": (["--l", "7", "--n", "23"], ["bounds", "feasibility"]),
        "oracle": (["--l", "3", "--n", "5"], ["bounds", "graph", "oracle"]),
    }

    # failing call -> (its arguments, exit code, start of stderr, the trifree submodules it loads)
    FAILURES = {
        "out-of-domain": ("bounds --l 20 --n 4", 2, "error: (20,4) outside", ["bounds"]),
        "bad-offsets": ("construct circulant --n 4 --offsets x", 2, "error: bad offsets", ["constructions", "graph"]),
        "missing-file": ("verify /nonexistent", 2, "error: [Errno 2]", ["graph"]),
        "malformed-data": ("bounds --l 5 --n 5 --data MALFORMED", 3, "error: bounds data", ["bounds"]),
        "budget": ("oracle --l 4 --n 8 --budget 3", 3, "error: budget 3 exhausted", ["bounds", "graph", "oracle"]),
        "refinement": ("raise --l 3 --n 6 --refine r9", 2, "error: unknown refinements: r9\n", ["bounds", "feasibility"]),
        "negative-budget": ("oracle --l 4 --n 8 --budget -5", 2, "error: need budget >= 0", ["bounds", "graph", "oracle"]),
    }

    @pytest.mark.parametrize("module", ["bounds", "constructions", "feasibility", "graph", "oracle"])
    def test_module_import_loads_no_heavy_standard_module(self, module):
        proc = _fresh(["-c", f"import sys; before = set(sys.modules); import trifree.{module}; print(sorted((set(sys.modules) - before) & {self.HEAVY}))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_bare_import_loads_no_submodule(self):
        proc = _fresh(["-c", "import sys, trifree; print(sorted(m for m in sys.modules if m.startswith('trifree')))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['trifree']"

    @pytest.mark.parametrize("command", list(LAYERS))
    def test_subcommand_loads_only_its_layer(self, command):
        args, layers = self.LAYERS[command]
        proc = _fresh(["-c", self.LOADS, command, *args], stdin=W13_G6 + "\n")
        assert proc.returncode == 0, proc.stderr
        want = sorted(["trifree", "trifree.cli"] + [f"trifree.{m}" for m in layers])
        assert proc.stdout.splitlines()[-1] == f"0 {want} []"

    @pytest.mark.parametrize("case", list(FAILURES))
    def test_failing_call_loads_only_its_layer(self, case, tmp_path):
        args, code, err, layers = self.FAILURES[case]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"version": "v2", "ramsey": RAMSEY_JSON, "cells": []}), encoding="utf-8")
        proc = _fresh(["-c", self.LOADS, *args.replace("MALFORMED", str(path)).split()])
        want = sorted(["trifree", "trifree.cli"] + [f"trifree.{m}" for m in layers])
        assert proc.stdout.splitlines()[-1] == f"{code} {want} []"
        assert proc.stderr.startswith(err)

    def test_malformed_data_file_exits_3(self, tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"version": "v2", "ramsey": RAMSEY_JSON, "cells": []}), encoding="utf-8")
        proc = _fresh(["-m", "trifree.cli", "bounds", "--l", "5", "--n", "5", "--data", str(path)])
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")

    def test_budget_exhaustion_exits_3(self):
        proc = _fresh(["-m", "trifree.cli", "oracle", "--l", "4", "--n", "8", "--budget", "3"])
        assert proc.returncode == 3
        assert "budget 3 exhausted" in proc.stderr

    def test_out_of_domain_exits_2(self):
        proc = _fresh(["-m", "trifree.cli", "bounds", "--l", "20", "--n", "4"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_truncated_graph6_exits_2(self):
        proc = _fresh(["-m", "trifree.cli", "verify"], stdin=W13_G6[:-1] + "\n")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
