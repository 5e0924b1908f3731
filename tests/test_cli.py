import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import disagreeing_witness
from sparing import cli, labels
from sparing.claims import check_claim, claim_by_id
from sparing.cli import main
from sparing.families import FamilySpec, make
from sparing.graphs import MAX_GRAPH_TEXT, write_graph
from sparing.labels import MAX_LABELING_TEXT, write_labeling


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_complete_four(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "complete", "--n", "4")
        assert code == 0
        assert out == "phi=3 witness=[0] mono=[(1,2),(1,3),(2,3)]\n"

    def test_even_cycle(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "cycle", "--n", "4")
        assert code == 0
        assert out == "phi=0 witness=[0,2] mono=[]\n"

    def test_missing_graph_file(self, capsys):
        code, _, err = run(capsys, "solve", "--graph", "missing.g")
        assert code == 2
        assert "missing.g" in err

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "sun.g"
        path.write_text(write_graph(make("complete_sun", n=4).graph))
        code, out, _ = run(capsys, "solve", "--graph", str(path))
        assert code == 0
        assert out.startswith("phi=5 witness=[0,5,6]")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "wheel", "--m", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == 4
        assert doc["witness"] == [0, 2]
        assert [tuple(e) for e in doc["mono"]] == [(1, 5), (3, 4), (3, 5), (4, 5)]

    def test_json_reports_value_phase_nodes(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "wheel", "--m", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["phi", "witness", "mono", "nodes", "value_nodes", "runtime_ms"]
        assert 0 < doc["value_nodes"] <= doc["nodes"]

    def test_solver_limit(self, capsys):
        code, _, err = run(capsys, "solve", "--family", "path", "--n", "65")
        assert code == 3
        assert "64" in err

    def test_no_source(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 2

    def test_family_rejects_bad_param(self, capsys):
        code, _, err = run(capsys, "solve", "--family", "cycle", "--n", "2")
        assert code == 2
        assert "n >= 3" in err

    def test_split_needs_graph_file(self, capsys):
        code, _, err = run(capsys, "solve", "--family", "split", "--r", "3")
        assert code == 2
        assert "adjacency" in err

    def test_byte_identical_across_runs_and_threads(self, capsys):
        results = set()
        for threads in ("1", "8", "1"):
            code, out, _ = run(
                capsys, "solve", "--family", "cone", "--m", "5", "--n", "2",
                "--threads", threads,
            )
            assert code == 0
            results.add(out)
        assert len(results) == 1



class TestEntryPoints:
    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["sparing", "solve", "--family", "cycle", "--n", "9"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("phi=1 ")

    def test_run_as_a_module(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        run = subprocess.run(
            [sys.executable, "-m", "sparing.cli", "solve", "--family", "cycle", "--n", "9"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.startswith("phi=1 ")


class TestCertify:
    def test_friendship_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "w.json"
        code, out, _ = run(
            capsys, "certify", "--family", "friendship", "--r", "2", "--out", str(out_file)
        )
        assert code == 0
        assert out == "phi=2 mono=2 verified=true\n"
        doc = json.loads(out_file.read_text())
        assert doc["vertices"] == 5
        assert len(doc["labels"]) == 5

        code, out, _ = run(
            capsys, "verify", "--family", "friendship", "--r", "2",
            "--labeling", str(out_file),
        )
        assert code == 0
        assert out == "weak-IASI: ok, mono=2\n"

    def test_too_large(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "certify", "--family", "complete", "--n", "30",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    def test_a_disagreeing_labeling_exits_1(self, capsys, tmp_path, monkeypatch):
        disagreeing_witness(monkeypatch)
        out_file = tmp_path / "w.json"
        code, out, err = run(
            capsys, "certify", "--family", "cycle", "--n", "5", "--out", str(out_file)
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: witness labeling disagrees with the solve (value 1, labeled mono count 1)\n"
        )
        assert not out_file.exists()

    def test_two_vertex_path(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        code, out, _ = run(
            capsys, "certify", "--family", "path", "--n", "2", "--out", str(out_file)
        )
        assert code == 0
        assert out.startswith("phi=0")
        assert json.loads(out_file.read_text())["vertices"] == 2

    def test_json_format(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "certify", "--family", "cycle", "--n", "5", "--out", "w.json",
            "--format", "json",
        )
        assert (code, out, err) == (
            0, '{"phi": 1, "mono": 1, "verified": true, "out": "w.json"}\n', ""
        )

    @pytest.mark.parametrize(
        "family,params",
        [
            ("complete", ["--n", "5"]),
            ("cycle", ["--n", "9"]),
            ("complete_sun", ["--n", "4"]),
            ("cactus_chain", ["--cycles", "3,4,5"]),
            ("block_chain", ["--cliques", "3,3"]),
        ],
    )
    def test_round_trip_all_families(self, capsys, tmp_path, family, params):
        out_file = tmp_path / "lab.json"
        code, out, _ = run(
            capsys, "certify", "--family", family, *params, "--out", str(out_file)
        )
        assert code == 0
        phi = int(out.split()[0].split("=")[1])
        mono = int(out.split()[1].split("=")[1])
        assert phi == mono
        code, out, _ = run(
            capsys, "verify", "--family", family, *params, "--labeling", str(out_file)
        )
        assert code == 0
        assert out == f"weak-IASI: ok, mono={mono}\n"


class TestWrite:
    def test_certify_over_a_longer_file_leaves_no_stale_tail(self, capsys, tmp_path):
        fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
        reused.write_text("x" * 5000)
        for out_file in (fresh, reused):
            code, _, _ = run(
                capsys, "certify", "--family", "cycle", "--n", "9", "--out", str(out_file)
            )
            assert code == 0
        assert reused.read_bytes() == fresh.read_bytes()
        assert json.loads(reused.read_bytes())["vertices"] == 9

    def test_one_system_call_writes_the_file(self, tmp_path, monkeypatch):
        calls = []
        real_write = os.write

        def counted(fd, data):
            calls.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counted)
        cli._write(tmp_path / "w.json", "[1]\n" * 200)
        assert calls == [800]

    def test_partial_writes_are_finished(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:1]))
        text = "0123456789\n" * 70
        cli._write(tmp_path / "w.json", text)
        assert (tmp_path / "w.json").read_text(encoding="utf-8") == text

    def test_utf8_with_newline_ends(self, tmp_path):
        cli._write(tmp_path / "w.txt", "# é\np 0 0\n")
        assert (tmp_path / "w.txt").read_bytes() == b"# \xc3\xa9\np 0 0\n"

    def test_a_rewrite_never_empties_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "w.json"
        path.write_text("x" * 100)
        flags = []
        real_open = os.open

        def recorded(name, flag, *rest):
            flags.append(flag)
            return real_open(name, flag, *rest)

        monkeypatch.setattr(os, "open", recorded)
        cli._write(path, "[1]\n")
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC
        assert path.read_bytes() == b"[1]\n"

    def test_the_null_device_is_not_cut(self, capsys):
        cli._write(os.devnull, "[1]\n")
        assert run(capsys, "certify", "--family", "cycle", "--n", "9", "--out", os.devnull)[0] == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="FIFOs are POSIX only")
    def test_a_fifo_gets_the_text(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            cli._write(fifo, "p 2 1\ne 0 1\n")
            assert os.read(reader, 100) == b"p 2 1\ne 0 1\n"
        finally:
            os.close(reader)


_GRAPH = write_graph(make("cycle", n=5).graph)
_LABELING = json.dumps(json.loads(write_labeling(3, {0: (1,), 1: (2, 4), 2: (8,)})), indent=1)


class TestRead:
    @pytest.mark.parametrize(
        "data,limit",
        [
            (_GRAPH.replace("\n", "\r\n").encode(), MAX_GRAPH_TEXT),
            (_LABELING.replace("\n", "\r\n").encode(), MAX_LABELING_TEXT),
            (_GRAPH.replace("\n", "\r").encode(), MAX_GRAPH_TEXT),
            (_LABELING.replace("\n", "\r").encode(), MAX_LABELING_TEXT),
            (b"a\r\rb\r\n\n\r", MAX_GRAPH_TEXT),
            (b"\xef\xbb\xbf" + _GRAPH.encode(), MAX_GRAPH_TEXT),
            (b"", MAX_GRAPH_TEXT),
            (b"a" * 16, 16),
            (b"a" * 17, 16),
            (b"a" * 40, 16),
            (b"a\r\n" * 6, 16),
            (("é" * 10 + "€" * 6).encode(), 16),
            (("é" * 17).encode(), 16),
            (b"a" * 9000 + b"\xff" + b"a" * 10, MAX_GRAPH_TEXT),
            (b"p 2 1\ne 0 1\xff", MAX_GRAPH_TEXT),
            (b"p 2 1\ne 0 1\xc3", MAX_GRAPH_TEXT),
        ],
    )
    def test_matches_the_text_layer(self, tmp_path, data, limit):
        path = tmp_path / "f"
        path.write_bytes(data)
        self.assert_same(str(path), limit)

    def test_a_directory_and_a_missing_path(self, tmp_path):
        self.assert_same(str(tmp_path), MAX_GRAPH_TEXT)
        self.assert_same(str(tmp_path / "missing"), MAX_GRAPH_TEXT)

    def test_a_file_that_grew_under_the_read(self, tmp_path, monkeypatch):
        path = tmp_path / "g.g"
        path.write_bytes(b"p 2 1\r\ne 0 1\r\n")
        real_fstat = os.fstat

        def stale(fd):  # the size the file had before 9 bytes were appended
            info = real_fstat(fd)
            return os.stat_result((*info[:6], 5, *info[7:10]))

        monkeypatch.setattr(os, "fstat", stale)
        assert cli._read(str(path), 100) == "p 2 1\ne 0 1\n"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_pipe(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"p 2 1\r\ne 0 1\r\n")
            os.close(write_end)
            assert cli._read(f"/dev/fd/{read_end}", 100) == "p 2 1\ne 0 1\n"
        finally:
            os.close(read_end)

    @staticmethod
    def assert_same(path, limit):
        """``cli._read`` gives the text, or the error type and message, of the read it replaced."""
        try:
            with open(path, encoding="utf-8") as fh:
                want = fh.read(limit + 1)
        except (OSError, UnicodeDecodeError) as exc:
            want = type(exc), f"cannot read {path}: {exc}"
        try:
            got = cli._read(path, limit)
        except cli.InputError as exc:
            got = type(exc.__context__), str(exc)
        assert got == want


class TestVerify:
    def test_weak_violation(self, capsys, tmp_path):
        g = make("path", n=2).graph
        graph_file = tmp_path / "g.g"
        graph_file.write_text(write_graph(g))
        lab_file = tmp_path / "bad.json"
        lab_file.write_text(write_labeling(2, {0: (1, 2), 1: (3, 4)}))
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file)
        )
        assert code == 1
        assert out == "WeakConditionViolated edge (0,1)\n"

    def test_triangle_all_singletons(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g"
        graph_file.write_text(write_graph(make("complete", n=3).graph))
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(write_labeling(3, {0: (1,), 1: (2,), 2: (3,)}))
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file)
        )
        assert code == 0
        assert out == "weak-IASI: ok, mono=3\n"

    def test_missing_vertex_is_input_error(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g"
        graph_file.write_text(write_graph(make("complete", n=3).graph))
        lab_file = tmp_path / "short.json"
        lab_file.write_text('{"vertices": 3, "labels": {"0": [1], "1": [2]}}')
        code, _, err = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file)
        )
        assert code == 2

    def test_size_mismatch(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g"
        graph_file.write_text(write_graph(make("complete", n=3).graph))
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(write_labeling(2, {0: (1,), 1: (2,)}))
        code, _, err = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file)
        )
        assert code == 2

    def test_a_falling_label_is_refused_in_the_files_words(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g"
        graph_file.write_text(write_graph(make("path", n=2).graph))
        lab_file = tmp_path / "lab.json"
        lab_file.write_text('{"vertices": 2, "labels": {"0": [2, 1], "1": [3]}}')
        code, out, err = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file)
        )
        assert (code, out, err) == (2, "", "error: label of vertex 0 is not strictly increasing\n")

    def test_labels_listed_out_of_vertex_order(self, capsys, tmp_path):
        # read as listed, vertex 0 would get [8, 16] and edge (0,1) would not be mono
        graph_file = tmp_path / "g.g"
        graph_file.write_text("p 4 2\ne 0 1\ne 1 2\n")
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(
            '{"vertices": 4, "labels": {"3": [8, 16], "0": [1], "1": [2], "2": [4]}}'
        )
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file)
        )
        assert (code, out) == (0, "weak-IASI: ok, mono=2\n")

    def test_vertex_collision_reported(self, capsys, tmp_path):
        graph_file = tmp_path / "g.g"
        graph_file.write_text(write_graph(make("path", n=2).graph))
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(write_labeling(2, {0: (1,), 1: (1,)}))
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file)
        )
        assert code == 1
        assert "VertexCollision vertices (0,1)" in out

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("text", "EdgeCollision edges (0,1),(2,3)\n"),
            (
                "json",
                '{"ok": false, "mono": 2, "failures": ["EdgeCollision edges (0,1),(2,3)"]}\n',
            ),
        ],
    )
    def test_edge_collision_reported(self, capsys, tmp_path, fmt, expected):
        graph_file = tmp_path / "g.g"
        graph_file.write_text("p 4 2\ne 0 1\ne 2 3\n")
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(write_labeling(4, {0: (0,), 1: (3,), 2: (1,), 3: (2,)}))
        code, out, err = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(lab_file),
            "--format", fmt,
        )
        assert (code, out, err) == (1, expected, "")


class TestCheck:
    def test_complete_range(self, capsys):
        code, out, _ = run(capsys, "check", "--claim", "C1", "--n", "3..6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 4 rows + summary
        assert lines[-1] == "MATCH=4 MISMATCH=0"

    def test_csv_rows(self, capsys):
        code, out, err = run(
            capsys, "check", "--claim", "C1", "--n", "3..6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "family,params,formula_value,exact_value,verdict,"
            "witness_size,mono_count,runtime_ms"
        )
        stable = [",".join(line.split(",")[:-1]) for line in lines[1:]]
        assert stable == [
            "complete,n=3,1,1,MATCH,1,1",
            "complete,n=4,3,3,MATCH,1,3",
            "complete,n=5,6,6,MATCH,1,6",
            "complete,n=6,10,10,MATCH,1,10",
        ]
        assert err.strip() == "MATCH=4 MISMATCH=0"

    def test_wheel_parity_verdicts(self, capsys):
        code, out, _ = run(
            capsys, "check", "--claim", "C15", "--m", "4..7", "--format", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        verdicts = {row[1]: row[4] for row in rows}
        assert verdicts == {
            "m=4": "MATCH",
            "m=5": "MISMATCH",
            "m=6": "MATCH",
            "m=7": "MISMATCH",
        }
        # mismatching rows still show both values
        m5 = next(row for row in rows if row[1] == "m=5")
        assert (m5[2], m5[3]) == ("2", "4")

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "check", "--claim", "C99")
        assert code == 2
        assert "unknown claim" in err

    def test_exit_zero_despite_mismatches(self, capsys):
        code, out, _ = run(capsys, "check", "--claim", "C12", "--family", "complete", "--n", "3")
        assert code == 0
        assert "MISMATCH" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "check", "--claim", "C11", "--r", "2..4", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["matches"] == 3 and doc["mismatches"] == 0
        assert [row["params"] for row in doc["rows"]] == ["r=2", "r=3", "r=4"]

    def test_parts_ranges(self, capsys):
        code, out, _ = run(
            capsys, "check", "--claim", "C8", "--parts", "1..2,2,3", "--format", "csv"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(",MATCH," in row for row in rows)

    def test_subdivision_modes_both(self, capsys):
        code, out, _ = run(
            capsys, "check", "--claim", "C13", "--family", "complete", "--n", "3",
            "--format", "csv",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert "mode=fresh" in rows[0] and "mode=induced" in rows[1]

    def test_cactus_claim(self, capsys):
        code, out, _ = run(
            capsys, "check", "--claim", "C14", "--cycles", "3,4,5", "--format", "csv"
        )
        assert code == 0
        assert "cactus_chain" in out and ",MATCH," in out

    def test_block_claim_with_item_ranges(self, capsys):
        code, out, _ = run(
            capsys, "check", "--claim", "C9", "--cliques", "2..3,3", "--format", "csv"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2  # cliques=[2,3] and cliques=[3,3]

    def test_split_and_bisplit_claims_report_findings(self, capsys):
        code, out, _ = run(
            capsys, "check", "--claim", "C5", "--r", "3", "--s", "2", "--format", "csv"
        )
        assert code == 0
        assert "5,3,MISMATCH" in out  # predicted and oracle value both displayed
        code, out, _ = run(
            capsys, "check", "--claim", "C7", "--parts", "1,2,3", "--format", "csv"
        )
        assert code == 0
        assert "6,2,MISMATCH" in out

    def test_cone_cross_product_order(self, capsys):
        import csv as csv_mod

        code, out, _ = run(
            capsys, "check", "--claim", "C16", "--m", "3..4", "--n", "2..3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv_mod.reader(out.splitlines()))[1:]
        assert [row[1] for row in rows] == ["m=3,n=2", "m=3,n=3", "m=4,n=2", "m=4,n=3"]
        assert [row[2] for row in rows] == ["3", "3", "4", "4"]

    def test_out_of_domain_point_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "--claim", "C2", "--n", "3..4")
        assert code == 2
        assert "odd" in err

    def test_missing_range_flag(self, capsys):
        code, _, err = run(capsys, "check", "--claim", "C1")
        assert code == 2

    def test_claim_needing_base_without_family(self, capsys):
        code, _, err = run(capsys, "check", "--claim", "C12")
        assert code == 2
        assert "--family" in err


class TestCorpus:
    def test_deterministic_files(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for target in (dir_a, dir_b):
            code, out, _ = run(
                capsys, "corpus", "--count", "4", "--n", "3..6", "--density", "0.5",
                "--seed", "9", "--out-dir", str(target),
            )
            assert code == 0
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == ["graph_000.g", "graph_001.g", "graph_002.g", "graph_003.g"]
        for name in names:
            assert (dir_a / name).read_text() == (dir_b / name).read_text()

    def test_a_smaller_corpus_over_a_larger_one(self, capsys, tmp_path):
        def corpus(n, target):
            code, _, _ = run(
                capsys, "corpus", "--count", "3", "--n", n, "--density", "0.5",
                "--seed", "4", "--out-dir", str(target),
            )
            assert code == 0
            return {p.name: p.read_bytes() for p in target.iterdir()}

        larger = corpus("12", tmp_path / "reused")
        reused = corpus("6", tmp_path / "reused")
        assert reused == corpus("6", tmp_path / "fresh")
        assert all(len(reused[name]) < len(larger[name]) for name in larger)

    def test_generated_files_solve(self, capsys, tmp_path):
        run(
            capsys, "corpus", "--count", "2", "--n", "24", "--density", "0.3",
            "--seed", "5", "--out-dir", str(tmp_path),
        )
        code, out, _ = run(capsys, "solve", "--graph", str(tmp_path / "graph_000.g"))
        assert code == 0
        assert out.startswith("phi=")


class TestThreadsEnv:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARING_THREADS", "4")
        code, out, _ = run(capsys, "solve", "--family", "complete", "--n", "4")
        assert code == 0

    def test_invalid_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARING_THREADS", "lots")
        code, _, err = run(capsys, "solve", "--family", "complete", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("raw", ["\uff11", "+2", "1_0"])
    def test_env_takes_the_flags_integer_spelling(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("SPARING_THREADS", raw)
        code, out, err = run(capsys, "solve", "--family", "complete", "--n", "4")
        assert (code, out, err) == (2, "", f"error: --threads expects an integer, got {raw!r}\n")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARING_THREADS", "lots")
        code, _, _ = run(
            capsys, "solve", "--family", "complete", "--n", "4", "--threads", "2"
        )
        assert code == 0


class TestOneSumSetPass:
    """A labeling's edge sum sets are computed once, by verify_weak's one
    loop over the edges, which reports the mono edges along with its verdict."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        original = labels._edge_sums

        def counted(g, f):
            calls.append(g.n)
            return original(g, f)

        monkeypatch.setattr(labels, "_edge_sums", counted)
        return calls

    def test_certify_then_verify(self, capsys, tmp_path, passes):
        out = tmp_path / "w.json"
        code, _, _ = run(capsys, "certify", "--family", "wheel", "--m", "5", "--out", str(out))
        assert (code, passes) == (0, [6])
        passes.clear()
        code, stdout, _ = run(
            capsys, "verify", "--family", "wheel", "--m", "5", "--labeling", str(out)
        )
        assert (code, stdout, passes) == (0, "weak-IASI: ok, mono=4\n", [6])

    def test_subdivision_induced_mode(self, passes):
        point = {"base": FamilySpec("cycle", {"n": 5}), "mode": "induced"}
        verdict = check_claim(claim_by_id("C13"), point)
        assert (verdict.verdict, verdict.exact) == ("MATCH", 2)
        assert passes == [5, 6]  # the base's certificate, then the subdivision's labeling


class TestOneRulePass:
    """One CLI call checks each labeling by the label rule once, where it
    enters: certify in the verify_weak that certifies the witness, verify in
    read_labeling. Neither checks the same labels again."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        original = labels._fault

        def counted(items):
            calls.append(len(items))
            return original(items)

        monkeypatch.setattr(labels, "_fault", counted)
        return calls

    def test_certify_then_verify(self, capsys, tmp_path, passes):
        out = tmp_path / "w.json"
        code, _, _ = run(capsys, "certify", "--family", "wheel", "--m", "5", "--out", str(out))
        assert (code, passes) == (0, [6])
        passes.clear()
        code, stdout, _ = run(
            capsys, "verify", "--family", "wheel", "--m", "5", "--labeling", str(out)
        )
        assert (code, stdout, passes) == (0, "weak-IASI: ok, mono=4\n", [6])
