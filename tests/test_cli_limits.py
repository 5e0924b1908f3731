"""The CLI's limits and file errors: each refusal comes before the work it
guards, with exit 3 for a size limit and exit 2 for bad input."""

import json
import os

import pytest

from sparing import claims, cli, families, labels
from sparing.cli import main
from sparing.errors import CertificationFailed, SparingError, TooLarge


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_build(monkeypatch):
    """Fail the test if the CLI builds a family instance: every builder ends
    in a Graph, while `generate`'s own refusals come before it."""

    def refuse(n, adj):
        raise AssertionError(f"built a graph on {n} vertices")

    monkeypatch.setattr(families, "Graph", refuse)


def test_no_build_fails_on_a_real_build(no_build):
    with pytest.raises(AssertionError, match="built a graph on 5 vertices"):
        main(["solve", "--family", "cycle", "--n", "5"])


def _below_least_sweeps():
    """A sweep's argv and the argv of its first point alone, for each claim
    without a base on its family's flags and for C12 and C13 on each CLI
    family as the base: one sweep per parameter, whose range (the last item's,
    for a list) ends just below its least value while every other range ends
    far over the vertex cap."""
    owners = [(c, [], c.family) for c in claims.catalog() if "base" not in c.param_order]
    owners += [
        (claims.claim_by_id(id_), ["--family", family], family)
        for id_ in ("C12", "C13") for family in cli._CLI_FAMILIES
    ]
    for claim, head, family in owners:
        least = families.FAMILY_PARAMS[family]
        items = len(claim.param_order) if claim.item_list() else 2
        for below in least:
            sweep, first = [*head], [*head]
            for key, lo in least.items():
                ranges = [(lo, 100)] * items if key in families.LIST_PARAMS else [(lo, 100)]
                if key == below:
                    ranges[-1] = (lo - 2, lo - 1)
                sweep.append(f"--{key}=" + ",".join(f"{a}..{b}" for a, b in ranges))
                first.append(f"--{key}=" + ",".join(str(a) for a, _ in ranges))
            argv = ["check", "--claim", claim.id]
            yield pytest.param([*argv, *sweep], [*argv, *first], id=f"{claim.id}-{family}-{below}")


class TestVertexCapOnFlags:
    @pytest.mark.parametrize(
        "argv,err",
        [
            (
                ["solve", "--family", "complete", "--n", "100000"],
                "error: complete needs 100000 vertices; graphs are limited to 64\n",
            ),
            (
                ["solve", "--family", "cone", "--m", "3", "--n", "1000000000"],
                "error: cone needs 1000000003 vertices; graphs are limited to 64\n",
            ),
            (
                ["solve", "--family", "complete_multipartite", "--parts", ",".join(["1"] * 20000)],
                "error: complete_multipartite needs 20000 vertices; graphs are limited to 64\n",
            ),
            (
                ["check", "--claim", "C1", "--n", "1..1000000000000"],
                "error: complete needs 1000000000000 vertices at n=1000000000000; "
                "graphs are limited to 64\n",
            ),
            (
                ["check", "--claim", "C12", "--family", "cycle", "--n", "3..65"],
                "error: cycle needs 65 vertices at n=65; graphs are limited to 64\n",
            ),
            (
                ["check", "--claim", "C9", "--cliques", "3,2..65"],
                "error: block_chain needs 67 vertices at cliques=3,65; graphs are limited to 64\n",
            ),
            (
                ["solve", "--family", "complete_multipartite", "--parts", ",".join(["64"] * 64)],
                "error: complete_multipartite needs 4096 vertices; graphs are limited to 64\n",
            ),
            (
                ["check", "--claim", "C8", "--parts", "30..31,30,30"],
                "error: complete_multipartite needs 91 vertices at parts=31,30,30; "
                "graphs are limited to 64\n",
            ),
            (
                ["check", "--claim", "C9", "--cliques", "33,33"],
                "error: block_chain needs 65 vertices; graphs are limited to 64\n",
            ),
            (
                ["certify", "--family", "path", "--n", "65", "--out", "unused.json"],
                "error: path needs 65 vertices; graphs are limited to 64\n",
            ),
            (
                ["solve", "--family", "windmill", "--n", "64", "--r", "64"],
                "error: windmill needs 4033 vertices; graphs are limited to 64\n",
            ),
            (
                ["check", "--claim", "C3", "--parts", "1..40,30"],
                "error: complete_bipartite needs 70 vertices at parts=40,30; "
                "graphs are limited to 64\n",
            ),
        ],
    )
    def test_refused_before_any_build(self, capsys, no_build, argv, err):
        assert run(capsys, *argv) == (3, "", err)

    def test_a_wrong_part_count_is_refused_before_the_cap(self, capsys, no_build):
        assert run(capsys, "solve", "--family", "complete_bipartite", "--parts", "40,40,1") == (
            2, "", "error: complete_bipartite requires exactly 2 part sizes\n"
        )

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["solve", "--family", "complete_bipartite", "--parts", "0,1,1"],
             "complete_bipartite requires all part sizes >= 1"),
            # under a least value and over the cap: refused as make refuses it
            (["solve", "--family", "complete_bipartite", "--parts", "0,100"],
             "complete_bipartite requires all part sizes >= 1"),
            (["certify", "--family", "cone", "--m", "2", "--n", "100", "--out", "unused.json"],
             "cone requires m >= 3 and n >= 1"),
            (["verify", "--family", "wheel", "--m", "2", "--labeling", "unused.json"],
             "wheel requires m >= 3"),
            (["check", "--claim", "C12", "--family", "complete_bisplit", "--parts", "0,1..2,3,4"],
             "complete_bisplit requires all part sizes >= 1"),
            # a claim's own points keep the claim's wording
            (["check", "--claim", "C3", "--parts", "0,1"], "C3 requires a >= 1 and b >= 1"),
            # ... also under a least value and over the cap
            (["check", "--claim", "C3", "--parts", "0,100"], "C3 requires a >= 1 and b >= 1"),
            # a claim with its own domain: its top point, m=2,n=76, has 78 vertices
            (["check", "--claim", "C16", "--m", "2", "--n", "15..76"],
             "C16 requires m >= 3 and n >= 2"),
        ],
    )
    def test_family_flags_are_refused_in_generates_order(self, capsys, no_build, argv, err):
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize("sweep,first", _below_least_sweeps())
    def test_a_sweep_below_a_least_value_is_refused_as_its_first_point(
        self, capsys, no_build, sweep, first
    ):
        code, out, err = run(capsys, *sweep)
        assert (code, out, err) == run(capsys, *first)
        assert code == 2 and " requires " in err

    def test_corpus_size_refused_before_writing(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        code, out, err = run(capsys, "corpus", "--n", "100", "--out-dir", str(out_dir))
        assert (code, out) == (3, "")
        assert err == "error: --n needs 100 or more vertices; graphs are limited to 64\n"
        assert not out_dir.exists()

    def test_certified_base_over_the_witness_cap(self, capsys):
        code, out, err = run(capsys, "check", "--claim", "C13", "--family", "cycle", "--n", "30")
        assert (code, out) == (3, "")
        assert err == (
            "error: claim C13 at base=cycle,n=30,mode=fresh: "
            "certification needs 29 or fewer vertices\n"
        )

    def test_induced_subdivision_over_the_solve_cap(self, capsys):
        # only fresh mode solves the 67-vertex subdivision of K12
        c13 = ["check", "--claim", "C13", "--family", "complete", "--format", "csv", "--mode"]
        for n, row in [
            (12, 'max_subdivision(complete),"base=complete,n=12,mode=induced",110,110,MATCH,1,110,'),
            (29, 'max_subdivision(complete),"base=complete,n=29,mode=induced",756,756,MATCH,1,756,'),
        ]:
            code, out, err = run(capsys, *c13, "induced", "--n", str(n))
            assert (code, err) == (0, "MATCH=1 MISMATCH=0\n")
            assert out.splitlines()[1].startswith(row)
        assert run(capsys, *c13, "fresh", "--n", "12") == (
            3,
            "",
            "error: claim C13 at base=complete,n=12,mode=fresh: graph has 67 vertices; "
            "solve is limited to 64\n",
        )

    def test_values_at_the_cap_still_build(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "path", "--n", "64")
        assert code == 0
        assert out.startswith("phi=0 ")
        code, _, err = run(capsys, "solve", "--family", "complete_sun", "--n", "64")
        assert (code, err) == (
            3, "error: complete_sun needs 128 vertices; graphs are limited to 64\n"
        )

    def test_list_sums_at_the_cap_still_build(self, capsys):
        code, out, _ = run(capsys, "check", "--claim", "C9", "--cliques", "32,33")
        assert (code, out.splitlines()[1].split()[:2]) == (0, ["block_chain", "cliques=32,33"])
        code, out, _ = run(capsys, "check", "--claim", "C3", "--parts", "1..34,30")
        *_, last, summary = out.splitlines()
        assert (code, last.split()[:2], summary) == (
            0, ["complete_bipartite", "a=34,b=30"], "MATCH=34 MISMATCH=0"
        )

    def test_sixty_four_list_items_are_accepted(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--family", "complete_multipartite", "--parts", ",".join(["1"] * 64)
        )
        assert code == 0
        assert out.startswith("phi=1953 ")  # K_64: (64-1)(64-2)/2


class TestLazySweep:
    @pytest.mark.parametrize(
        "argv,err",
        [
            (["check", "--claim", "C1", "--n=-1000000000000..3"], "error: C1 requires n >= 1\n"),
            (
                ["check", "--claim", "C16", "--m", "3", "--n=-1000000000000..3"],
                "error: C16 requires m >= 3 and n >= 2\n",
            ),
            (
                ["check", "--claim", "C12", "--family", "cycle", "--n=-1000000000000..3"],
                "error: cycle requires n >= 3\n",
            ),
            (
                ["corpus", "--count", "1", "--n=-1000000000000..-1", "--out-dir", "{tmp}"],
                "error: random_graph requires n >= 0\n",
            ),
            # a sweep with no valid point: its top point has 1 vertex, however large --r
            (
                ["check", "--claim", "C10", "--n", "0..1", "--r", "100"],
                "error: C10 requires n >= 2 and r >= 2\n",
            ),
        ],
    )
    def test_stops_at_the_first_bad_point(self, capsys, tmp_path, argv, err):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run(capsys, *argv) == (2, "", err)

    def test_item_ranges_stop_at_the_first_point_over_the_cap(self, capsys, no_build):
        code, out, err = run(
            capsys, "check", "--claim", "C9", "--cliques", "2..64,2..64,2..64,2..64"
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: block_chain needs 253 vertices at cliques=64,64,64,64; "
            "graphs are limited to 64\n"
        )

    def test_flags_are_parsed_before_the_first_point(self, capsys, no_build):
        code, _, err = run(capsys, "check", "--claim", "C16", "--m", "2..5", "--n", "x")
        assert (code, err) == (2, "error: --n expects an integer, got 'x'\n")


class TestFiles:
    def test_certify_to_a_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "w.json"
        code, stdout, err = run(
            capsys, "certify", "--family", "cycle", "--n", "5", "--out", str(out)
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: ")

    def test_corpus_under_a_regular_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "corpus"
        code, stdout, err = run(capsys, "corpus", "--count", "2", "--out-dir", str(out_dir))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out_dir}: ")

    @pytest.mark.parametrize(
        "flags,err",
        [
            (["--count", "-3"], "error: --count must be >= 0\n"),
            (["--density", "1.5"], "error: --density must be in [0, 1]\n"),
            (["--density", "-0.1"], "error: --density must be in [0, 1]\n"),
            (["--density", "nan"], "error: --density must be in [0, 1]\n"),
            (["--n", "\u0663"], "error: --n expects an integer, got '\u0663'\n"),  # Arabic-Indic 3
            (["--n", "2..+5"], "error: --n expects an integer, got '+5'\n"),
            (["--count", "\uff15"], "error: --count expects an integer, got '\uff15'\n"),  # full-width 5
            (["--count", "1_0"], "error: --count expects an integer, got '1_0'\n"),
            (["--count", "two"], "error: --count expects an integer, got 'two'\n"),
            (["--seed", "+5"], "error: --seed expects an integer, got '+5'\n"),
            (
                ["--count", "4", "--n=-1..8", "--seed", "5"],
                "error: random_graph requires n >= 0\n",
            ),
            (
                ["--count", "4", "--n=-3..-1", "--seed", "5"],
                "error: random_graph requires n >= 0\n",
            ),
        ],
    )
    def test_corpus_input_refused_before_writing(self, capsys, tmp_path, flags, err):
        out_dir = tmp_path / "corpus"
        assert run(capsys, "corpus", *flags, "--out-dir", str(out_dir)) == (2, "", err)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv,data,position",
        [
            (["solve", "--graph", "bad"], b"p 2 1\ne 0 1\xff", 11),
            (
                ["verify", "--graph", "g2.g", "--labeling", "bad"],
                b'{"vertices": 2, "labels": {"0": [1], "1": [2]}}\xff',
                47,
            ),
        ],
    )
    def test_undecodable_file(self, capsys, tmp_path, monkeypatch, argv, data, position):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g2.g").write_text("p 2 1\ne 0 1\n")
        (tmp_path / "bad").write_bytes(data)
        assert run(capsys, *argv) == (
            2,
            "",
            f"error: cannot read bad: 'utf-8' codec can't decode byte 0xff in position "
            f"{position}: invalid start byte\n",
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["solve", "--graph", "big"], "graph text is longer than 1000000 characters"),
            (
                ["verify", "--graph", "g2.g", "--labeling", "big"],
                "labeling text is longer than 10000000 characters",
            ),
        ],
    )
    def test_sparse_file_over_the_text_cap(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g2.g").write_text("p 2 1\ne 0 1\n")
        (tmp_path / "big").touch()
        os.truncate(tmp_path / "big", 2 * 10**7)  # 20,000,000 NUL characters
        assert cli._read("big", 5) == "\0" * 6  # the read stops one character past its limit
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_labeling_over_the_vertex_cap(self, capsys, tmp_path):
        graph = tmp_path / "g2.g"
        graph.write_text("p 2 1\ne 0 1\n")
        labeling = tmp_path / "huge.json"
        labeling.write_text('{"vertices": 1000000000000, "labels": {}}')
        code, out, err = run(
            capsys, "verify", "--graph", str(graph), "--labeling", str(labeling)
        )
        assert (code, out) == (2, "")
        assert err == "error: labeling declares 1000000000000 vertices; graphs are limited to 64\n"

    def test_labeling_over_the_sum_pair_cap(self, capsys, tmp_path, monkeypatch):
        # two 10,000-element labels with 100,000,000 distinct sums, in a file
        # of 157,818 bytes
        calls = []
        monkeypatch.setattr(labels, "sumset", lambda a, b: calls.append((a, b)))
        graph = tmp_path / "g2.g"
        graph.write_text("p 2 1\ne 0 1\n")
        labeling = tmp_path / "long.json"
        label_lists = {"0": list(range(10**4)), "1": list(range(0, 10**8, 10**4))}
        labeling.write_text(json.dumps({"vertices": 2, "labels": label_lists}))
        code, out, err = run(
            capsys, "verify", "--graph", str(graph), "--labeling", str(labeling)
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: the sum sets need 100000000 pairs of label elements; "
            "verification is limited to 1000000\n"
        )
        assert calls == []

    def test_labeling_over_the_collision_pair_cap(self, capsys, tmp_path):
        # K64 with every label {0}: 2,016 edges with one sum set, a 722-byte labeling
        graph = tmp_path / "k64.g"
        graph.write_text("p 64 2016\n" + "".join(
            f"e {u} {v}\n" for u in range(64) for v in range(u + 1, 64)
        ))
        labeling = tmp_path / "zeros.json"
        labeling.write_text(json.dumps({"vertices": 64, "labels": {v: [0] for v in range(64)}}))
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "verify", "--graph", str(graph), "--labeling",
                                 str(labeling), "--format", fmt)
            assert (code, out) == (3, "")
            assert err == (
                "error: the labels give 2031120 EdgeCollision pairs; "
                "verification lists at most 100000\n"
            )


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv,err",
        [
            (["check", "--claim", "C1", "--n", "4", "--family", "cycle"],
             "error: claim C1 takes no --family\n"),
            (["check", "--claim", "C1", "--n", "4", "--m", "7"], "error: claim C1 takes no --m\n"),
            (["check", "--claim", "C1", "--n", "4", "--mode", "fresh"],
             "error: claim C1 takes no --mode\n"),
            (["check", "--claim", "C12", "--family", "cycle", "--n", "5", "--mode", "fresh"],
             "error: claim C12 takes no --mode\n"),
            (["check", "--claim", "C12", "--family", "cycle", "--n", "5", "--m", "3"],
             "error: family cycle takes no --m\n"),
            (["solve", "--family", "cycle", "--n", "5", "--m", "3"],
             "error: family cycle takes no --m\n"),
            (["solve", "--graph", "g.g", "--family", "cycle"], "error: --graph takes no --family\n"),
            (["verify", "--graph", "g.g", "--n", "5", "--labeling", "w.json"],
             "error: --graph takes no --n\n"),
        ],
    )
    def test_refused_before_any_build(self, capsys, no_build, argv, err):
        assert run(capsys, *argv) == (2, "", err)

    def test_check_takes_no_graph_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--claim", "C1", "--n", "5", "--graph", "/nonexistent.g"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "sparing: error: unrecognized arguments: --graph /nonexistent.g"

    @pytest.mark.parametrize(
        "argv,extras",
        [
            (["check", "--claim", "C1", "--n", "5", "--graph", "g.g"], "--graph g.g"),
            (["solve", "--family", "cycle", "--n", "5", "--bogus"], "--bogus"),
            (["verify", "--graph", "g.g", "--labeling", "w.json", "extra"], "extra"),
        ],
    )
    def test_unknown_argument_shows_the_command_usage(self, capsys, no_build, argv, extras):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: sparing {argv[0]} [-h]")
        assert lines[-1] == f"sparing: error: unrecognized arguments: {extras}"

    def test_mode_defaults_to_both(self, capsys):
        code, out, _ = run(capsys, "check", "--claim", "C13", "--family", "path", "--n", "3")
        assert (code, [line.split()[1] for line in out.splitlines()[1:3]]) == (
            0, ["base=path,n=3,mode=fresh", "base=path,n=3,mode=induced"]
        )


def _error_classes(cls=SparingError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_exit_code_comes_from_the_error_class(capsys, monkeypatch, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_load_graph", fail)
    assert error.exit_code == {TooLarge: 3, CertificationFailed: 1}.get(error, 2)
    assert run(capsys, "solve", "--family", "cycle", "--n", "5") == (
        error.exit_code, "", "error: boom\n"
    )
