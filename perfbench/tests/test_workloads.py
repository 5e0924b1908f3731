import json
import random
from collections import Counter

import tracing
from worker import import_program
from workloads import (
    REFERENCE_PATH, SLOTS, WORKLOADS, Oracle, _runs, closed_form, run_cli, slot_points,
)


def test_plans_repeat_for_a_seed_and_never_repeat_a_call():
    for name, (plan, *_) in WORKLOADS.items():
        first = plan(random.Random(7), 10)
        assert first == plan(random.Random(7), 10), name
        assert first != plan(random.Random(8), 10), name
        calls = [json.dumps(item) for item in first]
        assert len(set(calls)) == len(calls), name


def test_check_ops_cover_each_claim_point_once():
    grid = Counter(key for slot in SLOTS for _, (key,) in slot_points(slot))
    assert max(grid.values()) == 1
    plan = WORKLOADS["cli_session"][0](random.Random(7), 10)
    keys = Counter(key for unit in plan if unit[0] == "check" for key in unit[2])
    assert keys == grid


def test_runs_are_neighbouring_integers_in_order():
    rng = random.Random(3)
    for values in [tuple(range(1, 13)), tuple(range(15, 26, 2))]:
        runs = _runs(rng, values)
        assert sum(runs, ()) == values
        assert all(b == a + 1 for run in runs for a, b in zip(run, run[1:]))
    assert _runs(rng, (15, 17, 19)) == [(15,), (17,), (19,)]


def _solved_graphs(sparing, argv) -> set:
    tracer = tracing.Tracer()
    tracer.install({("solver", "sparing_exact"): lambda a, k, r: {"g": (a[0].n, tuple(a[0].edges()))}})
    try:
        code, _, err = run_cli(sparing, argv)
    finally:
        tracer.uninstall()
    assert code == 0, err
    return {s.counts["g"] for s in tracer.spans}


def test_no_two_cli_ops_solve_the_same_graph():
    sparing = import_program()
    owner: dict = {}
    for slot in SLOTS:
        for argv, (key,) in slot_points(slot):
            for graph in _solved_graphs(sparing, argv):
                assert owner.setdefault(graph, key) == key, (key, owner[graph])
    plan = WORKLOADS["cli_session"][0](random.Random(7), 10)
    for unit in plan:
        if unit[0] == "pair":
            g = sparing.random_graph(*unit[1:])
            graph = (g.n, tuple(g.edges()))
            assert owner.setdefault(graph, unit) == unit, (unit, owner[graph])


def test_reference_covers_every_check_op():
    rows = json.loads(REFERENCE_PATH.read_text())["rows"]
    for slot in SLOTS:
        for _, (key,) in slot_points(slot):
            assert key in rows, key


def test_oracle_answers_are_shared_through_its_file(tmp_path):
    sparing = import_program()
    g = sparing.generate(sparing.FamilySpec("cycle", {"n": 7})).graph
    first = Oracle(tmp_path / "oracle.json")
    answer = first.answer(sparing, g)
    first.save()

    class NoSearch:  # a reloaded oracle answers without searching again
        def sparing_bruteforce(self, g):
            raise AssertionError("searched again")

    assert Oracle(tmp_path / "oracle.json").answer(NoSearch(), g) == answer
    assert answer == (1, tuple(sparing.sparing_bruteforce(g).witness))


def test_closed_forms():
    assert closed_form("cycle", {"n": 33}) == 1
    assert closed_form("wheel", {"m": 16}) == 8
    assert closed_form("wheel", {"m": 15}) == 9
    assert closed_form("cactus_chain", {"cycles": [3, 4, 5]}) == 2
