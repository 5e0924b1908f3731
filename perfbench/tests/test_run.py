from types import SimpleNamespace

import run


def test_count_drift_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = SimpleNamespace(workload="random_solve", seed=5, seconds=15)
    counts = {"solver.nodes": 100, "cli.main.calls": 0}
    assert run.check_repeat(counts, args) == []  # first run stores the counts
    assert run.check_repeat(dict(counts), args) == []
    drift = run.check_repeat({**counts, "solver.nodes": 101}, args)
    assert drift == ["count drift: solver.nodes was 100 in an earlier run, 101 now"]


def test_layer_metrics_name_the_deterministic_counts():
    layers = {
        name: {"calls": 0, "self_s": 0.0}
        for name in ("labels.verify_weak", "claims.check_claim")
    }
    layers["solver.sparing_exact"] = {"calls": 2, "self_s": 0.5, "nodes": 40}
    values = run.layer_metrics({"layers": layers, "overhead_s": 0.5})
    assert values["solver.nodes"] == 40
    assert values["solver.nodes_per_s"] == 80.0
    assert values["labels.verify_weak.edges"] == 0
    assert values["trace.overhead_s"] == 0.5
