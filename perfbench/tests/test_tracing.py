import pytest

import tracing
from tracing import Span, Tracer, layer_totals, self_times


def test_self_time_nested_spans():
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "claims.check_claim", 1.0, 9.0),
        Span(2, 1, "solver.sparing_exact", 2.0, 5.0),
    ]
    assert self_times(spans) == [2.0, 5.0, 3.0]


def test_self_time_sibling_spans():
    spans = [
        Span(0, None, "solver.solve_and_certify", 0.0, 10.0),
        Span(1, 0, "solver.sparing_exact", 1.0, 4.0),
        Span(2, 0, "labels.verify_weak", 4.0, 6.0),
        Span(3, 0, "labels.mono_edges", 8.0, 9.0),
    ]
    assert self_times(spans) == [4.0, 3.0, 2.0, 1.0]


def test_overlapping_children_are_covered_once():
    spans = [
        Span(0, None, "a", 0.0, 10.0),
        Span(1, 0, "b", 2.0, 6.0),
        Span(2, 0, "c", 4.0, 8.0),
        Span(3, 0, "d", 9.0, 12.0),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_sum_self_time_and_counts():
    spans = [
        Span(0, None, "solver.solve_and_certify", 0.0, 4.0),
        Span(1, 0, "solver.sparing_exact", 0.0, 1.0, {"nodes": 7}),
        Span(2, None, "solver.sparing_exact", 5.0, 7.0, {"nodes": 5}),
    ]
    totals = layer_totals(spans)
    assert totals["solver.sparing_exact"] == {"calls": 2, "self_s": 3.0, "nodes": 12}
    assert totals["solver.solve_and_certify"] == {"calls": 1, "self_s": 3.0}
    assert totals["cli.main"] == {"calls": 0, "self_s": 0.0}


def _bindings(sparing):
    import sparing.claims, sparing.cli, sparing.solver  # noqa: F401

    return {
        (name, attr): value
        for name, module in [("sparing", sparing), ("claims", sparing.claims),
                             ("cli", sparing.cli), ("solver", sparing.solver)]
        for attr, value in vars(module).items() if callable(value)
    }


def test_wrappers_catch_cross_layer_calls_and_restore_originals():
    import sparing
    import sparing.cli

    before = _bindings(sparing)
    tracer = Tracer()
    tracer.install()
    try:
        assert sparing.cli.sparing_exact is not before[("cli", "sparing_exact")]
        assert sparing.claims.sparing_exact is sparing.solver.sparing_exact
        verdict = sparing.claims.check_claim(sparing.claim_by_id("C2"), {"n": 5})
    finally:
        tracer.uninstall()
    assert verdict.exact == 1
    assert _bindings(sparing) == before
    names = [s.name for s in tracer.spans]
    assert names[0] == "claims.check_claim"
    assert "solver.sparing_exact" in names and "claims.predicted_value" in names
    solve = next(s for s in tracer.spans if s.name == "solver.sparing_exact")
    assert solve.parent == 0 and solve.counts["nodes"] > 0


def test_missing_function_fails_loudly_and_patches_nothing():
    import sparing

    before = _bindings(sparing)
    targets = dict(tracing.TRACED)
    targets[("solver", "no_such_solver")] = None
    with pytest.raises(RuntimeError, match="no_such_solver"):
        Tracer().install(targets)
    assert _bindings(sparing) == before


def test_wrapper_cost_is_positive_and_small():
    assert 0 < tracing.wrapper_cost(calls=2000, repeats=3) < 1e-3
