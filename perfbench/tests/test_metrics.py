import pytest

from metrics import latency_order, percentile, samples_beyond


def test_nearest_rank():
    ordered = [float(v) for v in range(1, 101)]
    assert percentile(ordered, 50) == 50.0
    assert percentile(ordered, 90) == 90.0
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_p90_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    percentile([0.0] * 100, 90)
    with pytest.raises(ValueError, match="9 beyond"):
        percentile([0.0] * 99, 90)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_median_is_exempt_from_the_rule():
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_failed_ops_never_lower_a_percentile():
    latencies = [1.0, 2.0, 3.0, 0.5]
    ordered = latency_order(latencies, [False, False, False, True])
    assert ordered == [1.0, 2.0, 3.0, 3.0]
    assert latency_order(latencies, [False] * 4) == [0.5, 1.0, 2.0, 3.0]
