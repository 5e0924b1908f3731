import os
import threading
import time

import pytest

import pace


def test_each_interval_takes_the_mean_pace_of_the_probes_around_it():
    ref = pace.REFERENCE_MS
    # probes before interval 0, after interval 0, after interval 2 and after the last
    probe_ms = [ref, 3 * ref, ref, 2 * ref]
    assert pace.scales([0, 1, 3, 4], probe_ms, 4) == pytest.approx([0.5, 0.5, 0.5, 2 / 3])


def test_marks_that_do_not_cover_the_intervals_are_refused():
    with pytest.raises(ValueError):
        pace.scales([0, 2], [1.0, 1.0], 3)
    with pytest.raises(ValueError):
        pace.scales([1, 3], [1.0, 1.0], 3)
    with pytest.raises(ValueError):
        pace.scales([0, 1, 3], [1.0, 1.0], 3)


def test_probe_is_a_positive_time():
    assert 0 < pace.probe() < 1000


def test_client_and_runner_take_turns(monkeypatch):
    monkeypatch.setattr(pace, "probe", iter([1.0, 2.0, 3.0, 4.0]).__next__)
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    client = pace.Client(request_w, reply_r)

    def worker():
        client.probe(0)
        client.after(1, pace.CADENCE_S)
        client.after(2, pace.CADENCE_S / 2)  # too soon for a probe
        client.after(3, pace.CADENCE_S / 2)
        client.after(4, 0.0)
        client.close(4)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        times = pace.serve(request_r, reply_w, time.monotonic() + 30)
    finally:
        thread.join()
        os.close(request_r)
        os.close(reply_w)
    assert times == [1.0, 2.0, 3.0, 4.0]
    assert client.marks == [0, 1, 3, 4]


def test_serve_gives_up_at_the_deadline():
    request_r, request_w = os.pipe()
    try:
        with pytest.raises(TimeoutError):
            pace.serve(request_r, request_w, time.monotonic() + 0.05)
    finally:
        os.close(request_r)
        os.close(request_w)
