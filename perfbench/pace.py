"""The machine's pace, timed by the runner between a pass's steps.

The shared machines this runs on change speed by up to twofold for seconds
at a time, and over minutes: a pass made in a slow spell reads slow, and
the fastest of a few passes does not remove that. So while a pass runs, its
worker stops after every CADENCE_S of timed work and asks the runner for a
probe: a fixed search whose fastest time says how fast the core runs just
then. Each op's latency, and each step of the set-up, is scaled by
REFERENCE_MS over the pace around it: the mean of the probes just before and
just after it. Times are then reported at the reference pace, the probe's
time on the machine the benchmark was tuned on.

The probe is the benchmark's own code, not the program's: an exhaustive
maximum-independent-set search over bitmasks on a fixed cycle, the same mix
of integer bit operations, recursion and small calls as the program's
search. It runs in the runner process while the worker waits on a pipe, so
the program cannot speed up or slow down a probe but by slowing the machine.
"""

from __future__ import annotations

import os
import select
import time

PROBE_N = 14  # cycle length of the probe search: about 0.29 ms on a 2.1 GHz core
PROBE_RUNS = 3  # a probe is the fastest of this many searches
REFERENCE_MS = 0.29  # a probe's time on the 2.1 GHz core the benchmark was tuned on
CADENCE_S = 0.01  # timed work between two probes of a pass


def _cycle(n: int) -> list[int]:
    return [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]


def _mis(adj: list[int], cand: int) -> int:
    if not cand:
        return 0
    low = cand & -cand
    rest = cand ^ low
    return max(_mis(adj, rest), 1 + _mis(adj, rest & ~adj[low.bit_length() - 1]))


_ADJ, _FULL = _cycle(PROBE_N), (1 << PROBE_N) - 1


def probe() -> float:
    """The fastest of PROBE_RUNS probe searches, in ms."""
    best = float("inf")
    for _ in range(PROBE_RUNS):
        t = time.perf_counter()
        if _mis(_ADJ, _FULL) != PROBE_N // 2:
            raise AssertionError("probe search gave a wrong answer")
        best = min(best, time.perf_counter() - t)
    return best * 1000


def serve(request_fd: int, reply_fd: int, deadline: float) -> list[float]:
    """Answer a worker's probe requests until it closes its end; the probe times in ms.

    Raises TimeoutError if the worker is still running at ``deadline``.
    """
    times = []
    while True:
        ready, _, _ = select.select([request_fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise TimeoutError
        if not os.read(request_fd, 1):
            return times
        times.append(probe())
        try:
            os.write(reply_fd, b"p")
        except BrokenPipeError:  # the worker died; run.py reports its exit status
            return times


class Client:
    """The worker's side: asks for a probe and waits until the runner has made it.

    The worker times its work as a sequence of intervals (set-up steps, then
    ops). ``marks`` holds, for each probe, the number of intervals timed
    before it: the first probe comes before any, the last after all.
    """

    def __init__(self, request_fd: int, reply_fd: int):
        self.request_fd, self.reply_fd = request_fd, reply_fd
        self.marks: list[int] = []
        self.since_probe = 0.0

    def probe(self, done: int) -> None:
        os.write(self.request_fd, b"p")
        if os.read(self.reply_fd, 1) != b"p":
            raise RuntimeError("the runner stopped answering probe requests")
        self.marks.append(done)
        self.since_probe = 0.0

    def after(self, done: int, seconds: float) -> None:
        """Called after each timed interval; probes once CADENCE_S of them add up."""
        self.since_probe += seconds
        if self.since_probe >= CADENCE_S:
            self.probe(done)

    def close(self, done: int) -> None:
        if self.marks[-1] != done:
            self.probe(done)
        os.close(self.request_fd)
        os.close(self.reply_fd)


def scales(marks: list[int], probe_ms: list[float], intervals: int) -> list[float]:
    """The factor that takes each timed interval to the reference pace.

    ``marks[k]`` intervals were timed when probe ``k`` ran, as Client records
    them; an interval's pace is the mean of the last probe before it and the
    first after it.
    """
    if len(marks) != len(probe_ms) or marks[0] != 0 or marks[-1] != intervals:
        raise ValueError(f"probe marks {marks[:2]}...{marks[-1:]} do not fit {intervals} intervals")
    factors = []
    for k in range(len(marks) - 1):
        pace = (probe_ms[k] + probe_ms[k + 1]) / 2
        factors += [REFERENCE_MS / pace] * (marks[k + 1] - marks[k])
    return factors
