"""Timing estimators shared by the benchmark runner and the steadiness tool.

The host this benchmark was tuned on changes speed by up to a factor of
two, in stretches of a quarter second to a few seconds, so raw times say
as much about the host as about the program.  Two measures absorb that:

* :class:`SpeedClock` times :func:`probe`, a fixed loop of dictionary and
  integer work that does not touch the program, every ``interval``
  seconds from a ``SIGALRM`` handler, in the middle of the program's own
  work.  It maps wall-clock instants to reference seconds: each stretch
  of program time between two probes counts as its length times
  ``REF_PROBE_S`` over the local probe time (the median of the
  ``window`` probes around it), and the probes themselves count as 0.  A
  slow stretch slows the probes next to it and cancels out; a change to
  the program does not touch the probe and shows in full.  Times read as
  seconds on a host that runs the probe in ``REF_PROBE_S``.
* The runner cycles through a workload's inputs several times and keeps,
  for each input, its fastest verdict in reference seconds.  ``pass_s``
  is the sum of those per-input minima and ``worst_verdict_s`` their
  maximum.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from typing import Sequence

#: probe time of the reference host; the 2-core Xeon VM this was tuned on, with
#: Python 3.11, runs the probe in 0.20 ms in its fast and 0.35 ms in its slow stretches
REF_PROBE_S = 0.00025

PROBE_INTERVAL_S = 0.02
PROBE_WINDOW = 5


def probe_table() -> dict:
    return dict.fromkeys(range(256), 0)


def probe(table: dict) -> int:
    """A fixed loop of dictionary and integer work on a small table from
    :func:`probe_table`, built once.  The table stays in the processor's
    cache, so the probe feels the host's speed and not the program's
    memory traffic; it neither grows the table nor keeps an object, so it
    leaves the program's heap as it found it."""
    acc = 0
    for i in range(1000):
        k = (i * 7919) % 251
        table[k] = (i ^ k) & 255
        acc += table[(k * 31) & 255] ^ (k << 3)
    return acc


class ReferenceTime:
    """Maps ``time.perf_counter`` instants to reference seconds, from the
    ``(start, end)`` instants of the probes timed in between."""

    def __init__(self, stamps: Sequence[float], window: int = PROBE_WINDOW) -> None:
        """``stamps`` holds each probe's start and end, one after the other."""
        if len(stamps) % 2:
            raise ValueError("every probe needs a start and an end")
        pairs = sorted(zip(stamps[::2], stamps[1::2]))
        durations = [b - a for a, b in pairs]
        half = window // 2
        self._a = [a for a, _ in pairs]
        self._b = []  # latest probe end so far, in case a probe interrupted another
        # reference seconds per wall second in the stretch before probe j
        self._rate = [REF_PROBE_S / statistics.median(durations[max(0, j - half):j + half + 1])
                      for j in range(len(durations))]
        self._ref_at_end = []  # reference instant at the end of probe j
        ref = 0.0
        for j, (a, b) in enumerate(pairs):
            if j:
                ref += max(0.0, a - self._b[-1]) * self._rate[j]
                b = max(b, self._b[-1])
            self._b.append(b)
            self._ref_at_end.append(ref)
        self.probe_median_s = statistics.median(durations) if durations else None

    def __call__(self, t: float) -> float:
        """Reference instant of wall instant ``t``; with no probe at all,
        ``t`` itself."""
        if not self._a:
            return t
        j = bisect.bisect_right(self._a, t)
        if j == 0:  # before the first probe
            return (t - self._a[0]) * self._rate[0]
        if t <= self._b[j - 1]:  # inside probe j - 1
            return self._ref_at_end[j - 1]
        rate = self._rate[min(j, len(self._rate) - 1)]
        return self._ref_at_end[j - 1] + (t - self._b[j - 1]) * rate

    def duration(self, start: float, end: float) -> float:
        return self(end) - self(start)


class SpeedClock:
    """Times :func:`probe` every ``interval`` seconds of wall time while
    started; :meth:`stop` returns the :class:`ReferenceTime` of the run.

    The probes' instants go to a buffer sized up front for ``capacity_s``
    seconds: a buffer that grew during the run would be reallocated among
    the program's objects and raised its peak memory by 15 MiB.  Probes
    past the capacity are not recorded; the clock then goes on at the
    last recorded rate.
    """

    def __init__(self, capacity_s: float, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self._stamps = array("d", bytes(8 * 2 * (int(capacity_s / interval) + 1)))
        self._used = 0
        self._table = probe_table()
        self._previous = None

    def _tick(self, signum, frame) -> None:
        used = self._used
        if used < len(self._stamps):
            start = time.perf_counter()
            probe(self._table)
            self._stamps[used + 1] = time.perf_counter()
            self._stamps[used] = start
            self._used = used + 2

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> ReferenceTime:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return ReferenceTime(self._stamps[:self._used])


def per_input_min(times: Sequence[Sequence[float]]) -> list[float]:
    """Fastest time of each input over passes; ``times[pass][input]``."""
    if not times:
        raise ValueError("at least one pass is needed")
    width = len(times[0])
    if any(len(row) != width for row in times):
        raise ValueError("every pass must time every input")
    return [min(col) for col in zip(*times)]


def pass_estimate(times: Sequence[Sequence[float]]) -> tuple[float, float]:
    """``(pass_s, worst_verdict_s)`` from per-input minima over passes."""
    best = per_input_min(times)
    return sum(best), max(best)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles``
    (exclusive method) gives them; one value is its own quartiles."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2
