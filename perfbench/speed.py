"""Machine-speed calibration.

The benchmark's host is shared: the same pure-Python work runs up to about
1.5 times slower for stretches of a fraction of a second to tens of seconds,
whoever else is busy.  A 30-second run sees an arbitrary mix of those
phases, so raw wall times of equal runs spread by up to 30%.

``probe`` times a fixed pure-Python integer workload (independent of
pgspectra, so no change to the package can speed it up).  ``SpeedClock``
runs it on a timer, also in the middle of long library calls, and converts
work time to *reference seconds*:

    reference time = measured time * REFERENCE_PROBE_S / probe time nearby

that is, the time the work would take on a machine where the probe takes
``REFERENCE_PROBE_S``.  On the 2-vCPU Xeon VM where the benchmark was
defined the probe takes 9 to 15 ms, so reference times read close to that
machine's wall times.  Raw times are kept in the run record.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
from collections import deque
from operator import mul
from time import perf_counter

REFERENCE_PROBE_S = 0.010
PROBE_INTERVAL_S = 0.2

_rng = random.Random(0)
_ROWS = [[_rng.getrandbits(60) for _ in range(20)] for _ in range(20)]
_COLS = list(zip(*_ROWS))
_NEIGHBORS = [frozenset(_rng.sample(range(400), 12)) for _ in range(400)]


def _bfs(source: int) -> list[int]:
    dist = [-1] * len(_NEIGHBORS)
    dist[source] = 0
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        for w in _NEIGHBORS[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def probe() -> float:
    """Seconds for a fixed mix of big-integer products and breadth-first searches.

    The mix mirrors the package's two hot loops (``char_poly`` and
    ``distance_matrix``); the collector is off while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(6):
            [[sum(map(mul, r, c)) for c in _COLS] for r in _ROWS]
        for source in range(20):
            _bfs(source)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """A work clock that leaves out probe time, with probes taken on a timer.

    While entered, a ``SIGALRM`` timer probes every ``PROBE_INTERVAL_S``
    seconds; Python runs the handler between bytecodes, so probes land inside
    long calls too.  ``now`` is wall time minus the time spent probing, and
    ``reference_seconds`` scales a work interval by the probes around it.
    Use from the main thread only.
    """

    def __init__(self) -> None:
        self.probe_s = 0.0
        self.at: list[float] = []  # work-clock time of each probe
        self.took: list[float] = []  # its duration
        self._previous_handler: object = None

    def now(self) -> float:
        return perf_counter() - self.probe_s

    def _probe(self, *_: object) -> None:
        start = perf_counter()
        took = probe()
        self.at.append(start - self.probe_s)
        self.took.append(took)
        self.probe_s += perf_counter() - start

    def __enter__(self) -> SpeedClock:
        self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._probe()

    def reference_seconds(self, start: float, end: float) -> float:
        """Work-clock interval ``[start, end]`` in reference seconds.

        Each stretch between two consecutive probes runs at the speed of
        their mean; the interval must lie inside the probed span.
        """
        total = 0.0
        j = max(bisect.bisect_right(self.at, start) - 1, 0)
        while start < end:
            stop = min(end, self.at[j + 1])
            total += (stop - start) * REFERENCE_PROBE_S * 2 / (self.took[j] + self.took[j + 1])
            start = stop
            j += 1
        return total
