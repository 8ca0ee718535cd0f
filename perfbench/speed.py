"""Host speed probe: timings in reference seconds.

On a shared host the same pure-Python work runs up to 1.8x slower or
faster from one minute to the next, as co-tenants load the machine, and
a run of the benchmark can sit in a slow or a fast stretch for all of
its length.  No statistic taken over one run removes that.  So the
benchmark brackets each timed run by two runs of a fixed probe loop,
which uses nothing from the program, and rescales it by how much
slower than :data:`REFERENCE_S` the probe ran around it:

    reference seconds = seconds x REFERENCE_S / sqrt(probe before x probe after)

A change that makes the program slower raises its reference seconds by
the same factor; a host that slows the probe and the program alike
leaves them where they were.  The raw seconds are reported alongside.

The probe is pure Python, and tracks pure-Python work: on the tuning
host it cut the run-to-run spread of the ``paper`` and ``fleet``
passes from up to 0.45 to under 0.07.  NumPy-bound work barely follows
the host's pace, so the ``body-fabric`` passes stay in seconds.
Set-up runs in other processes, between probes far apart; it is
rescaled by :attr:`HostClock.factor`, the run's mean rescaling.
"""

from __future__ import annotations

import math
import time

#: Iterations of the probe loop (a few milliseconds).
PROBE_ITERATIONS = 30_000

#: The probe's time on the unloaded 2-CPU Xeon (Sapphire Rapids)
#: container the benchmark was tuned on: reference seconds are seconds
#: on that host when nothing else loads it.
REFERENCE_S = 0.0033


class _Point:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: float, offset: float):
        self.scale = scale
        self.offset = offset

    def at(self, x: float) -> float:
        return self.scale * x + self.offset


_POINT = _Point(0.5, 3.0)
_TABLE = {key: key * 0.25 for key in range(97)}


def _loop() -> float:
    # Calls, attribute reads, dict lookups and float arithmetic, like
    # the simulator's inner loops, but allocating nothing the garbage
    # collector tracks.
    point, table, total = _POINT, _TABLE, 0.0
    for i in range(PROBE_ITERATIONS):
        total += point.at(table[i % 97])
    return total


def probe() -> float:
    """Seconds the probe loop takes now: the faster of two runs, so an
    interrupt in one does not count."""
    best = math.inf
    for _ in range(2):
        began = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - began)
    return best


class HostClock:
    """Rescales consecutive intervals to reference seconds.

    The probe taken after one interval is the probe before the next;
    call :meth:`mark` when other work came in between.
    """

    def __init__(self):
        self._before = probe()
        self._seconds = 0.0
        self._reference = 0.0

    def mark(self) -> None:
        """Probe now: the next interval starts here."""
        self._before = probe()

    def reference(self, seconds: float) -> float:
        """``seconds`` of work that just ended, in reference seconds."""
        after = probe()
        scaled = seconds * REFERENCE_S / math.sqrt(self._before * after)
        self._before = after
        self._seconds += seconds
        self._reference += scaled
        return scaled

    @property
    def factor(self) -> float:
        """Reference seconds per second over every interval rescaled so
        far: the host's mean pace over the run."""
        return self._reference / self._seconds


class _RawClock:
    """A clock that probes nothing and leaves seconds as they are."""

    def mark(self) -> None:
        pass

    def reference(self, seconds: float) -> float:
        return seconds


#: For passes whose raw seconds are wanted: the traced passes, and pool
#: passes, where a probe in this process would compete with the workers.
RAW = _RawClock()
