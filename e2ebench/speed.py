"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose CPU speed drifts by tens of
percent within seconds and minutes, for reasons that have nothing to do
with the program.  To keep that out of the timings, a fixed pure-Python
loop that uses no code of the program (:func:`reference_loop`) runs
between requests.  Its duration says how fast the interpreter runs on
this core at that moment.

Every request time is the wall time scaled by
``REFERENCE_LOOP_MS / loop_ms``, where ``loop_ms`` is the loop time
measured just before and just after the request.  The host's speed
changes within a second, so the nearest loops track it best: scaled by
them, one cold request varies about 10% from one pass to the next,
against 25% unscaled and 15% when scaled by the loops of the
surrounding second.

Set-up times are not scaled.  Set-up is mostly the model fit, seconds
of numpy calls, whose speed the loop does not follow: scaled by the
loops just before and after each phase, or by the median loop of the
run, the set-up time of ten runs spread twice as widely (IQR 0.3 and
0.45 of the median) as unscaled (0.1 to 0.2).

So request times are milliseconds on a host on which the loop takes
``REFERENCE_LOOP_MS``: on such a host they are the wall time, on a host
that is twice as slow they are half of it.  A faster program moves
them; a slower host does not.  The unscaled wall times are printed too,
on the context line.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: The loop took 0.5 to 1.0 ms, as the host's load changed, on the 2-vCPU
#: VM the bounds were set on.
REFERENCE_LOOP_MS = 1.0
#: Iterations of one loop.
LOOP_ITERATIONS = 2000
#: At most one loop per this many seconds between requests.
INTERVAL_S = 0.02


def reference_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """Interpreter work of a fixed size: arithmetic, dict and str calls,
    the operations the program's hot paths are made of."""
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + (i * i) % 7
    return total


class SpeedProbe:
    """Loop timings of one thread, in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each loop
        self.loop_ms: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.loop_ms.append((end - start) * 1000.0)
        self._last = end

    def maybe_sample(self) -> None:
        """One loop if ``INTERVAL_S`` has passed since the last."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between ``start`` and ``end``: the
        reference loop time over the mean time of the last loop before
        ``start`` and the first after ``end``."""
        before = bisect.bisect_left(self.times, start) - 1
        after = bisect.bisect_right(self.times, end)
        near = [self.loop_ms[i] for i in (before, after) if 0 <= i < len(self.loop_ms)]
        return REFERENCE_LOOP_MS / statistics.fmean(near or self.loop_ms)

    def median_loop_ms(self) -> float:
        return statistics.median(self.loop_ms)
