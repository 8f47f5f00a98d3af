"""Machine-speed reference for the end-to-end times.

On a shared machine the same work can take 25% longer in one run than in
the next, because the processor's speed drifts for seconds at a time.  A
run therefore times a fixed reference loop after every INTERVAL_S of
measured time, always between operations, and scales each operation's
time by ``REFERENCE_S / (median of the samples around it)``: the time it
would have taken at the reference speed.  The loop exercises what dcubed
spends its time on but calls no dcubed code, so no change to the library
can move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Typical reference-loop time on the machine where the benchmark was
# defined (2-core Intel Xeon VM, Python 3.11.7); it only sets the scale.
REFERENCE_S = 0.0019
# Typical launch of a bare interpreter (``python3 -E -S``) there.
LAUNCH_REFERENCE_S = 0.012
INTERVAL_S = 0.1


def reference_work():
    """About 2 ms of what dcubed does most: build a dict of tuple keys with
    Fraction values, sort its keys with a key function, sum Fractions."""
    table = {}
    for i in range(700):
        table[(i % 37, i, (i * 7) % 11)] = Fraction(i, 3)
    total = Fraction(0)
    for key in sorted(table, key=lambda k: (k[1] % 13, k))[:150]:
        total += table[key]
    return total


class SpeedReference:
    """Reference-loop samples taken between operations."""

    def __init__(self):
        self.samples = [self._measure()]  # seconds; one before any op
        self.counts = []                  # ops between sample k and k + 1
        self._ops = 0
        self._since = 0.0

    @staticmethod
    def _measure():
        """One sample, with the collector off: a collection here would
        measure the program's heap, not the machine."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_work()  # refills the caches the operation evicted
            start = time.perf_counter()
            reference_work()
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def _close(self):
        self.samples.append(self._measure())
        self.counts.append(self._ops)
        self._ops = 0
        self._since = 0.0

    def tick(self, measured_s):
        """Count one finished op; sample once every INTERVAL_S of op time."""
        self._ops += 1
        self._since += measured_s
        if self._since >= INTERVAL_S:
            self._close()

    def scale(self, latencies):
        """The ops' latencies (one per tick, in order) at reference speed.

        Each op takes the median of the four samples around it: two
        before and two after its segment, so one disturbed sample does
        not move it.
        """
        if self._ops:
            self._close()
        if sum(self.counts) != len(latencies):  # only after a failed op
            factor = REFERENCE_S / statistics.median(self.samples)
            return [t * factor for t in latencies]
        out = []
        for k, count in enumerate(self.counts):
            factor = REFERENCE_S / statistics.median(self.samples[max(k - 1, 0):k + 3])
            out.extend(t * factor for t in latencies[len(out):len(out) + count])
        return out
