"""Wall times rescaled to a reference machine speed.

The machine this benchmark was built on is a 2-core VM shared with other
tenants.  Its speed drifts by 20-30% over tens of seconds, and CPU time
drifts with wall time, so neither is steady on its own.  A fixed
pure-Python loop slows down with it.  Timing the loop every half second
of measured work, and dividing each stretch of work by the loop's pace
around it, gives timings that move with the program rather than with
the neighbours.

``pace`` is the loop's current duration over :data:`REFERENCE_S`: 1.0 is
reference speed, 1.2 a machine running 20% slow.  The loop runs between
timed calls, never inside one, so it adds no time to what is measured.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

__all__ = ["PacedClock", "REFERENCE_S", "SAMPLE_EVERY_S", "pace_now"]

T = TypeVar("T")

#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 300_000

#: The reference loop's duration at reference speed: an uncontended core
#: of the 2-core x86-64 VM the benchmark was built on, under CPython 3.11.
REFERENCE_S = 0.05

#: Seconds of timed work between two pace samples.
SAMPLE_EVERY_S = 0.5


def pace_now() -> float:
    """The machine's current pace: the reference loop's time over REFERENCE_S."""
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
        table[i & 1023] = total
    return (time.perf_counter() - start) / REFERENCE_S


class PacedClock:
    """Sums the wall time of timed calls, raw and rescaled by pace.

    After every :data:`SAMPLE_EVERY_S` seconds of timed work (checked
    between calls) the clock samples the pace and rescales the work since
    the previous sample by the mean of the two samples around it.
    ``pace`` is the sampler (a fake in tests).
    """

    def __init__(self, pace: Callable[[], float] = pace_now) -> None:
        self._pace = pace
        self._last = pace()
        self._pending = 0.0
        self.wall_s = 0.0
        self.paced_s = 0.0
        self.paces = [self._last]

    def time(self, call: Callable[[], T]) -> T:
        """Run and time ``call``; sample the pace afterwards when due."""
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._pending += time.perf_counter() - start
            if self._pending >= SAMPLE_EVERY_S:
                self._sample()

    def stop(self) -> None:
        """Rescale the work since the last sample."""
        if self._pending > 0.0:
            self._sample()

    def _sample(self) -> None:
        pace = self._pace()
        self.paced_s += self._pending / ((self._last + pace) / 2.0)
        self.wall_s += self._pending
        self._pending = 0.0
        self._last = pace
        self.paces.append(pace)
