"""CPU-speed sampling, for scaling times to a fixed reference speed.

On a shared machine a core's speed swings between states.  On the 2-vCPU
Intel Xeon this benchmark was set up on, the loop below takes about 50 us
or 80 us, switching every second or so, with runs of either state for
tens of seconds.  Timing one call of a few seconds then
spreads by a third between runs.  So while a run is timed, an interval
timer interrupts it PERIOD_S apart and times a short reference loop: the
benchmark's own pure-Python code, a 512-bit Galois LFSR step plus a table
lookup per turn, the same kind of work as the library's hot loops.  A
change to the library cannot change the loop's time.  An interval of
T seconds is reported as T * NOMINAL_S * mean(1 / r) over the reference
times r sampled during it (widened by WINDOW_S each side, so that short
intervals get samples too): the time the same work takes on a core that
runs the reference loop in NOMINAL_S.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

TURNS = 200
POLY = (1 << 511) | (1 << 37) | (1 << 5) | 1
TABLE = [((i * 0x9E3779B97F4A7C15) >> 7) & ((1 << 64) - 1) for i in range(256)]
#: a typical reference time on the machine the benchmark was set up on
NOMINAL_S = 50e-6
PERIOD_S = 0.02
WINDOW_S = 0.1


def _loop() -> float:
    v = (1 << 510) | 0x12345678
    acc = 0
    table = TABLE
    t0 = perf_counter()
    for _ in range(TURNS):
        acc ^= table[v & 0xFF] << (v & 63)
        v = (v >> 1) ^ (POLY if v & 1 else 0)
    return perf_counter() - t0


def reference_time() -> float:
    """The reference loop's time, in seconds, on its second of two passes.

    The first pass brings the loop's code and table back into the caches
    that the interrupted work used, so the timed pass sees the core's
    speed and not the cache footprint of the library code it interrupted.
    """
    _loop()
    return _loop()


class SpeedSampler:
    """Reference-loop timings taken from SIGALRM every PERIOD_S seconds.

    The handler runs in the main thread between bytecodes, so it sees the
    core in whatever state the timed work sees it.  It costs about 0.5 %
    of the run, the same for every commit.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []

    def _sample(self, signum, frame) -> None:
        r = reference_time()
        self.times.append(perf_counter())
        self.refs.append(r)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S * mean(1 / r) over samples in [t0, t1], widened by WINDOW_S.

        1.0 when there are none (a traced run samples nothing).
        """
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        refs = self.refs[lo:hi]
        if not refs:
            return 1.0
        return NOMINAL_S * sum(1.0 / r for r in refs) / len(refs)
