"""How fast this machine runs Python right now.

The benchmark was built on a virtual machine that shares its CPUs with
other guests.  There even the CPU time of a fixed computation moved by
20-30% from one minute to the next, and within one run of a few seconds,
together for every part of the program.  Each measured process therefore
runs a ``Ticker``: every TICK_PERIOD seconds of wall time a signal handler
times a tick, a short ``sample`` (fixed exact-rational work that does not
touch weightsys).  An operation's CPU time, less the ticks inside it, is
scaled by the mean of TICK_REFERENCE over the tick times inside it and the
few next to it.  That is exact for a speed that changes from tick to tick,
since the ticks are evenly spread over the run, and gives CPU seconds at
the speed the baseline machine had when TICK_REFERENCE was measured.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import process_time

# Iterations of the work in one tick, and its median CPU seconds on the
# baseline machine: 0.0966 times the 23.5 ms that 4000 iterations took
# there, 0.0966 being the median ratio of the two timed back to back.
TICK_ITERATIONS = 400
TICK_REFERENCE = 0.0235 * 0.0966
# Wall seconds between ticks; ticks taken on entry and on exit; and the
# ticks on each side of an operation that count towards its speed along
# with those inside it.
TICK_PERIOD = 0.1
TICK_EDGE = 3
TICK_NEIGHBOURS = 8


def sample(iterations) -> float:
    """CPU seconds of one fixed piece of Fraction, tuple and dict work."""
    t0 = process_time()
    acc = Fraction(0)
    seen = {}
    for i in range(1, iterations):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        key = (i % 97, i % 13, acc.denominator % 5)
        seen[key] = seen.get(key, 0) + acc.numerator % 1009
    return process_time() - t0


class Ticker:
    """Times a tick (a short ``sample``) every TICK_PERIOD seconds while
    active, and TICK_EDGE more on entry and on exit.  ``ticks`` holds
    the CPU times at which each began and ended."""

    def __init__(self):
        self.ticks = []
        self._busy = False

    def _tick(self, *_):
        if self._busy:
            return
        self._busy = True
        # The tick frees all it allocates; with the collector off meanwhile,
        # the program's garbage collections fall where they would untimed.
        collecting = gc.isenabled()
        gc.disable()
        t0 = process_time()
        sample(TICK_ITERATIONS)
        self.ticks.append((t0, process_time()))
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self):
        for _ in range(TICK_EDGE):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD, TICK_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(TICK_EDGE):
            self._tick()

    def at_reference(self, t0, t1) -> float:
        """CPU seconds at reference speed of the work between the CPU
        times ``t0`` and ``t1``, without the ticks inside it."""
        before = [t for t in self.ticks if t[1] <= t0][-TICK_NEIGHBOURS:]
        inside = [t for t in self.ticks if t0 < t[1] <= t1]
        after = [t for t in self.ticks if t[1] > t1][:TICK_NEIGHBOURS]
        own = t1 - t0 - sum(b - a for a, b in inside)
        return own * tick_scale(before + inside + after)


def tick_scale(ticks) -> float:
    """The mean factor from CPU time to reference speed over ``ticks``."""
    return sum(TICK_REFERENCE / (b - a) for a, b in ticks) / len(ticks)
