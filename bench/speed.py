"""Machine-speed probe: scales measured times to a fixed reference speed.

This benchmark runs on shared machines where other tenants slow a core
down by up to a factor of two, for stretches from milliseconds to
minutes.  The slowdown hits all Python code about alike, so a fixed
reference loop, timed next to the program, measures the machine's
current speed.  ``Probe`` times that loop before every call, at the end
of a pass and, from a SIGALRM timer, every ``INTERVAL_S`` seconds inside
long calls; a call's time is then scaled by ``REF_MS`` over the median
loop time around it.  The loop is pure Python on dicts, tuples and lists,
like idealtri itself, and uses none of idealtri's code, so a change to
the program moves the scaled times and a change in machine speed does
not.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# The loop's time on an unloaded 2 GHz Xeon core with CPython 3.11, so
# that scaled times there read as plain wall-clock times.
REF_MS = 2.0
INTERVAL_S = 0.2
PAD = 2


def reference_loop():
    """A fixed ~2 ms mix of dict, tuple, list and sort work."""
    table = {}
    run = []
    for i in range(3000):
        key = (i * 7919) % 2053
        table[(key, i & 7)] = run
        run.append((key, table.get((i - 3, 1))))
        if len(run) > 64:
            run = []
    return len(sorted(table))


def loop_ms():
    t0 = perf_counter()
    reference_loop()
    return (perf_counter() - t0) * 1e3


class Probe:
    """Loop timings taken between and inside the timed calls."""

    def __init__(self, timer=True):
        self.timer = timer
        self.samples = []        # loop time in ms, in order taken
        self.inside_s = 0.0      # time spent in timer-driven samples

    def sample(self):
        self.samples.append(loop_ms())

    def _on_timer(self, signum, frame):
        t0 = perf_counter()
        self.sample()
        self.inside_s += perf_counter() - t0

    def start_timer(self):
        if not self.timer:
            return
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self):
        if not self.timer:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first, last):
        """REF_MS over the median loop time of samples[first:last + 1]
        and of PAD samples on either side, so that one loop slowed by a
        preemption does not set a call's scale."""
        window = self.samples[max(0, first - PAD):last + 1 + PAD]
        return REF_MS / statistics.median(window)

