"""A gauge of how fast the host runs while a pass runs.

The benchmark runs on shared hosts whose speed drifts by a third or more
over minutes, as neighbours come and go.  The pass process's CPU time
drifts with its wall time, so the time is lost inside the process, not in
waiting, and no clock of the pass alone can tell it apart.

So every pass times a fixed unit of interpreter work, ``tick``, on an
interval timer from its start to its end.  The median tick time says how
fast the host ran during that very pass, and run.py scales the pass's
times by ``NOMINAL_S`` over it.  A tick uses nothing from censym, so a
change to censym moves the pass times and not the ticks.  Ticks take
under 1% of a pass.

Each timer event runs ``tick`` once untimed and times the second run.
The first run finds its code and data evicted by the pass and reacts to a
busy host far more than the pass does; the second runs from warm caches,
as the pass's own loops do.  On the host the benchmark was defined on,
the warm tick's time tracked the pass time with correlation 0.89 over
120 passes, the cold one's with 0.76-0.82.

This module imports only what the interpreter has loaded at start-up and
``signal``, which censym does not import, so it adds nothing to censym's
set-up time.
"""

import signal
import time

INTERVAL_S = 0.02
# median warm tick time inside a pass on the host the benchmark was defined
# on (2-vCPU Intel Xeon VM, CPython 3.11), so scaled times read as seconds there
NOMINAL_S = 6e-05


def tick() -> int:
    """One fixed unit of work of the kinds censym does: big-integer
    arithmetic, tuples built in nested loops, dict updates and string
    joins.  Returns a checksum."""
    big = 3**150
    for i in range(1, 8):
        big = big * (i + 7) // (i + 1)
    words = [tuple(sorted((a, b, (a * b) % 11))) for a in range(6) for b in range(6)]
    counts = {}
    for n in range(150):
        counts[n % 37] = counts.get(n % 37, 0) + n
    return big % 1000 + len(",".join(str(sum(w)) for w in words)) + len(counts)


class Gauge:
    """Times ``tick`` every INTERVAL_S of wall time between start and stop."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []

    def _on_timer(self, signum, frame):
        try:
            tick()  # warms caches; only the second run is timed
            start = self.clock()
            tick()
        except RecursionError:
            return  # the pass was near the recursion limit; skip this sample
        self.samples.append(self.clock() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # shorter than one interval: take one sample now
            self._on_timer(signal.SIGALRM, None)

    def median_s(self):
        """Median tick time; call after stop."""
        # not statistics.median: statistics imports fractions, which censym
        # imports, and the pass must pay for that in its set-up time
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
